#include "interop/study.hpp"

#include <algorithm>
#include <mutex>

#include "common/json.hpp"
#include "common/pool.hpp"
#include "common/strings.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"
#include "wsi/profile.hpp"

namespace wsx::interop {
namespace {

/// Records `sink`'s error/crash diagnostics into `row`: each distinct code
/// once, in first-seen order, and the first error as the test's sample.
/// Clean sinks — the overwhelmingly common case — skip the scan entirely.
void take_errors(DiagnosticSink& sink, TestRow& row) {
  if (!sink.has_errors()) return;
  for (Diagnostic& diagnostic : sink.diagnostics()) {
    if (diagnostic.severity != Severity::kError && diagnostic.severity != Severity::kCrash) {
      continue;
    }
    if (std::find(row.codes.begin(), row.codes.end(), diagnostic.code) == row.codes.end()) {
      row.codes.push_back(diagnostic.code);
    }
    if (!row.first.has_value()) row.first = std::move(diagnostic);
  }
}

/// What one worker folds over its slice of candidates: the server's
/// counters and cells, plus the slice's share of the study-wide totals.
struct Partial {
  ServerResult server;
  StudyResult totals;
};

void merge_cells(std::vector<CellResult>& into, const std::vector<CellResult>& part,
                 std::size_t samples_per_cell) {
  for (std::size_t i = 0; i < into.size(); ++i) {
    CellResult& cell = into[i];
    cell.tests += part[i].tests;
    cell.generation += part[i].generation;
    cell.compilation += part[i].compilation;
    for (const Diagnostic& sample : part[i].samples) {
      if (cell.samples.size() < samples_per_cell) cell.samples.push_back(sample);
    }
    for (const auto& [error_code, count] : part[i].error_codes) {
      cell.error_codes[error_code] += count;
    }
  }
}

/// Adds a slice's server counters and cells to the running fold.
void merge_server(const ServerResult& part, std::size_t samples_per_cell, ServerResult& server) {
  server.services_deployed += part.services_deployed;
  server.deployment_refusals += part.deployment_refusals;
  server.description_warnings += part.description_warnings;
  server.wsi_failures += part.wsi_failures;
  server.zero_operation_services += part.zero_operation_services;
  server.gate_rejections += part.gate_rejections;
  merge_cells(server.cells, part.cells, samples_per_cell);
}

/// Adds a slice's share of the study-wide totals.
void merge_totals(const StudyResult& part, StudyResult& totals) {
  totals.same_framework_failures += part.same_framework_failures;
  totals.same_platform_failures += part.same_platform_failures;
  totals.flagged_services += part.flagged_services;
  totals.flagged_services_with_downstream_error += part.flagged_services_with_downstream_error;
  totals.generation_errors_on_flagged += part.generation_errors_on_flagged;
  totals.generation_errors_on_compliant += part.generation_errors_on_compliant;
}

/// Steps (b)+(c) for one (service, client) pair: artifact generation, then
/// compilation or the instantiation check. `description` is the service's
/// shared parse (null = re-parse the served text, the --no-parse-cache
/// path); `compiler` is null for dynamic clients.
TestRow run_client_test(const frameworks::DeployedService& service,
                        const frameworks::SharedDescription* description,
                        const frameworks::ClientFramework& client,
                        const compilers::Compiler* compiler, obs::Registry* metrics) {
  TestRow row;

  // Step (b): client artifact generation — against the campaign's shared
  // parse when the cache is on, or re-parsing the served text when off.
  obs::ScopedTimer generation_timer = obs::timer(metrics, "study.step.generation_us");
  frameworks::GenerationResult generation = description != nullptr
                                                ? client.generate(*description)
                                                : client.generate(service.wsdl_text);
  generation_timer.stop();
  if (description != nullptr) {
    obs::add(metrics, "study.parse.cache_hits");
  } else {
    obs::add(metrics, "study.parse.wsdl_parses");
  }
  row.generation_warning = generation.diagnostics.has_warnings();
  row.generation_error = generation.diagnostics.has_errors();
  take_errors(generation.diagnostics, row);
  // Erratic tools may leave partial artifacts behind even after reporting
  // an error (§III.B.c); when they do, the artifacts proceed to step (c).
  if (!generation.produced_artifacts()) return row;
  row.artifacts_generated = true;

  // Step (c): compilation — or, for dynamic clients, the instantiation
  // check, whose outcome the study reports under the generation step
  // (Table II footnote 3: these clients have no compilation column).
  if (compiler == nullptr) {
    DiagnosticSink instantiation = compilers::check_instantiation(*generation.artifacts);
    row.generation_warning |= instantiation.has_warnings();
    row.generation_error |= instantiation.has_errors();
    take_errors(instantiation, row);
    return row;
  }

  obs::ScopedTimer compilation_timer = obs::timer(metrics, "study.step.compilation_us");
  DiagnosticSink compile_diagnostics = compiler->compile(*generation.artifacts);
  compilation_timer.stop();
  row.compilation_warning = compile_diagnostics.has_warnings();
  row.compilation_error = compile_diagnostics.has_errors();
  take_errors(compile_diagnostics, row);
  return row;
}

}  // namespace

bool same_framework_pair(const std::string& server, const std::string& client) {
  // Framework identity across the client/server subsystem split (the
  // paper's same-framework analysis, §V).
  if (starts_with(server, "Metro") && starts_with(client, "Oracle Metro")) return true;
  if (starts_with(server, "JBossWS") && starts_with(client, "JBossWS")) return true;
  if (starts_with(server, "WCF") && starts_with(client, ".NET")) return true;
  return false;
}

bool same_platform_pair(const std::string& server, const std::string& client) {
  // The strict reading behind the paper's 307: client and server running on
  // the very same installed platform (.NET hosts all three languages).
  return starts_with(server, "WCF") && starts_with(client, ".NET");
}

std::string to_json_line(const TestRecord& record) {
  return json::ObjectWriter{}
      .field("server", record.server)
      .field("client", record.client)
      .field("service", record.service)
      .field("type", record.type_name)
      .field("description_flagged", record.description_flagged)
      .field("generation_warning", record.generation_warning)
      .field("generation_error", record.generation_error)
      .field("compilation_warning", record.compilation_warning)
      .field("compilation_error", record.compilation_error)
      .str();
}

StepCounts ServerResult::generation_totals() const {
  StepCounts totals;
  for (const CellResult& cell : cells) totals += cell.generation;
  return totals;
}

StepCounts ServerResult::compilation_totals() const {
  StepCounts totals;
  for (const CellResult& cell : cells) totals += cell.compilation;
  return totals;
}

std::size_t StudyResult::total_tests() const {
  std::size_t total = 0;
  for (const ServerResult& server : servers) {
    for (const CellResult& cell : server.cells) total += cell.tests;
  }
  return total;
}

std::size_t StudyResult::total_services_created() const {
  std::size_t total = 0;
  for (const ServerResult& server : servers) total += server.services_created;
  return total;
}

std::size_t StudyResult::total_deployment_refusals() const {
  std::size_t total = 0;
  for (const ServerResult& server : servers) total += server.deployment_refusals;
  return total;
}

std::size_t StudyResult::total_description_warnings() const {
  std::size_t total = 0;
  for (const ServerResult& server : servers) total += server.description_warnings;
  return total;
}

StepCounts StudyResult::total_generation() const {
  StepCounts totals;
  for (const ServerResult& server : servers) totals += server.generation_totals();
  return totals;
}

StepCounts StudyResult::total_compilation() const {
  StepCounts totals;
  for (const ServerResult& server : servers) totals += server.compilation_totals();
  return totals;
}

std::size_t StudyResult::total_interop_errors() const {
  return total_generation().errors + total_compilation().errors;
}

ServiceRun run_service(const frameworks::ServerFramework& server,
                       const frameworks::ServiceSpec& spec,
                       const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients,
                       const std::vector<std::unique_ptr<compilers::Compiler>>& compilers,
                       const StudyConfig& config, const std::function<void()>& after_test) {
  ServiceRun run;

  // Step (a): description generation at deployment.
  obs::ScopedTimer deploy_timer = obs::timer(config.metrics, "study.step.deploy_us");
  Result<frameworks::DeployedService> deployment = server.deploy(spec);
  deploy_timer.stop();
  if (!deployment.ok()) {
    run.flags.refused = true;
    return run;
  }
  const frameworks::DeployedService& service = deployment.value();

  // The shared parse carries the client-view model and the WS-I verdict
  // (§III.B.d) every client below consumes; with the cache off, clients
  // re-parse the served text and only the WS-I check runs here.
  obs::ScopedTimer describe_timer = obs::timer(config.metrics, "study.step.describe_us");
  std::optional<frameworks::SharedDescription> description;
  if (config.parse_cache) {
    description.emplace(frameworks::SharedDescription::from_deployed(service));
    run.flags.wsi_failure = !description->wsi_report()->compliant();
  } else {
    run.flags.wsi_failure = !wsi::check(service.wsdl).compliant();
  }
  describe_timer.stop();
  run.flags.zero_operations = service.wsdl.operation_count() == 0;

  // Ablation: the deploy-time WS-I gate withdraws flagged descriptions
  // before any client consumes them.
  if (config.wsi_deploy_gate && run.flags.flagged()) {
    run.flags.gated = true;
    return run;
  }

  // Steps (b)+(c) for every client.
  run.rows.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    run.rows.push_back(run_client_test(service, description ? &*description : nullptr,
                                       *clients[i], compilers[i].get(), config.metrics));
    if (after_test) after_test();
  }
  return run;
}

ServerResult empty_server_result(
    const frameworks::ServerFramework& server, std::size_t services_created,
    const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients) {
  ServerResult result;
  result.server = server.name();
  result.application_server = server.application_server();
  result.services_created = services_created;
  result.cells.resize(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    result.cells[i].client = clients[i]->name();
    result.cells[i].client_language = clients[i]->language();
    result.cells[i].compiled = clients[i]->requires_compilation();
  }
  return result;
}

void fold_service(const frameworks::ServiceSpec& spec, const ServiceRun& run,
                  const StudyConfig& config, ServerResult& server, StudyResult& totals) {
  const ServiceFlags& flags = run.flags;
  if (flags.refused) {
    ++server.deployment_refusals;
    return;
  }
  if (flags.wsi_failure) ++server.wsi_failures;
  if (flags.zero_operations) ++server.zero_operation_services;
  const bool flagged = flags.flagged();
  if (flagged) {
    ++server.description_warnings;
    ++totals.flagged_services;
  }
  if (flags.gated) {
    ++server.gate_rejections;
    return;
  }
  ++server.services_deployed;

  bool service_errored = false;
  for (std::size_t i = 0; i < run.rows.size(); ++i) {
    const TestRow& row = run.rows[i];
    CellResult& cell = server.cells[i];
    const std::string& client = cell.client;
    ++cell.tests;
    obs::add(config.metrics, "study.tests_total");
    if (row.artifacts_generated) obs::add(config.metrics, "study.artifacts_generated");
    if (row.generation_warning) ++cell.generation.warnings;
    if (row.generation_error) ++cell.generation.errors;
    if (row.compilation_warning) ++cell.compilation.warnings;
    if (row.compilation_error) ++cell.compilation.errors;
    if (row.generation_error) obs::add(config.metrics, "study.generation_errors");
    if (row.compilation_error) obs::add(config.metrics, "study.compilation_errors");
    if (row.first.has_value() && cell.samples.size() < config.samples_per_cell) {
      cell.samples.push_back(*row.first);
    }
    for (const std::string& code : row.codes) ++cell.error_codes[code];
    if (config.observer) {
      TestRecord record;
      record.server = server.server;
      record.client = client;
      record.service = spec.service_name();
      record.type_name = spec.type != nullptr ? spec.type->qualified_name() : "";
      record.description_flagged = flagged;
      record.generation_warning = row.generation_warning;
      record.generation_error = row.generation_error;
      record.compilation_warning = row.compilation_warning;
      record.compilation_error = row.compilation_error;
      config.observer(record);
    }
    if (row.generation_error || row.compilation_error) {
      service_errored = true;
      if (same_framework_pair(server.server, client)) ++totals.same_framework_failures;
      if (same_platform_pair(server.server, client)) ++totals.same_platform_failures;
    }
    if (row.generation_error) {
      if (flagged) {
        ++totals.generation_errors_on_flagged;
      } else {
        ++totals.generation_errors_on_compliant;
      }
    }
  }
  if (flagged && service_errored) ++totals.flagged_services_with_downstream_error;
}

void record_server_counters(const ServerResult& server, const StudyConfig& config) {
  // Deployed before the gate: every description that was built.
  const std::size_t deployed = server.services_deployed + server.gate_rejections;
  obs::add(config.metrics, "study.services_created", server.services_created);
  obs::add(config.metrics, "study.services_deployed", deployed);
  obs::add(config.metrics, "study.deployment_refusals", server.deployment_refusals);
  obs::add(config.metrics, "study.description_flags", server.description_warnings);
  if (config.parse_cache) obs::add(config.metrics, "study.parse.wsdl_parses", deployed);
}

ServerResult run_server_campaign(
    const frameworks::ServerFramework& server,
    const std::vector<frameworks::ServiceSpec>& services,
    const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients,
    const StudyConfig& config, StudyResult* cross_totals, obs::SpanId parent_span) {
  obs::Span server_span(config.tracer, "server:" + server.name(), parent_span);
  std::vector<std::unique_ptr<compilers::Compiler>> client_compilers;
  for (const auto& client : clients) {
    client_compilers.push_back(compilers::make_compiler(client->language()));
  }

  obs::Span testing_span(config.tracer, "phase:testing", server_span);
  obs::ScopedTimer testing_timer = obs::timer(config.metrics, "study.phase.testing_us");

  // Workers fold in parallel, so the observer is serialised here.
  StudyConfig slice_config = config;
  std::mutex observer_mutex;
  if (config.observer) {
    slice_config.observer = [&](const TestRecord& record) {
      const std::lock_guard<std::mutex> lock(observer_mutex);
      config.observer(record);
    };
  }

  // Every candidate runs the whole chain inside its slice, so each
  // service's WSDL, model and description are freed before the next one
  // is built. Slices are fine-grained because refusals — the cheap
  // candidates — cluster by catalog position.
  const auto run_slice = [&](std::size_t begin, std::size_t end) {
    Partial partial;
    partial.server = empty_server_result(server, 0, clients);
    for (std::size_t index = begin; index < end; ++index) {
      fold_service(services[index],
                   run_service(server, services[index], clients, client_compilers,
                               slice_config),
                   slice_config, partial.server, partial.totals);
    }
    return partial;
  };

  PoolStats pool_stats;
  const std::vector<Partial> partials =
      parallel_slices(services.size(), config.threads, run_slice, &pool_stats,
                      kBalancedGrain);
  if (config.metrics != nullptr) {
    config.metrics->gauge("study.pool.workers").set_max(
        static_cast<std::int64_t>(pool_stats.workers));
    config.metrics->gauge("study.pool.max_queue_depth").set_max(
        static_cast<std::int64_t>(pool_stats.max_queue_depth));
  }

  // Deterministic merge, in slice order.
  ServerResult result = empty_server_result(server, services.size(), clients);
  for (const Partial& partial : partials) {
    merge_server(partial.server, config.samples_per_cell, result);
    if (cross_totals != nullptr) merge_totals(partial.totals, *cross_totals);
  }
  record_server_counters(result, config);
  testing_span.annotate("deployed", result.services_deployed);
  testing_span.annotate("refused", result.deployment_refusals);
  testing_span.annotate("flagged", result.description_warnings);

  // One span per server×client cell, annotated with its Table III numbers.
  for (const CellResult& cell : result.cells) {
    obs::Span cell_span(config.tracer, "cell:" + cell.client, testing_span);
    cell_span.annotate("tests", cell.tests);
    cell_span.annotate("generation_errors", cell.generation.errors);
    cell_span.annotate("compilation_errors", cell.compilation.errors);
  }
  testing_span.end();
  testing_timer.stop();
  return result;
}

StudyResult run_study(const StudyConfig& config) {
  StudyResult result;

  obs::Span run_span(config.tracer, "study");
  const std::uint64_t started_us =
      config.metrics != nullptr ? config.metrics->clock().now_us() : 0;

  // Preparation phase: catalogs and services (§III.A).
  obs::Span prepare_span(config.tracer, "phase:prepare", run_span);
  obs::ScopedTimer prepare_timer = obs::timer(config.metrics, "study.phase.prepare_us");
  const catalog::TypeCatalog java_catalog = catalog::make_java_catalog(config.java_spec);
  const catalog::TypeCatalog dotnet_catalog = catalog::make_dotnet_catalog(config.dotnet_spec);
  const std::vector<frameworks::ServiceSpec> java_services =
      frameworks::make_services(java_catalog, config.shape);
  const std::vector<frameworks::ServiceSpec> dotnet_services =
      frameworks::make_services(dotnet_catalog, config.shape);

  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  prepare_span.end();
  prepare_timer.stop();

  for (const auto& server : servers) {
    const bool is_dotnet = server->language() == "C#";
    const std::vector<frameworks::ServiceSpec>& services =
        is_dotnet ? dotnet_services : java_services;
    result.servers.push_back(
        run_server_campaign(*server, services, clients, config, &result, run_span.id()));
  }

  if (config.metrics != nullptr) {
    // Throughput gauge (runtime-dependent, excluded from deterministic
    // exports; zero under a frozen clock).
    const std::uint64_t elapsed_us = config.metrics->clock().now_us() - started_us;
    const std::size_t tests = result.total_tests();
    config.metrics->gauge("study.tests_per_sec")
        .set(elapsed_us == 0 ? 0
                             : static_cast<std::int64_t>(tests * 1000000 / elapsed_us));
  }
  return result;
}

}  // namespace wsx::interop
