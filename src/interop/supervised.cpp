#include "interop/supervised.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "catalog/spec_json.hpp"
#include "common/json.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"
#include "frameworks/version_policy.hpp"
#include "soap/version.hpp"

namespace wsx::interop {
namespace {

Error bad_config(const std::string& what) {
  return Error{"resilience.bad-config", "campaign config: " + what};
}

Error bad_record(const std::string& id, const std::string& what) {
  return Error{"resilience.bad-record", "task record for '" + id + "': " + what};
}

bool shape_from_string(std::string_view text, frameworks::ServiceShape& out) {
  for (const frameworks::ServiceShape shape :
       {frameworks::ServiceShape::kSimpleEcho, frameworks::ServiceShape::kCrud}) {
    if (text == frameworks::to_string(shape)) {
      out = shape;
      return true;
    }
  }
  return false;
}

/// Compact Diagnostic round-trip for task records. Only the first error of
/// each test is journaled (the samples cap means nothing else is ever
/// reported), so the encoding favours smallness over self-description.
std::string diagnostic_json(const Diagnostic& diagnostic) {
  return json::ObjectWriter{}
      .field("sev", to_string(diagnostic.severity))
      .field("code", diagnostic.code)
      .field("msg", diagnostic.message)
      .field("subj", diagnostic.subject)
      .field("uri", diagnostic.location.uri)
      .field("line", diagnostic.location.line)
      .field("col", diagnostic.location.column)
      .field("fix", diagnostic.fixit)
      .str();
}

bool diagnostic_from_json(const json::Value& value, Diagnostic& out) {
  const json::Value* sev = value.find("sev");
  const json::Value* code = value.find("code");
  const json::Value* msg = value.find("msg");
  const json::Value* subj = value.find("subj");
  const json::Value* uri = value.find("uri");
  const json::Value* line = value.find("line");
  const json::Value* col = value.find("col");
  const json::Value* fix = value.find("fix");
  if (sev == nullptr || !sev->is_string() || !severity_from_string(sev->as_string(), out.severity)) {
    return false;
  }
  if (code == nullptr || !code->is_string() || msg == nullptr || !msg->is_string() ||
      subj == nullptr || !subj->is_string() || uri == nullptr || !uri->is_string() ||
      line == nullptr || !line->is_number() || col == nullptr || !col->is_number() ||
      fix == nullptr || !fix->is_string()) {
    return false;
  }
  out.code = code->as_string();
  out.message = msg->as_string();
  out.subject = subj->as_string();
  out.location.uri = uri->as_string();
  out.location.line = static_cast<std::size_t>(line->as_number());
  out.location.column = static_cast<std::size_t>(col->as_number());
  out.fixit = fix->as_string();
  return true;
}

/// Reads a required bool member; false return = malformed record.
bool read_bool(const json::Value& value, std::string_view key, bool& out) {
  const json::Value* member = value.find(key);
  if (member == nullptr || !member->is_bool()) return false;
  out = member->as_bool();
  return true;
}

Result<catalog::JavaCatalogSpec> java_spec_member(const json::Value& config) {
  const json::Value* spec = config.find("java");
  if (spec == nullptr || !spec->is_object()) {
    return bad_config("missing java catalog spec");
  }
  return catalog::java_spec_from_json(json::to_text(*spec));
}

Result<catalog::DotNetCatalogSpec> dotnet_spec_member(const json::Value& config) {
  const json::Value* spec = config.find("dotnet");
  if (spec == nullptr || !spec->is_object()) {
    return bad_config("missing dotnet catalog spec");
  }
  return catalog::dotnet_spec_from_json(json::to_text(*spec));
}

bool read_flag(const json::Value& config, std::string_view key, bool& out) {
  const json::Value* member = config.find(key);
  if (member == nullptr || !member->is_bool()) return false;
  out = member->as_bool();
  return true;
}

/// Maps a task index back to its (server, service) pair given the first
/// task index of each server's range.
std::pair<std::size_t, std::size_t> locate_task(const std::vector<std::size_t>& first_task,
                                                std::size_t task) {
  std::size_t server_index = first_task.size() - 1;
  while (first_task[server_index] > task) --server_index;
  return {server_index, task - first_task[server_index]};
}

bool row_from_json(const json::Value& value, TestRow& row) {
  const json::Value* codes = value.find("codes");
  if (!read_bool(value, "gw", row.generation_warning) ||
      !read_bool(value, "ge", row.generation_error) ||
      !read_bool(value, "cw", row.compilation_warning) ||
      !read_bool(value, "ce", row.compilation_error) ||
      !read_bool(value, "art", row.artifacts_generated) || codes == nullptr ||
      !codes->is_array()) {
    return false;
  }
  for (const json::Value& code : codes->items()) {
    if (!code.is_string()) return false;
    row.codes.push_back(code.as_string());
  }
  const json::Value* first = value.find("first");
  if (first != nullptr) {
    Diagnostic sample;
    if (!diagnostic_from_json(*first, sample)) return false;
    row.first = std::move(sample);
  }
  return true;
}

std::string row_json(const TestRow& row) {
  json::ObjectWriter out;
  out.field("gw", row.generation_warning)
      .field("ge", row.generation_error)
      .field("cw", row.compilation_warning)
      .field("ce", row.compilation_error)
      .field("art", row.artifacts_generated);
  json::ArrayWriter codes;
  for (const std::string& code : row.codes) codes.item(code);
  out.raw_field("codes", codes.str());
  if (row.first.has_value()) out.raw_field("first", diagnostic_json(*row.first));
  return out.str();
}

/// A study task record: the candidate's deployment/description bits, then
/// one row per client (none when refused or gated).
std::string study_record(const ServiceRun& run) {
  json::ArrayWriter items;
  for (const TestRow& row : run.rows) items.raw_item(row_json(row));
  return json::ObjectWriter{}
      .field("refused", run.flags.refused)
      .field("wsi_failure", run.flags.wsi_failure)
      .field("zero_operations", run.flags.zero_operations)
      .field("gated", run.flags.gated)
      .raw_field("clients", items.str())
      .str();
}

/// Decodes a study task record. A record without the deployment/flag bits
/// was written when tasks began after deployment; folding it would lose
/// the refusal and WS-I counts, so it is rejected instead.
Result<bool> study_record_from_json(const std::string& id, const std::string& text,
                                    ServiceRun& run) {
  Result<json::Value> record = json::parse(text);
  if (!record.ok()) return record.error();
  if (!read_bool(*record, "refused", run.flags.refused) ||
      !read_bool(*record, "wsi_failure", run.flags.wsi_failure) ||
      !read_bool(*record, "zero_operations", run.flags.zero_operations) ||
      !read_bool(*record, "gated", run.flags.gated)) {
    return bad_record(id, "missing the refused/wsi_failure/zero_operations/gated bits "
                          "(journal predates per-service tasks; rerun the campaign)");
  }
  const json::Value* items = record->find("clients");
  if (items == nullptr || !items->is_array()) {
    return bad_record(id, "client row count mismatch");
  }
  for (const json::Value& item : items->items()) {
    TestRow row;
    if (!row_from_json(item, row)) return bad_record(id, "malformed client row");
    run.rows.push_back(std::move(row));
  }
  return true;
}

resilience::SupervisorOptions to_supervisor_options(const SupervisedOptions& options,
                                                    obs::Registry* metrics) {
  resilience::SupervisorOptions sup;
  sup.journal = options.journal;
  sup.jobs = options.jobs;
  sup.checkpoint_path = options.checkpoint_path;
  sup.resume = options.resume;
  sup.trip_after_tasks = options.trip_after_tasks;
  sup.metrics = metrics;
  return sup;
}

}  // namespace

std::string study_config_json(const StudyConfig& config) {
  return json::ObjectWriter{}
      .raw_field("java", catalog::to_json(config.java_spec))
      .raw_field("dotnet", catalog::to_json(config.dotnet_spec))
      .field("samples_per_cell", config.samples_per_cell)
      .field("shape", frameworks::to_string(config.shape))
      .field("wsi_deploy_gate", config.wsi_deploy_gate)
      .field("parse_cache", config.parse_cache)
      .str();
}

Result<StudyConfig> study_config_from_json(std::string_view text) {
  Result<json::Value> parsed = json::parse(text);
  if (!parsed.ok()) return parsed.error();
  StudyConfig config;
  Result<catalog::JavaCatalogSpec> java = java_spec_member(*parsed);
  if (!java.ok()) return java.error();
  config.java_spec = java.value();
  Result<catalog::DotNetCatalogSpec> dotnet = dotnet_spec_member(*parsed);
  if (!dotnet.ok()) return dotnet.error();
  config.dotnet_spec = dotnet.value();
  const json::Value* samples = parsed->find("samples_per_cell");
  if (samples == nullptr || !samples->is_number()) {
    return bad_config("missing samples_per_cell");
  }
  config.samples_per_cell = static_cast<std::size_t>(samples->as_number());
  const json::Value* shape = parsed->find("shape");
  if (shape == nullptr || !shape->is_string() ||
      !shape_from_string(shape->as_string(), config.shape)) {
    return bad_config("missing or unknown shape");
  }
  if (!read_flag(*parsed, "wsi_deploy_gate", config.wsi_deploy_gate)) {
    return bad_config("missing wsi_deploy_gate");
  }
  if (!read_flag(*parsed, "parse_cache", config.parse_cache)) {
    return bad_config("missing parse_cache");
  }
  return config;
}

std::string communication_config_json(const StudyConfig& config) {
  json::ArrayWriter versions;
  for (const frameworks::VersionPolicy policy : config.versions) {
    versions.item(frameworks::to_string(policy));
  }
  return json::ObjectWriter{}
      .raw_field("java", catalog::to_json(config.java_spec))
      .raw_field("dotnet", catalog::to_json(config.dotnet_spec))
      .field("parse_cache", config.parse_cache)
      .raw_field("versions", versions.str())
      .str();
}

Result<StudyConfig> communication_config_from_json(std::string_view text) {
  Result<json::Value> parsed = json::parse(text);
  if (!parsed.ok()) return parsed.error();
  StudyConfig config;
  Result<catalog::JavaCatalogSpec> java = java_spec_member(*parsed);
  if (!java.ok()) return java.error();
  config.java_spec = java.value();
  Result<catalog::DotNetCatalogSpec> dotnet = dotnet_spec_member(*parsed);
  if (!dotnet.ok()) return dotnet.error();
  config.dotnet_spec = dotnet.value();
  if (!read_flag(*parsed, "parse_cache", config.parse_cache)) {
    return bad_config("missing parse_cache");
  }
  const json::Value* versions = parsed->find("versions");
  if (versions == nullptr || !versions->is_array()) return bad_config("missing versions");
  for (const json::Value& policy : versions->items()) {
    if (!policy.is_string()) return bad_config("malformed version policy");
    const std::optional<frameworks::VersionPolicy> known =
        frameworks::parse_version_policy(policy.as_string());
    if (!known.has_value()) {
      return bad_config("unknown version policy '" + policy.as_string() + "'");
    }
    config.versions.push_back(*known);
  }
  return config;
}

Result<SupervisedStudyResult> run_study_supervised(const StudyConfig& config,
                                                   const SupervisedOptions& options) {
  SupervisedStudyResult out;
  StudyResult& result = out.study;

  obs::Span run_span(config.tracer, "study");

  // Preparation phase, identical to run_study (§III.A).
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
  std::vector<std::unique_ptr<compilers::Compiler>> client_compilers;
  for (const auto& client : clients) {
    client_compilers.push_back(compilers::make_compiler(client->language()));
  }
  prepare_span.end();
  prepare_timer.stop();

  // Plan: one task per candidate the server can bind. Candidates it cannot
  // are refusals without running anything; the task itself deploys,
  // describes, checks WS-I and runs every client (run_service), so a task
  // that deploy still refuses records that in its flags.
  std::vector<std::vector<const frameworks::ServiceSpec*>> planned(servers.size());
  std::vector<std::size_t> first_task;
  resilience::CampaignTasks tasks;
  tasks.campaign = "study";
  tasks.config_json = study_config_json(config);
  for (std::size_t s = 0; s < servers.size(); ++s) {
    const frameworks::ServerFramework& server = *servers[s];
    const std::vector<frameworks::ServiceSpec>& services =
        server.language() == "C#" ? dotnet_services : java_services;
    result.servers.push_back(empty_server_result(server, services.size(), clients));
    first_task.push_back(tasks.ids.size());
    for (const frameworks::ServiceSpec& spec : services) {
      if (!server.can_deploy(*spec.type)) {
        ++result.servers.back().deployment_refusals;
        continue;
      }
      planned[s].push_back(&spec);
      tasks.ids.push_back(server.name() + "|" + spec.service_name());
    }
  }

  // Side channel for the fold: a task executed in this process parks its
  // run here (indices are distinct across workers, so no locking) and the
  // record string — needed only for the journal — is built solely when a
  // checkpoint file is in play. Resumed tasks have no slot and fold from
  // their journal record instead; the round-trip is exact.
  struct TaskRun {
    bool executed = false;
    ServiceRun run;
  };
  std::vector<TaskRun> side(tasks.ids.size());
  const bool journaling = !options.checkpoint_path.empty();

  // Pure in the task index — the determinism contract supervise() needs.
  tasks.run = [&, journaling](std::size_t index, resilience::TaskContext& context) {
    const auto [server_index, service_index] = locate_task(first_task, index);
    TaskRun& data = side[index];
    data.executed = false;  // a deadline retry re-runs the task from scratch
    data.run = run_service(*servers[server_index], *planned[server_index][service_index],
                           clients, client_compilers, config,
                           // cost model: one virtual ms per client test
                           [&context] { context.charge(1); });
    data.executed = true;
    return journaling ? study_record(data.run) : std::string{};
  };

  obs::Span testing_span(config.tracer, "phase:testing", run_span);
  obs::ScopedTimer testing_timer = obs::timer(config.metrics, "study.phase.testing_us");
  Result<resilience::SupervisorReport> supervised =
      resilience::supervise(tasks, to_supervisor_options(options, config.metrics));
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Fold, in task order, through the aggregation run_server_campaign
  // applies. Resumed records fold exactly like freshly executed ones, so
  // the StudyResult — and every report rendered from it — is byte-identical
  // across interrupt/resume splits and worker counts.
  for (const resilience::TaskOutcome& task : out.supervisor.tasks) {
    if (task.state != resilience::TaskState::kCompleted) continue;
    const auto [server_index, service_index] = locate_task(first_task, task.task);
    ServiceRun& run = side[task.task].run;
    if (!side[task.task].executed) {
      Result<bool> decoded = study_record_from_json(task.id, task.record, run);
      if (!decoded.ok()) return decoded.error();
    }
    const std::size_t expected = run.flags.refused || run.flags.gated ? 0 : clients.size();
    if (run.rows.size() != expected) return bad_record(task.id, "client row count mismatch");
    fold_service(*planned[server_index][service_index], run, config,
                 result.servers[server_index], result);
  }
  std::size_t deployed = 0;
  for (const ServerResult& server : result.servers) {
    record_server_counters(server, config);
    deployed += server.services_deployed;
  }
  testing_span.annotate("deployed", deployed);
  testing_span.annotate("refused", result.total_deployment_refusals());
  testing_span.annotate("flagged", result.total_description_warnings());
  testing_span.end();
  testing_timer.stop();
  return out;
}

Result<SupervisedCommunicationResult> run_communication_supervised(
    const StudyConfig& config, const SupervisedOptions& options) {
  SupervisedCommunicationResult out;
  CommunicationResult& result = out.communication;

  obs::Span run_span(config.tracer, "communication");
  const catalog::TypeCatalog java_catalog = catalog::make_java_catalog(config.java_spec);
  const catalog::TypeCatalog dotnet_catalog = catalog::make_dotnet_catalog(config.dotnet_spec);
  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  std::vector<std::unique_ptr<compilers::Compiler>> client_compilers;
  for (const auto& client : clients) {
    client_compilers.push_back(compilers::make_compiler(client->language()));
  }

  // One round per (server, version policy) pair — mirroring
  // run_communication_study — or one per server when the axis is off. The
  // round label scopes task ids so a resumed journal can never splice a
  // strict round's rows into a shaded one.
  struct Round {
    const frameworks::ServerFramework* server;
    std::optional<frameworks::VersionPolicy> policy;
    std::string label;
  };
  std::vector<Round> rounds;
  for (const auto& server : servers) {
    if (config.versions.empty()) {
      rounds.push_back({server.get(), std::nullopt, server->name()});
      continue;
    }
    for (const frameworks::VersionPolicy policy : config.versions) {
      rounds.push_back({server.get(), policy,
                        server->name() + " [" + frameworks::to_string(policy) + "]"});
    }
  }
  std::vector<soap::HybridProfile> profiles;
  for (const auto& client : clients) {
    profiles.push_back(config.versions.empty()
                           ? soap::HybridProfile::kPure11
                           : frameworks::profile_for(client->version_policy()));
  }

  // Deployment + the shared parse up front, as in run_communication_study;
  // the invocations run under supervision.
  struct PreparedCommServer {
    std::vector<frameworks::DeployedService> deployed;
    std::vector<frameworks::SharedDescription> descriptions;
  };
  std::vector<PreparedCommServer> prepared;
  std::vector<std::size_t> first_task;
  resilience::CampaignTasks tasks;
  tasks.campaign = "communication";
  tasks.config_json = communication_config_json(config);
  for (const Round& round : rounds) {
    const frameworks::ServerFramework* server = round.server;
    const catalog::TypeCatalog& catalog =
        server->language() == "C#" ? dotnet_catalog : java_catalog;
    obs::Span server_span(config.tracer, "server:" + round.label, run_span);
    obs::Span deploy_span(config.tracer, "phase:deploy", server_span);
    obs::ScopedTimer deploy_timer = obs::timer(config.metrics, "comm.phase.deploy_us");
    PreparedCommServer prep;
    for (const catalog::TypeInfo& type : catalog.types()) {
      Result<frameworks::DeployedService> service =
          server->deploy(frameworks::ServiceSpec{&type});
      if (service.ok()) prep.deployed.push_back(std::move(service.value()));
    }
    obs::add(config.metrics, "comm.services_deployed", prep.deployed.size());
    deploy_span.annotate("deployed", prep.deployed.size());
    deploy_span.end();
    deploy_timer.stop();
    if (config.parse_cache) {
      obs::Span parse_span(config.tracer, "phase:parse", server_span);
      obs::ScopedTimer parse_timer = obs::timer(config.metrics, "comm.phase.parse_us");
      prep.descriptions.reserve(prep.deployed.size());
      for (const frameworks::DeployedService& service : prep.deployed) {
        prep.descriptions.push_back(
            frameworks::SharedDescription::from_deployed(service, /*with_wsi=*/false));
      }
      parse_span.end();
      parse_timer.stop();
    }
    first_task.push_back(tasks.ids.size());
    for (const frameworks::DeployedService& service : prep.deployed) {
      tasks.ids.push_back(round.label + "|" + service.spec.service_name());
    }
    prepared.push_back(std::move(prep));
  }

  // Side channel for the fold, as in run_study_supervised: executed tasks
  // park their invocation outcomes in memory and only build the journal
  // record when a checkpoint file is in play.
  struct CommTaskRows {
    bool executed = false;
    std::size_t sniffed = 0;
    std::vector<InvocationOutcome> invocations;
  };
  std::vector<CommTaskRows> side(tasks.ids.size());
  const bool journaling = !options.checkpoint_path.empty();

  tasks.run = [&, journaling](std::size_t index, resilience::TaskContext& context) {
    const auto [round_index, service_index] = locate_task(first_task, index);
    const Round& round = rounds[round_index];
    const PreparedCommServer& prep = prepared[round_index];
    const frameworks::DeployedService& service = prep.deployed[service_index];
    const frameworks::SharedDescription* description =
        config.parse_cache ? &prep.descriptions[service_index] : nullptr;
    CommTaskRows& data = side[index];
    data.executed = false;
    data.sniffed = 0;
    data.invocations.clear();  // a deadline retry re-runs the task from scratch
    data.invocations.reserve(clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      data.invocations.push_back(invoke_echo_once(
          *round.server, service, description, *clients[i], client_compilers[i].get(),
          &data.sniffed, profiles[i], round.policy.has_value() ? &*round.policy : nullptr));
      context.charge(1);  // cost model: one virtual ms per invocation
    }
    data.executed = true;
    if (!journaling) return std::string{};
    json::ArrayWriter rows;
    for (const InvocationOutcome& invocation : data.invocations) {
      rows.raw_item(json::ObjectWriter{}
                        .field("o", static_cast<std::size_t>(invocation.outcome))
                        .field("st", static_cast<long long>(invocation.http_status))
                        .str());
    }
    return json::ObjectWriter{}
        .field("sniffed", data.sniffed)
        .raw_field("clients", rows.str())
        .str();
  };

  obs::Span invoke_span(config.tracer, "phase:invoke", run_span);
  obs::ScopedTimer invoke_timer = obs::timer(config.metrics, "comm.phase.invoke_us");
  Result<resilience::SupervisorReport> supervised =
      resilience::supervise(tasks, to_supervisor_options(options, config.metrics));
  invoke_span.end();
  invoke_timer.stop();
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Fold in task order (see run_study_supervised); one result row per round.
  for (std::size_t round_index = 0; round_index < rounds.size(); ++round_index) {
    CommServerResult server_result;
    server_result.server = rounds[round_index].label;
    server_result.services_deployed = prepared[round_index].deployed.size();
    for (const auto& client : clients) {
      CommCell cell;
      cell.client = client->name();
      server_result.cells.push_back(std::move(cell));
    }
    result.servers.push_back(std::move(server_result));
  }
  for (const resilience::TaskOutcome& task : out.supervisor.tasks) {
    if (task.state != resilience::TaskState::kCompleted) continue;
    const auto [round_index, service_index] = locate_task(first_task, task.task);
    // (o, http_status) pairs from memory for executed tasks, from the
    // journal record for resumed ones — the round-trip is exact.
    std::vector<std::pair<std::size_t, int>> rows;
    rows.reserve(clients.size());
    const CommTaskRows& data = side[task.task];
    if (data.executed) {
      result.sniffed_violations += data.sniffed;
      for (const InvocationOutcome& invocation : data.invocations) {
        rows.emplace_back(static_cast<std::size_t>(invocation.outcome),
                          invocation.http_status);
      }
    } else {
      Result<json::Value> record = json::parse(task.record);
      if (!record.ok()) return record.error();
      const json::Value* sniffed = record->find("sniffed");
      const json::Value* items = record->find("clients");
      if (sniffed == nullptr || !sniffed->is_number() || items == nullptr ||
          !items->is_array()) {
        return bad_record(task.id, "malformed communication record");
      }
      result.sniffed_violations += static_cast<std::size_t>(sniffed->as_number());
      for (const json::Value& row : items->items()) {
        const json::Value* outcome_index = row.find("o");
        const json::Value* status = row.find("st");
        if (outcome_index == nullptr || !outcome_index->is_number() || status == nullptr ||
            !status->is_number()) {
          return bad_record(task.id, "malformed invocation row");
        }
        rows.emplace_back(static_cast<std::size_t>(outcome_index->as_number()),
                          static_cast<int>(status->as_number()));
      }
    }
    if (rows.size() != clients.size()) {
      return bad_record(task.id, "malformed communication record");
    }
    CommServerResult& server_result = result.servers[round_index];
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const std::size_t o = rows[i].first;
      if (o >= kCommOutcomeCount) return bad_record(task.id, "unknown outcome index");
      const CommOutcome outcome = static_cast<CommOutcome>(o);
      const int http_status = rows[i].second;
      CommCell& cell = server_result.cells[i];
      ++cell.outcomes[o];
      obs::add(config.metrics, "comm.invocations_total");
      obs::add(config.metrics,
               config.parse_cache ? "comm.parse.cache_hits" : "comm.parse.wsdl_parses");
      if (outcome != CommOutcome::kBlockedEarlier && outcome != CommOutcome::kOk) {
        obs::add(config.metrics, "comm.failures");
      }
      if (outcome == CommOutcome::kTransportError) {
        if (http_status >= 400 && http_status < 500) {
          ++cell.transport_4xx;
        } else if (http_status >= 500 && http_status < 600) {
          ++cell.transport_5xx;
        }
      }
    }
  }
  obs::add(config.metrics, "comm.sniffed_violations", result.sniffed_violations);
  return out;
}

}  // namespace wsx::interop
