// The `study` workload: the paper's batch campaign through run_study at N
// workers and at 1 worker; and the study half of the traced layer table.
#include <string>

#include "batch.hpp"
#include "bench.hpp"
#include "corpus.hpp"
#include "frameworks/shared_description.hpp"
#include "interop/paper_reference.hpp"
#include "interop/study.hpp"
#include "stats.hpp"
#include "wsi/profile.hpp"

namespace perfbench {

namespace fw = wsx::frameworks;
namespace paper = wsx::interop::paper;

namespace {

/// Differences between a study result and the paper's totals ("" = none).
std::string study_mismatch(const wsx::interop::StudyResult& result) {
  std::string out;
  const auto expect = [&](const char* what, std::size_t got, std::size_t want) {
    if (got != want) {
      out += std::string(what) + " " + std::to_string(got) + " != " + std::to_string(want) + "; ";
    }
  };
  expect("tests", result.total_tests(), paper::kTotalTests);
  expect("services", result.total_services_created(), paper::kServicesCreated);
  expect("refusals", result.total_deployment_refusals(), paper::kWsdlFailures);
  expect("generation errors", result.total_generation().errors, paper::kGenerationErrors);
  expect("compilation errors", result.total_compilation().errors, paper::kCompilationErrors);
  expect("flagged", result.flagged_services, paper::kFlaggedServices);
  return out;
}

/// Per-layer accumulators of the traced replay.
struct Layers {
  double deploy_ns = 0, describe_ns = 0, wsi_ns = 0, generate_ns = 0, compile_ns = 0,
         instantiate_ns = 0;
  std::size_t deploy_calls = 0, deploy_refused = 0, wsdl_bytes = 0, flagged = 0,
              generate_calls = 0, generate_errors = 0, compile_calls = 0, compile_errors = 0;
  std::size_t generation_step_errors = 0;  ///< tests failing generation or instantiation
  std::vector<double> describe_ns_per_byte;
};

/// One service through the study pipeline, timed per layer: deploy,
/// describe (SharedDescription), WS-I, then generate and compile (or
/// instantiate) for every client. Mirrors run_client_test's
/// classification, so sums over the corpus equal the study's totals.
void assess(const Corpus& corpus, const Candidate& candidate, Layers& layers) {
  Clock::time_point start = Clock::now();
  wsx::Result<fw::DeployedService> deployed = candidate.server->deploy(candidate.spec);
  layers.deploy_ns += ns_since(start);
  ++layers.deploy_calls;
  if (!deployed.ok()) {
    ++layers.deploy_refused;
    return;
  }
  const fw::DeployedService& service = deployed.value();

  start = Clock::now();
  const fw::SharedDescription description =
      fw::SharedDescription::from_deployed(service, /*with_wsi=*/false);
  const double describe_ns = ns_since(start);
  layers.describe_ns += describe_ns;
  layers.wsdl_bytes += service.wsdl_text.size();
  layers.describe_ns_per_byte.push_back(describe_ns /
                                        static_cast<double>(service.wsdl_text.size()));
  start = Clock::now();
  const wsx::wsi::ComplianceReport report = wsx::wsi::check(service.wsdl);
  layers.wsi_ns += ns_since(start);
  if (!report.compliant() || service.wsdl.operation_count() == 0) ++layers.flagged;

  for (std::size_t c = 0; c < corpus.clients.size(); ++c) {
    start = Clock::now();
    fw::GenerationResult generation = corpus.clients[c]->generate(description);
    layers.generate_ns += ns_since(start);
    ++layers.generate_calls;
    bool generation_error = generation.diagnostics.has_errors();
    if (generation_error) ++layers.generate_errors;
    if (generation.produced_artifacts()) {
      const wsx::compilers::Compiler* compiler = corpus.compilers[c].get();
      start = Clock::now();
      if (compiler == nullptr) {
        // Dynamic clients: the study reports instantiation under generation.
        generation_error |= wsx::compilers::check_instantiation(*generation.artifacts).has_errors();
        layers.instantiate_ns += ns_since(start);
      } else {
        const bool compile_error = compiler->compile(*generation.artifacts).has_errors();
        layers.compile_ns += ns_since(start);
        ++layers.compile_calls;
        if (compile_error) ++layers.compile_errors;
      }
    }
    if (generation_error) ++layers.generation_step_errors;
  }
}

wsx::interop::StudyResult study_pass(std::size_t threads) {
  wsx::interop::StudyConfig config;
  config.threads = threads;
  return wsx::interop::run_study(config);
}

}  // namespace

Outcome run_study(const Options& options) {
  Outcome outcome;
  const auto pass = [&](std::size_t threads) {
    const wsx::interop::StudyResult result = study_pass(threads);
    outcome.attempted += result.total_tests();
    const std::string mismatch = study_mismatch(result);
    if (!mismatch.empty()) {
      outcome.fail(result.total_tests(),
                   "study pass at " + std::to_string(threads) + " worker(s): " + mismatch);
    }
    return result.total_tests();
  };
  add_batch_metrics(run_rounds(options, pass), outcome);
  return outcome;
}

void study_layers(const Options&, Outcome& outcome) {
  // Pass wall of the untraced 1-worker study, the figure the layers must
  // add up to.
  std::vector<double> pass_1t;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    const wsx::interop::StudyResult result = study_pass(1);
    pass_1t.push_back(seconds_since(start) * 1e3);
    outcome.attempted += result.total_tests();
    const std::string mismatch = study_mismatch(result);
    if (!mismatch.empty()) outcome.fail(result.total_tests(), "study pass: " + mismatch);
  }
  const double pass_ms = median(pass_1t);

  std::vector<double> prepare_ms;
  for (int i = 0; i < 5; ++i) prepare_ms.push_back(prepare_seconds() * 1e3);

  const std::unique_ptr<Corpus> corpus = Corpus::build();
  Layers layers;
  const Clock::time_point replay_start = Clock::now();
  for (const Candidate& candidate : corpus->candidates) assess(*corpus, candidate, layers);
  const double replay_ms = seconds_since(replay_start) * 1e3;
  outcome.attempted += layers.generate_calls;
  if (layers.deploy_calls != paper::kServicesCreated ||
      layers.deploy_refused != paper::kWsdlFailures || layers.flagged != paper::kFlaggedServices ||
      layers.generate_calls != paper::kTotalTests ||
      layers.generation_step_errors != paper::kGenerationErrors ||
      layers.compile_errors != paper::kCompilationErrors) {
    outcome.fail(layers.generate_calls, "traced study replay disagrees with the paper's totals");
  }

  constexpr double ms = 1e-6;  // ns → ms
  const double layered_ms = median(prepare_ms) + ms * (layers.deploy_ns + layers.describe_ns +
                                                       layers.wsi_ns + layers.generate_ns +
                                                       layers.compile_ns + layers.instantiate_ns);
  outcome.add("catalog.prepare_ms", median(prepare_ms), "ms");
  outcome.add("frameworks.deploy_ms", layers.deploy_ns * ms, "ms");
  outcome.add("frameworks.deploy_calls", static_cast<double>(layers.deploy_calls), "count");
  outcome.add("frameworks.deploy_refused", static_cast<double>(layers.deploy_refused), "count");
  outcome.add("frameworks.wsdl_bytes", static_cast<double>(layers.wsdl_bytes), "B");
  outcome.add("wsdl.describe_ms", layers.describe_ns * ms, "ms");
  outcome.add("wsdl.describe_ns_per_byte_p50", median(layers.describe_ns_per_byte), "ns/B");
  if (const auto p99 = percentile(layers.describe_ns_per_byte, 99)) {
    outcome.add("wsdl.describe_ns_per_byte_p99", *p99, "ns/B");
  }
  outcome.add("wsi.check_ms", layers.wsi_ns * ms, "ms");
  outcome.add("wsi.flagged", static_cast<double>(layers.flagged), "count");
  outcome.add("frameworks.generate_ms", layers.generate_ns * ms, "ms");
  outcome.add("frameworks.generate_calls", static_cast<double>(layers.generate_calls), "count");
  outcome.add("frameworks.generate_errors", static_cast<double>(layers.generate_errors), "count");
  outcome.add("compilers.compile_ms", layers.compile_ns * ms, "ms");
  outcome.add("compilers.instantiate_ms", layers.instantiate_ns * ms, "ms");
  outcome.add("compilers.compile_calls", static_cast<double>(layers.compile_calls), "count");
  outcome.add("compilers.compile_errors", static_cast<double>(layers.compile_errors), "count");
  outcome.add("interop.pass_1t_ms", pass_ms, "ms");
  outcome.add("interop.traced_pass_ms", replay_ms, "ms");
  outcome.add("interop.unattributed_ms", pass_ms - layered_ms, "ms");
  outcome.add("interop.layer_coverage", layered_ms / pass_ms, "ratio");
}

}  // namespace perfbench
