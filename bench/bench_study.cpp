// bench_study — end-to-end study throughput with the obs pipeline.
//
// Runs the full-scale campaign three times — with tracing/metrics off (the
// pure-harness baseline), with both sinks live, and under the resilience
// supervisor — and writes BENCH_study.json: tests executed, wall seconds,
// tests/sec, per-phase wall time and per-step worker time from the metric
// histograms, and both overhead ratios. The instrumentation budget is 5%
// (docs/OBSERVABILITY.md) and the supervisor budget is 2%
// (docs/RESILIENCE.md); the JSON records the measured numbers so CI
// history can watch them drift, and
// --max-supervisor-overhead turns the supervisor budget into a hard gate.
//
// The plain and supervised legs take the best of --reps runs (default 3):
// the overhead gate compares two sub-second walls, and single runs carry
// several percent of scheduler noise — minimums estimate the true cost.
//
//   bench_study [--scale PCT] [--threads N] [--reps N] [--out FILE.json]
//               [--max-supervisor-overhead PCT]
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "interop/study.hpp"
#include "interop/supervised.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace wsx;

bool parse_count(const std::string& text, std::size_t& out) {
  if (text.empty()) return false;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  out = value;
  return true;
}

void scale_config(interop::StudyConfig& config, std::size_t percent) {
  const auto scaled = [percent](std::size_t value) {
    return std::max<std::size_t>(1, value * percent / 100);
  };
  auto& java = config.java_spec;
  java.plain_beans = scaled(java.plain_beans);
  java.throwable_clean = scaled(java.throwable_clean);
  java.throwable_raw = scaled(java.throwable_raw);
  java.raw_generic_beans = scaled(java.raw_generic_beans);
  java.anytype_array_beans = scaled(java.anytype_array_beans);
  java.no_default_ctor = scaled(java.no_default_ctor);
  java.abstract_classes = scaled(java.abstract_classes);
  java.interfaces = scaled(java.interfaces);
  java.generic_types = scaled(java.generic_types);
  auto& dotnet = config.dotnet_spec;
  dotnet.plain_types = scaled(dotnet.plain_types);
  dotnet.dataset_plain = scaled(dotnet.dataset_plain);
  dotnet.deep_nesting_clean = scaled(dotnet.deep_nesting_clean);
  dotnet.deep_nesting_pathological = scaled(dotnet.deep_nesting_pathological);
  dotnet.non_serializable = scaled(dotnet.non_serializable);
  dotnet.no_default_ctor = scaled(dotnet.no_default_ctor);
  dotnet.generic_types = scaled(dotnet.generic_types);
  dotnet.abstract_classes = scaled(dotnet.abstract_classes);
  dotnet.interfaces = scaled(dotnet.interfaces);
}

double seconds_for(const interop::StudyConfig& config, std::size_t& tests_out) {
  const auto start = std::chrono::steady_clock::now();
  const interop::StudyResult result = interop::run_study(config);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  tests_out = result.total_tests();
  return elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t scale = 100;
  std::size_t threads = 0;
  std::size_t reps = 3;
  std::size_t max_supervisor_overhead = 0;  // percent; 0 = report only
  std::string out_path = "BENCH_study.json";
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scale" && i + 1 < args.size()) {
      if (!parse_count(args[++i], scale)) return 2;
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      if (!parse_count(args[++i], threads)) return 2;
    } else if (args[i] == "--reps" && i + 1 < args.size()) {
      if (!parse_count(args[++i], reps) || reps == 0) return 2;
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i] == "--max-supervisor-overhead" && i + 1 < args.size()) {
      if (!parse_count(args[++i], max_supervisor_overhead)) return 2;
    } else {
      std::cerr << "usage: bench_study [--scale PCT] [--threads N] [--reps N] [--out FILE.json]\n"
                   "                   [--max-supervisor-overhead PCT]\n";
      return 2;
    }
  }

  interop::StudyConfig config;
  if (scale != 100) scale_config(config, scale);
  config.threads = threads;

  // Warm-up run: touches every lazily-built catalog/framework singleton so
  // neither measured run pays first-use costs.
  std::size_t tests = 0;
  (void)seconds_for(config, tests);

  // Plain and supervised legs, paired per rep. The plain leg is the
  // baseline: instrumentation compiled in, sinks off (the default for every
  // production caller). The supervised leg is the same campaign through the
  // resilience supervisor (no checkpoint file, no budgets — pure task/fold
  // machinery), sinks off so the ratio isolates the supervisor itself.
  // The overhead gate uses the best per-rep ratio: the legs of one rep run
  // back-to-back, so a transient load spike inflates both and cancels in
  // the ratio, where a min-of-each-leg comparison would attribute it to
  // whichever leg it happened to land in.
  double plain_seconds = 0.0;
  double supervised_seconds = 0.0;
  double supervisor_ratio = 1.0;  // best paired supervised/plain ratio
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double plain = seconds_for(config, tests);
    if (rep == 0 || plain < plain_seconds) plain_seconds = plain;
    const auto supervised_start = std::chrono::steady_clock::now();
    const wsx::Result<interop::SupervisedStudyResult> supervised =
        interop::run_study_supervised(config, {});
    const std::chrono::duration<double> supervised_elapsed =
        std::chrono::steady_clock::now() - supervised_start;
    if (!supervised.ok()) {
      std::cerr << "bench_study: supervised run failed: " << supervised.error().message
                << "\n";
      return 1;
    }
    if (rep == 0 || supervised_elapsed.count() < supervised_seconds) {
      supervised_seconds = supervised_elapsed.count();
    }
    const double ratio = plain > 0.0 ? supervised_elapsed.count() / plain : 1.0;
    if (rep == 0 || ratio < supervisor_ratio) supervisor_ratio = ratio;
  }

  // Instrumented: both sinks live, same work.
  obs::Tracer tracer;
  obs::Registry registry;
  config.tracer = &tracer;
  config.metrics = &registry;
  std::size_t traced_tests = 0;
  const double traced_seconds = seconds_for(config, traced_tests);
  config.tracer = nullptr;
  config.metrics = nullptr;

  const double tests_per_sec =
      plain_seconds > 0.0 ? static_cast<double>(tests) / plain_seconds : 0.0;
  const double overhead =
      plain_seconds > 0.0 ? traced_seconds / plain_seconds - 1.0 : 0.0;
  const double supervisor_overhead = supervisor_ratio - 1.0;

  // Phase timers are wall time; the per-service step timers are summed
  // over every worker, so they can exceed the testing phase they sit in.
  json::ObjectWriter phases;
  for (const char* name : {"study.phase.prepare_us", "study.phase.testing_us",
                           "study.step.deploy_us", "study.step.describe_us"}) {
    phases.field(name, static_cast<std::size_t>(registry.histogram(name).sum()));
  }
  json::ObjectWriter doc;
  doc.field("benchmark", "study");
  doc.field("scale_percent", scale);
  doc.field("tests", tests);
  doc.field("seconds", plain_seconds);
  doc.field("tests_per_sec", tests_per_sec);
  doc.field("traced_seconds", traced_seconds);
  doc.field("instrumentation_overhead", overhead);
  doc.field("supervised_seconds", supervised_seconds);
  doc.field("supervisor_overhead", supervisor_overhead);
  doc.raw_field("phase_sum_us", phases.str());

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_study: cannot open " << out_path << "\n";
    return 1;
  }
  out << doc.str() << "\n";
  std::cout << "study: " << tests << " tests in " << plain_seconds << " s ("
            << static_cast<std::size_t>(tests_per_sec) << " tests/s), traced "
            << traced_seconds << " s (overhead "
            << static_cast<long long>(overhead * 1000.0) / 10.0 << "%), supervised "
            << supervised_seconds << " s (overhead "
            << static_cast<long long>(supervisor_overhead * 1000.0) / 10.0 << "%) -> "
            << out_path << "\n";
  if (max_supervisor_overhead != 0 &&
      supervisor_overhead * 100.0 > static_cast<double>(max_supervisor_overhead)) {
    std::cerr << "bench_study: supervisor overhead "
              << static_cast<long long>(supervisor_overhead * 1000.0) / 10.0
              << "% exceeds the " << max_supervisor_overhead << "% budget\n";
    return 1;
  }
  return 0;
}
