// perfbench — the repository benchmark. Drives the entry points the CLI
// verbs call (interop::run_study, chaos::run_chaos_study, serve::Oracle +
// Daemon + TcpServer) and prints one JSON result line:
//
//   perfbench --workload study|chaos|serve --seed N --seconds S --trace 0|1
//       [--commit SHA]
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer table.
// A stamp line (host, build, commit, seed) precedes the result line; the
// result line is always last. See perfbench/README.md for the glossary.
#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "common/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string stamp(const Options& options, std::string_view commit) {
  return wsx::json::ObjectWriter{}
      .raw_field("stamp", wsx::json::ObjectWriter{}
                              .field("workload", options.workload)
                              .field("seed", static_cast<std::size_t>(options.seed))
                              .field("seconds", options.seconds)
                              .field("trace", options.trace)
                              .field("cpu_model", cpu_model())
                              .field("nproc", workers())
                              .field("compiler", kCompiler)
                              .field("build_type", PERFBENCH_BUILD_TYPE)
                              .field("cxx_flags", PERFBENCH_CXX_FLAGS)
                              .field("commit", commit)
                              .str())
      .str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  wsx::json::ObjectWriter out;
  for (const Metric& metric : metrics) {
    out.raw_field(metric.name, wsx::json::ObjectWriter{}
                                   .raw_field("value", number(metric.value))
                                   .field("unit", metric.unit)
                                   .str());
  }
  return out.str();
}

std::string result_line(const Outcome& outcome, bool correct) {
  return wsx::json::ObjectWriter{}
      .field("correct", correct)
      .raw_field("attempted", std::to_string(outcome.attempted))
      .raw_field("failed", std::to_string(outcome.failed))
      .raw_field("metrics", metrics_json(outcome.metrics))
      .str();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload study|chaos|serve --seed N "
               "--seconds S --trace 0|1 [--commit SHA]\n",
               why);
  return 2;
}

bool parse_number(std::string_view text, double& out) {
  char* end = nullptr;
  const std::string copy(text);
  out = std::strtod(copy.c_str(), &end);
  return end != copy.c_str() && *end == '\0' && std::isfinite(out);
}

bool parse_seed(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string_view::npos) return false;
  const std::string copy(text);
  errno = 0;
  out = std::strtoull(copy.c_str(), nullptr, 10);
  return errno == 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing flag value");
    const std::string_view value = argv[++i];
    double parsed = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!parse_seed(value, options.seed)) return usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!parse_number(value, parsed) || parsed <= 0 || parsed > 600) {
        return usage("bad --seconds");
      }
      options.seconds = parsed;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (options.workload != "study" && options.workload != "chaos" &&
      options.workload != "serve") {
    return usage("unknown --workload");
  }

  std::printf("%s\n", stamp(options, commit).c_str());
  std::fflush(stdout);

  Outcome outcome;
  try {
    if (options.trace) {
      study_layers(options, outcome);
      chaos_layers(options, outcome);
      serve_layers(options, outcome);
    } else if (options.workload == "study") {
      outcome = run_study(options);
    } else if (options.workload == "chaos") {
      outcome = run_chaos(options);
    } else {
      outcome = run_serve(options);
    }
  } catch (const std::exception& error) {
    outcome.fail(outcome.attempted == 0 ? 1 : outcome.attempted - outcome.failed,
                 std::string("exception: ") + error.what());
    if (outcome.attempted == 0) outcome.attempted = 1;
  }
  for (const std::string& note : outcome.notes) std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  if (!outcome.raw.empty()) {
    std::printf("%s\n", wsx::json::ObjectWriter{}
                            .raw_field("raw", metrics_json(outcome.raw))
                            .raw_field("host", metrics_json(outcome.host))
                            .str()
                            .c_str());
  }
  std::printf("%s\n", result_line(outcome, outcome.failed == 0).c_str());
  return 0;
}
