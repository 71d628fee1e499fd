// bench.hpp — shared vocabulary of the perfbench harness: run options, the
// result every workload fills in, and the clock and memory probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. Interop errors, deployment refusals and chaos
/// fault outcomes are measured results; `failed` counts only operations
/// whose output differs from the expected one (or that threw).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> raw;         ///< timings before host normalisation
  std::vector<Metric> host;        ///< the host reference behind it
  std::vector<std::string> notes;  ///< why an operation failed, for stderr

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::uint64_t ops, std::string why) {
    failed += ops;
    notes.push_back(std::move(why));
  }
};

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

/// Worker count for the N-worker passes: every hardware thread.
inline std::size_t workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Process high-water resident set size, in MiB.
double peak_rss_mb();

// Workloads (end-to-end metrics, tracing off).
Outcome run_study(const Options& options);
Outcome run_chaos(const Options& options);
Outcome run_serve(const Options& options);

// Traced run: times calls into each layer's public functions. Every traced
// run reports the whole layer table, whichever workload it names.
void study_layers(const Options& options, Outcome& outcome);
void chaos_layers(const Options& options, Outcome& outcome);
void serve_layers(const Options& options, Outcome& outcome);

}  // namespace perfbench
