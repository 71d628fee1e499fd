// batch.hpp — the measurement loop the two batch workloads (`study`,
// `chaos`) share.
//
// A run is a sequence of rounds. Each round times the host reference,
// re-times the preparation phase twice, and runs one campaign pass at N
// workers and one at 1 worker. Spreading every measurement over the whole
// run puts drift in host speed on all metrics alike.
#pragma once

#include <cstddef>
#include <vector>

#include "bench.hpp"
#include "corpus.hpp"
#include "hostref.hpp"
#include "stats.hpp"

namespace perfbench {

struct BatchTimings {
  HostReference host;
  std::vector<double> setup_s;
  double wall_n = 0, wall_1 = 0;  ///< summed pass wall time, seconds
  std::size_t ops_n = 0, ops_1 = 0;
};

/// `pass(threads)` runs and checks one campaign pass, returning its ops.
template <typename Pass>
BatchTimings run_rounds(const Options& options, Pass pass) {
  constexpr std::size_t kInitialSetups = 5, kSetupsPerRound = 2;
  BatchTimings timings;
  timings.host.sample();
  for (std::size_t i = 0; i < kInitialSetups; ++i) timings.setup_s.push_back(prepare_seconds());
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < options.seconds) {
    timings.host.sample();
    for (std::size_t i = 0; i < kSetupsPerRound; ++i) timings.setup_s.push_back(prepare_seconds());
    Clock::time_point pass_start = Clock::now();
    timings.ops_n += pass(workers());
    timings.wall_n += seconds_since(pass_start);
    pass_start = Clock::now();
    timings.ops_1 += pass(1);
    timings.wall_1 += seconds_since(pass_start);
  }
  return timings;
}

/// The end-to-end metrics of a batch workload, in BENCHMARK.json order,
/// normalised by the host reference (the N-worker rate by the all-worker
/// reference, the rest by the one-thread one).
inline void add_batch_metrics(const BatchTimings& timings, Outcome& outcome) {
  const double one = timings.host.factor_1t(), all = timings.host.factor_nt();
  HostReference::add_duration(outcome, "setup_s", median(timings.setup_s), "s", one);
  HostReference::add_rate(outcome, "ops_per_s",
                          static_cast<double>(timings.ops_n) / timings.wall_n, "1/s", all);
  HostReference::add_rate(outcome, "ops_1t_per_s",
                          static_cast<double>(timings.ops_1) / timings.wall_1, "1/s", one);
  outcome.add("peak_rss_mb", peak_rss_mb(), "MiB");
  timings.host.report(outcome);
}

}  // namespace perfbench
