// stats.hpp — the order statistics every perfbench metric is reported with.
//
// Timings are summarised by medians, and a tail percentile is reported only
// when at least ten samples lie beyond it (a p99 over 200 samples would be
// the second-largest sample, not a percentile). Quartiles use the method
// of Python's statistics.quantiles(values, n=4) — the definition the
// steadiness mode of run.py and the benchmark's acceptance runs apply — so
// figures printed here and there agree.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `values`; 0 for an empty set.
double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's statistics.quantiles. Fewer than two values yield that value
/// (or 0) for all three.
Quartiles quartiles(std::vector<double> values);

/// Nearest-rank percentile `p` (0 < p < 100): the smallest sample with at
/// least p% of the samples at or below it. Withheld (nullopt) when fewer
/// than `min_beyond` samples lie strictly above its rank.
std::optional<double> percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond = 10);

}  // namespace perfbench
