// hostref.hpp — the host-speed reference the timings are normalised by.
//
// The benchmark host is shared. Its memory system's speed drifts by 30-60%
// over minutes as other tenants come and go, while a pure ALU loop moves by
// about 5%, so raw wall-clock figures from two sets of runs a few minutes
// apart can disagree by more than any useful bound. The reference is fixed,
// program-independent work with the program's memory profile: short
// strings built, sorted and counted in a hash map. It is timed between the
// measured passes, on one thread and on every worker at once. A reported
// duration is its raw value divided by (mean reference time / nominal
// reference time), and a rate is multiplied by it. A change to the program
// moves the timings but not the reference; the raw values and the factors
// are printed beside the result.
#pragma once

#include <vector>

namespace perfbench {

struct Outcome;

/// Reference times on the calibration host (4-vCPU Xeon, gcc 12.2,
/// Release) in a quiet period. They only set the scale of the reported
/// values.
inline constexpr double kNominalChurn1tSeconds = 0.100;
inline constexpr double kNominalChurnNtSeconds = 0.160;

class HostReference {
 public:
  /// Times the reference once on one thread, then once on every worker,
  /// in a child process (waited for before returning).
  void sample();

  /// Mean reference time ÷ nominal: above 1 when the host is slower than
  /// when calibrated.
  double factor_1t() const;
  double factor_nt() const;

  /// Adds `value` to `outcome.metrics` divided by `factor` (a duration) or
  /// multiplied by it (a rate), and the raw value to `outcome.raw`.
  static void add_duration(Outcome& outcome, const char* name, double value, const char* unit,
                           double factor);
  static void add_rate(Outcome& outcome, const char* name, double value, const char* unit,
                       double factor);

  /// Records the mean reference times and both factors in `outcome.host`.
  void report(Outcome& outcome) const;

 private:
  std::vector<double> one_;
  std::vector<double> all_;
};

}  // namespace perfbench
