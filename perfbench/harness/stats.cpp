#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    const double only = values.empty() ? 0 : values.front();
    return {only, only, only};
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): cut point i of n sits at
  // position i*(len+1)/n, interpolated between its neighbours.
  const auto cut = [&](std::size_t i) {
    constexpr std::size_t kN = 4;
    const std::size_t m = values.size() + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / kN, 1, values.size() - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * kN);
    return (values[j - 1] * (kN - delta) + values[j] * delta) / kN;
  };
  return {cut(1), cut(2), cut(3)};
}

std::optional<double> percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond) {
  if (values.empty() || p <= 0 || p >= 100) return std::nullopt;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size()) / 100.0));
  if (values.size() - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

}  // namespace perfbench
