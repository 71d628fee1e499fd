// Tests of the harness's own statistics and request generator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "requests.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(median({7}), 7);
  EXPECT_EQ(median({5, 1, 3}), 3);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles ten = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.median, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const Quartiles five = quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.median, 4.0);
  EXPECT_DOUBLE_EQ(five.q3, 12.0);
  // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
  const Quartiles two = quartiles({5, 3});
  EXPECT_DOUBLE_EQ(two.q1, 2.5);
  EXPECT_DOUBLE_EQ(two.median, 4.0);
  EXPECT_DOUBLE_EQ(two.q3, 5.5);
}

TEST(Stats, PercentileIsNearestRank) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  EXPECT_EQ(percentile(values, 99), 990.0);  // exactly 10 samples lie beyond
  EXPECT_EQ(percentile(values, 50), 500.0);
}

TEST(Stats, PercentileWithheldWithFewerThanTenSamplesBeyond) {
  std::vector<double> values;
  for (int i = 1; i <= 999; ++i) values.push_back(i);
  EXPECT_FALSE(percentile(values, 99).has_value());  // 9 beyond rank 990
  EXPECT_TRUE(percentile(values, 98).has_value());
  EXPECT_FALSE(percentile({}, 50).has_value());
  EXPECT_FALSE(percentile({1, 2, 3}, 50).has_value());
  EXPECT_TRUE(percentile({1, 2, 3}, 50, 0).has_value());
}

std::string frames(std::uint64_t seed, std::size_t count) {
  RequestStream stream(seed, {"Metro 2.3/EchoA", "Metro 2.3/EchoB", "WCF/EchoC"},
                       {"Apache CXF 2.7.6", "suds Python 0.4"}, {"<a/>", "<b/>"});
  std::string out;
  for (std::size_t i = 0; i < count; ++i) out += serve::frame(serve::encode_request(stream.next()));
  return out;
}

TEST(Requests, SameSeedGivesByteIdenticalSequence) {
  EXPECT_EQ(frames(7, 5000), frames(7, 5000));
}

TEST(Requests, DifferentSeedGivesDifferentSequence) {
  EXPECT_NE(frames(7, 5000), frames(8, 5000));
}

TEST(Requests, MixAndSpacingStayInsideDefaultAdmission) {
  RequestStream stream(11, {"S/A", "S/B"}, {"c"}, {"<a/>"});
  std::size_t counts[5] = {};
  std::size_t last_lint = 0, last_substitute = 0;
  constexpr std::size_t kCount = 100000;
  serve::AdmissionController admission;
  for (std::size_t i = 1; i <= kCount; ++i) {
    const serve::Request request = stream.next();
    ++counts[static_cast<std::size_t>(request.kind)];
    if (request.kind == serve::QueryKind::kLint) {
      if (last_lint != 0) {
        EXPECT_GE(i - last_lint, kLintSpacing);
      }
      last_lint = i;
    }
    if (request.kind == serve::QueryKind::kSubstitute) {
      if (last_substitute != 0) {
        EXPECT_GE(i - last_substitute, kSubstituteSpacing);
      }
      last_substitute = i;
    }
    // TcpServer clocks one virtual millisecond per request.
    ASSERT_EQ(admission.admit(request.kind, i).status, serve::StatusCode::kOk) << "request " << i;
  }
  const auto share = [&](serve::QueryKind kind) {
    return 100.0 * static_cast<double>(counts[static_cast<std::size_t>(kind)]) / kCount;
  };
  EXPECT_GT(share(serve::QueryKind::kVerdict), 55);
  EXPECT_GT(share(serve::QueryKind::kExplain), 25);
  EXPECT_GT(share(serve::QueryKind::kSubstitute), 2);
  EXPECT_GT(share(serve::QueryKind::kLint), 1);
  EXPECT_EQ(counts[static_cast<std::size_t>(serve::QueryKind::kStats)], 0u);
}

}  // namespace
}  // namespace perfbench
