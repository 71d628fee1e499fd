// pool_grain_test — parallel_slices with a grain (slices_per_worker > 1),
// the fine-grained partition the study and chaos campaigns use to balance
// uneven per-item cost: slices still arrive in order, cover [0, count)
// exactly once, are counted one pool task each, and a single worker still
// runs every slice inline.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "common/pool.hpp"

namespace wsx {
namespace {

using Range = std::pair<std::size_t, std::size_t>;

std::vector<Range> ranges(std::size_t count, std::size_t workers, std::size_t grain,
                          PoolStats* stats = nullptr) {
  return parallel_slices(
      count, workers, [](std::size_t begin, std::size_t end) { return Range{begin, end}; },
      stats, grain);
}

TEST(ParallelSlicesGrain, SlicesArriveInOrderAndTileTheRange) {
  for (const std::size_t count : {std::size_t{1}, std::size_t{37}, std::size_t{1000}}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      const std::vector<Range> slices = ranges(count, workers, kBalancedGrain);
      ASSERT_FALSE(slices.empty());
      std::size_t expected_begin = 0;
      for (const Range& slice : slices) {
        EXPECT_EQ(slice.first, expected_begin) << count << " items, " << workers << " workers";
        EXPECT_LT(slice.first, slice.second);
        expected_begin = slice.second;
      }
      EXPECT_EQ(expected_begin, count);
    }
  }
}

TEST(ParallelSlicesGrain, CoverageIsExact) {
  std::vector<std::atomic<int>> seen(1009);
  (void)parallel_slices(
      seen.size(), 3,
      [&seen](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) seen[i].fetch_add(1);
        return end - begin;
      },
      nullptr, kBalancedGrain);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i].load(), 1) << i;
}

TEST(ParallelSlicesGrain, TasksRunEqualsTheSliceCount) {
  PoolStats stats;
  const std::vector<Range> slices = ranges(1024, 4, kBalancedGrain, &stats);
  EXPECT_EQ(slices.size(), 4 * kBalancedGrain);
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_EQ(stats.tasks_run, slices.size());
  EXPECT_EQ(stats.tasks_failed, 0u);

  // Uneven counts round the slice size up, so the grain is approximate.
  PoolStats uneven;
  const std::vector<Range> rounded = ranges(1000, 3, kBalancedGrain, &uneven);
  EXPECT_LE(rounded.size(), 3 * kBalancedGrain);
  EXPECT_GT(rounded.size(), 2 * kBalancedGrain);
  EXPECT_EQ(uneven.tasks_run, rounded.size());

  // Fewer items than grain × workers: one item per slice, never empty ones.
  PoolStats small;
  const std::vector<Range> few = ranges(10, 4, kBalancedGrain, &small);
  EXPECT_EQ(few.size(), 10u);
  EXPECT_EQ(small.tasks_run, 10u);
}

TEST(ParallelSlicesGrain, SingleWorkerRunsEverySliceInline) {
  PoolStats stats;
  const std::thread::id main_thread = std::this_thread::get_id();
  const std::vector<bool> inline_flags = parallel_slices(
      200, 1,
      [main_thread](std::size_t, std::size_t) {
        return std::this_thread::get_id() == main_thread;
      },
      &stats, kBalancedGrain);
  ASSERT_EQ(inline_flags.size(), kBalancedGrain);
  for (const bool on_main : inline_flags) EXPECT_TRUE(on_main);
  EXPECT_EQ(stats.workers, 1u);
  EXPECT_EQ(stats.tasks_run, kBalancedGrain);
  EXPECT_EQ(stats.max_queue_depth, 0u);
}

TEST(ParallelSlicesGrain, DefaultGrainKeepsOneSlicePerWorker) {
  PoolStats stats;
  EXPECT_EQ(ranges(100, 4, 1, &stats).size(), 4u);
  EXPECT_EQ(stats.tasks_run, 4u);
  EXPECT_EQ(ranges(100, 4, 0).size(), 4u);  // 0 is treated as 1
}

}  // namespace
}  // namespace wsx
