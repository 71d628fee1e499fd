// pool.hpp — the shared instrumented worker pool behind every campaign.
//
// Before this header existed, study, communication, chaos and lint-corpus
// each hand-rolled a std::async slice loop with its own worker-count
// arithmetic. They now all resolve thread counts through resolve_workers()
// (so `--jobs 0` / `threads=0` means the same thing everywhere) and run
// their slices on a WorkerPool, which counts tasks, failures and queue
// depth so the observability layer can report them.
//
// The pool is deliberately work-stealing-free: slices are fixed at submit
// time and merged in slice order, which is what keeps every campaign's
// output independent of the worker count.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace wsx {

/// Hard ceiling on explicit worker counts. Requests above this are a usage
/// error (a typo'd `--jobs 10000` would otherwise exhaust the process).
inline constexpr std::size_t kMaxWorkers = 256;

/// The one thread-count resolution rule: 0 means "ask the hardware", and
/// the result is always at least 1 (hardware_concurrency may report 0).
inline std::size_t resolve_workers(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

/// True when `requested` is an acceptable --jobs/threads value: 0 (auto)
/// or an explicit count no larger than kMaxWorkers.
inline bool valid_worker_count(std::size_t requested) { return requested <= kMaxWorkers; }

/// A parallel_slices grain for workloads whose per-item cost is uneven and
/// clusters by position: about this many ordered slices per worker.
inline constexpr std::size_t kBalancedGrain = 16;

/// What one pool run observed; feeds the obs metric registry.
struct PoolStats {
  std::size_t workers = 0;          ///< resolved thread count
  std::size_t tasks_run = 0;        ///< tasks that completed (failed included)
  std::size_t tasks_failed = 0;     ///< tasks that threw
  std::size_t max_queue_depth = 0;  ///< queued-tasks high-water mark
};

/// Thrown by WorkerPool::wait() when more than one task failed. A single
/// failure rethrows the original exception unchanged; multiple failures
/// would otherwise be silently collapsed to whichever happened first, so
/// they are aggregated here with every message preserved in task order.
class PoolError : public std::runtime_error {
 public:
  PoolError(std::string what, std::vector<std::string> messages)
      : std::runtime_error(std::move(what)), messages_(std::move(messages)) {}

  /// One message per failed task, in the order the failures were recorded.
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::vector<std::string> messages_;
};

/// Fixed-size thread pool. Tasks are run in FIFO order; a task that throws
/// records the exception (surfaced by wait()) instead of terminating, so a
/// failing slice can never hang or kill the campaign silently.
class WorkerPool {
 public:
  explicit WorkerPool(std::size_t requested_workers) {
    stats_.workers = resolve_workers(requested_workers);
    threads_.reserve(stats_.workers);
    for (std::size_t i = 0; i < stats_.workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  void submit(std::function<void()> task) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(task));
      ++pending_;
      if (queue_.size() > stats_.max_queue_depth) stats_.max_queue_depth = queue_.size();
    }
    wake_.notify_one();
  }

  /// Blocks until every submitted task has finished. A single task failure
  /// rethrows that exception unchanged; when several tasks failed, throws a
  /// PoolError aggregating every failure message so no error is dropped.
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return pending_ == 0; });
    if (errors_.empty()) return;
    const std::vector<std::exception_ptr> errors = std::move(errors_);
    errors_.clear();
    lock.unlock();
    if (errors.size() == 1) std::rethrow_exception(errors.front());
    std::vector<std::string> messages;
    messages.reserve(errors.size());
    for (const std::exception_ptr& error : errors) {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        messages.emplace_back(e.what());
      } catch (...) {
        messages.emplace_back("unknown exception");
      }
    }
    std::string what = std::to_string(messages.size()) + " pool tasks failed: ";
    for (std::size_t i = 0; i < messages.size(); ++i) {
      if (i != 0) what += "; ";
      what += messages[i];
    }
    throw PoolError(std::move(what), std::move(messages));
  }

  /// Stats snapshot; call after wait() for final numbers.
  PoolStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      bool drained = false;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.tasks_run;
        if (error != nullptr) {
          ++stats_.tasks_failed;
          // Moved, not copied: the local copy must be dead before the lock
          // drops, or its refcount release races wait()'s rethrow.
          errors_.push_back(std::move(error));
        }
        drained = --pending_ == 0;
      }
      if (drained) idle_.notify_all();
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;
  PoolStats stats_;
};

/// Runs `slice_fn(begin, end)` over [0, count) in contiguous slices — by
/// default one per worker, the partition every campaign previously computed
/// by hand — and returns the slice results *in slice order*, so merges are
/// deterministic for any worker count. The first exception a slice threw
/// is rethrown after all slices finish. `stats_out`, when non-null,
/// receives the pool's instrumentation.
///
/// `slices_per_worker` is the grain: how many ordered slices each worker
/// gets on average. Workloads whose per-item cost clusters by position
/// (the study's deploy refusals do) balance badly with one contiguous
/// slice per worker; a finer grain lets the FIFO pool hand the next slice
/// to whichever worker is free, while the results still arrive in slice
/// order.
template <typename F>
auto parallel_slices(std::size_t count, std::size_t requested_workers, F&& slice_fn,
                     PoolStats* stats_out = nullptr, std::size_t slices_per_worker = 1)
    -> std::vector<std::invoke_result_t<F&, std::size_t, std::size_t>> {
  using R = std::invoke_result_t<F&, std::size_t, std::size_t>;
  static_assert(!std::is_void_v<R>,
                "parallel_slices expects slice_fn to return its partial result");
  const std::size_t workers = std::min(resolve_workers(requested_workers),
                                       count == 0 ? std::size_t{1} : count);
  const std::size_t slices =
      std::min(workers * std::max<std::size_t>(1, slices_per_worker),
               count == 0 ? std::size_t{1} : count);
  const std::size_t chunk = count == 0 ? 1 : (count + slices - 1) / slices;

  std::vector<std::size_t> begins;
  for (std::size_t begin = 0; begin < count; begin += chunk) begins.push_back(begin);
  std::vector<R> results(begins.size());

  if (workers <= 1 || begins.size() <= 1) {
    // Run inline — same code path, no threads; stats still reported.
    for (std::size_t i = 0; i < begins.size(); ++i) {
      results[i] = slice_fn(begins[i], std::min(count, begins[i] + chunk));
    }
    if (stats_out != nullptr) {
      stats_out->workers = 1;
      stats_out->tasks_run = begins.size();
      stats_out->tasks_failed = 0;
      stats_out->max_queue_depth = 0;
    }
    return results;
  }

  WorkerPool pool(workers);
  for (std::size_t i = 0; i < begins.size(); ++i) {
    pool.submit([&, i] {
      results[i] = slice_fn(begins[i], std::min(count, begins[i] + chunk));
    });
  }
  pool.wait();
  if (stats_out != nullptr) *stats_out = pool.stats();
  return results;
}

}  // namespace wsx
