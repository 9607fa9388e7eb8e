#ifndef ISOBAR_UTIL_THREAD_POOL_H_
#define ISOBAR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace isobar {

/// Fixed-size thread pool with one FIFO queue, sized for the chunk
/// pipeline: a handful of coarse, independent CPU-bound tasks in flight
/// per worker, submitted from outside the pool and consumed in submission
/// order (the container writer's window, Decompress's record loop, the
/// job queue's dispatcher).
///
/// Scheduling discipline: one mutex-guarded deque and one condition
/// variable. Every submission goes to the back and an idle worker takes
/// the front, so tasks *start* in submission order. That is the order an
/// in-order consumer waits in: the chunk it needs first is also the first
/// to run, never overtaken by a newer one. A task may submit further
/// tasks; they queue behind everything submitted before them.
///
/// Tasks run to completion; the pool never aborts a running task.
/// Destruction drains every queued task first, then joins, then folds the
/// pool's tallies into the global metrics registry.
///
/// Exceptions thrown by a task are captured into the future returned by
/// Submit (the worker thread never terminates the process).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains all queued tasks, joins every worker, then publishes the
  /// tallies (see PublishStats).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return threads_.size(); }

  /// Point-in-time scheduling tallies. They are kept unconditionally,
  /// under the queue lock each task already takes, so they cost nothing
  /// measurable and stay meaningful even in ISOBAR_TELEMETRY=OFF builds;
  /// only the submit-to-start latency histogram (which needs clock reads
  /// on the hot path) is telemetry-gated.
  ///
  /// Accounting invariant: after all submitted futures resolved,
  /// tasks_submitted == sum of workers[i].tasks_executed.
  struct StatsSnapshot {
    struct Worker {
      uint64_t tasks_executed = 0;
      /// Time spent asleep waiting for work.
      uint64_t idle_nanos = 0;
    };

    uint64_t tasks_submitted = 0;
    std::vector<Worker> workers;

    uint64_t TotalExecuted() const;
    uint64_t TotalIdleNanos() const;
  };

  /// Safe to call at any time, including while tasks run.
  StatsSnapshot Stats() const;

  /// Schedules `fn` and returns a future for its result. `fn` must be
  /// invocable with no arguments; its return value (or exception) is
  /// delivered through the future.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // std::function requires copyable callables; packaged_task is move-only,
    // so it rides behind a shared_ptr.
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Push([task] { (*task)(); });
    return future;
  }

 private:
  /// A queued task plus its submit timestamp (0 when telemetry was off at
  /// submit time — then no latency sample is recorded on pop).
  struct Item {
    std::function<void()> fn;
    int64_t submit_nanos = 0;
  };

  void Push(std::function<void()> task);
  void RunWorker(size_t index);

  /// Folds the final tallies into the global metrics registry: counters
  /// `pool.tasks_submitted` / `pool.tasks_executed` / `pool.idle_nanos`
  /// and the histogram `pool.worker.idle_nanos`, observed once per
  /// worker. Runs once, from the destructor; no-op when telemetry is
  /// disabled.
  void PublishStats() const;

  mutable std::mutex mutex_;  ///< Guards the queue, stop_ and stats_.
  std::condition_variable wake_cv_;
  std::deque<Item> tasks_;
  bool stop_ = false;
  StatsSnapshot stats_;

  std::vector<std::thread> threads_;  ///< Last: workers use the above.
};

/// Resolves a user-facing thread-count option to an actual worker count:
///   requested > 0   — that many threads (clamped to a sane maximum);
///   requested == 0  — the ISOBAR_TEST_THREADS environment variable if set
///                     to a positive integer (the CI hook that forces the
///                     test suite multi-threaded under TSan), otherwise
///                     std::thread::hardware_concurrency() (at least 1).
size_t ResolveNumThreads(uint32_t requested);

}  // namespace isobar

#endif  // ISOBAR_UTIL_THREAD_POOL_H_
