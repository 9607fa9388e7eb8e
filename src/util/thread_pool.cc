#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/timeline.h"

namespace isobar {
namespace {

/// Hard ceiling on worker counts so a typo'd --threads=100000 cannot
/// exhaust process resources.
constexpr size_t kMaxThreads = 256;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, std::min(num_threads, kMaxThreads));
  stats_.workers.resize(n);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { RunWorker(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  PublishStats();
}

void ThreadPool::Push(std::function<void()> task) {
  Item item;
  item.fn = std::move(task);
  // Clock read only when someone is listening; a zero timestamp tells the
  // pop side to skip the latency sample.
  if (telemetry::Enabled()) item.submit_nanos = telemetry::MonotonicNanos();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(item));
    ++stats_.tasks_submitted;
  }
  wake_cv_.notify_one();
}

void ThreadPool::RunWorker(size_t index) {
  if constexpr (telemetry::kCompiledIn) {
    char name[32];
    std::snprintf(name, sizeof(name), "worker-%zu", index);
    telemetry::Timeline::SetCurrentThreadName(name);
  }
  static const telemetry::SpanSite task_site("pool.task");
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (tasks_.empty() && !stop_) {
        const auto idle_start = std::chrono::steady_clock::now();
        wake_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        stats_.workers[index].idle_nanos += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - idle_start)
                .count());
      }
      // Drain before stopping: a worker leaves only once the queue is
      // empty, so every submitted task runs.
      if (tasks_.empty()) return;
      item = std::move(tasks_.front());
      tasks_.pop_front();
      // Tally before running: fn() fulfills the task's future, and a
      // caller returning from get() may snapshot stats immediately — the
      // count must already be there.
      ++stats_.workers[index].tasks_executed;
    }
    if (item.submit_nanos != 0 && telemetry::Enabled()) {
      static telemetry::Histogram& latency =
          telemetry::GetHistogram("pool.submit_to_start.nanos");
      const int64_t waited = telemetry::MonotonicNanos() - item.submit_nanos;
      latency.Observe(static_cast<uint64_t>(waited < 0 ? 0 : waited));
    }
    // With the timeline on this puts one pool.task slice per task on this
    // worker's track, so the gaps between slices *are* the worker's idle
    // time. The task and its captures die at the end of the iteration,
    // outside the lock.
    telemetry::ScopedSpan task_span(task_site);
    item.fn();
  }
}

uint64_t ThreadPool::StatsSnapshot::TotalExecuted() const {
  uint64_t total = 0;
  for (const Worker& w : workers) total += w.tasks_executed;
  return total;
}

uint64_t ThreadPool::StatsSnapshot::TotalIdleNanos() const {
  uint64_t total = 0;
  for (const Worker& w : workers) total += w.idle_nanos;
  return total;
}

ThreadPool::StatsSnapshot ThreadPool::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ThreadPool::PublishStats() const {
  if (!telemetry::Enabled()) return;
  static telemetry::Counter& submitted =
      telemetry::GetCounter("pool.tasks_submitted");
  static telemetry::Counter& executed =
      telemetry::GetCounter("pool.tasks_executed");
  static telemetry::Counter& idle = telemetry::GetCounter("pool.idle_nanos");
  static telemetry::Histogram& worker_idle =
      telemetry::GetHistogram("pool.worker.idle_nanos");
  const StatsSnapshot stats = Stats();
  submitted.Add(stats.tasks_submitted);
  executed.Add(stats.TotalExecuted());
  idle.Add(stats.TotalIdleNanos());
  for (const auto& w : stats.workers) worker_idle.Observe(w.idle_nanos);
}

size_t ResolveNumThreads(uint32_t requested) {
  if (requested > 0) {
    return std::min<size_t>(requested, kMaxThreads);
  }
  if (const char* env = std::getenv("ISOBAR_TEST_THREADS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) return std::min<size_t>(value, kMaxThreads);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<size_t>(hw, kMaxThreads);
}

}  // namespace isobar
