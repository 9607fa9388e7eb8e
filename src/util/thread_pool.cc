#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/timeline.h"

namespace isobar {
namespace {

/// Hard ceiling on worker counts so a typo'd --threads=100000 cannot
/// exhaust process resources.
constexpr size_t kMaxThreads = 256;

// Identifies the pool (and worker slot) owning the current thread, so
// Submit from inside a task can use the worker-local LIFO fast path.
thread_local ThreadPool* t_pool = nullptr;
thread_local size_t t_worker_index = 0;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, std::min(num_threads, kMaxThreads));
  queues_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { RunWorker(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::Push(std::function<void()> task) {
  Item item;
  item.fn = std::move(task);
  // Clock read only when someone is listening; a zero timestamp tells the
  // pop side to skip the latency sample.
  if (telemetry::Enabled()) item.submit_nanos = telemetry::MonotonicNanos();
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (t_pool == this) {
    // Spawned from inside a worker: front of the own deque (LIFO).
    WorkerQueue& queue = *queues_[t_worker_index];
    std::lock_guard<std::mutex> lock(queue.mutex);
    queue.tasks.push_front(std::move(item));
    const uint64_t depth = queue.tasks.size();
    if (depth > queue.deque_high_water.load(std::memory_order_relaxed)) {
      queue.deque_high_water.store(depth, std::memory_order_relaxed);
    }
  } else {
    size_t target;
    {
      std::lock_guard<std::mutex> lock(wake_mutex_);
      target = next_queue_;
      next_queue_ = (next_queue_ + 1) % queues_.size();
    }
    WorkerQueue& queue = *queues_[target];
    std::lock_guard<std::mutex> lock(queue.mutex);
    queue.tasks.push_back(std::move(item));
    const uint64_t depth = queue.tasks.size();
    if (depth > queue.deque_high_water.load(std::memory_order_relaxed)) {
      queue.deque_high_water.store(depth, std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    ++queued_;
  }
  wake_cv_.notify_one();
}

bool ThreadPool::TryPop(size_t index, Item* item) {
  WorkerQueue& own = *queues_[index];
  {
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      *item = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  // Steal from the back of a sibling's deque, scanning from the next
  // worker around the ring.
  for (size_t i = 1; i < queues_.size(); ++i) {
    WorkerQueue& victim = *queues_[(index + i) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      *item = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      own.steals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  if (queues_.size() > 1) {
    own.failed_steal_scans.fetch_add(1, std::memory_order_relaxed);
  }
  return false;
}

void ThreadPool::RunWorker(size_t index) {
  t_pool = this;
  t_worker_index = index;
  if constexpr (telemetry::kCompiledIn) {
    char name[32];
    std::snprintf(name, sizeof(name), "worker-%zu", index);
    telemetry::Timeline::SetCurrentThreadName(name);
  }
  static const telemetry::SpanSite task_site("pool.task");
  WorkerQueue& own = *queues_[index];
  for (;;) {
    Item item;
    if (TryPop(index, &item)) {
      {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        --queued_;
      }
      if (item.submit_nanos != 0 && telemetry::Enabled()) {
        static telemetry::Histogram& latency =
            telemetry::GetHistogram("pool.submit_to_start.nanos");
        const int64_t waited = telemetry::MonotonicNanos() - item.submit_nanos;
        latency.Observe(static_cast<uint64_t>(waited < 0 ? 0 : waited));
      }
      // Tally before running: fn() fulfills the task's future, and a
      // caller returning from get() may snapshot stats immediately — the
      // count must already be there.
      own.tasks_executed.fetch_add(1, std::memory_order_relaxed);
      {
        // With the timeline on this puts one pool.task slice per task on
        // this worker's track, so the gaps between slices *are* the
        // worker's idle/starvation.
        telemetry::ScopedSpan task_span(task_site);
        item.fn();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (queued_ > 0) continue;  // lost a pop race; retry immediately
    if (stop_) return;
    const auto idle_start = std::chrono::steady_clock::now();
    wake_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
    own.idle_nanos.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - idle_start)
                .count()),
        std::memory_order_relaxed);
    if (queued_ == 0 && stop_) return;
  }
}

uint64_t ThreadPool::StatsSnapshot::TotalExecuted() const {
  uint64_t total = 0;
  for (const Worker& w : workers) total += w.tasks_executed;
  return total;
}

uint64_t ThreadPool::StatsSnapshot::TotalSteals() const {
  uint64_t total = 0;
  for (const Worker& w : workers) total += w.steals;
  return total;
}

uint64_t ThreadPool::StatsSnapshot::TotalIdleNanos() const {
  uint64_t total = 0;
  for (const Worker& w : workers) total += w.idle_nanos;
  return total;
}

uint64_t ThreadPool::StatsSnapshot::MaxDequeHighWater() const {
  uint64_t max = 0;
  for (const Worker& w : workers) max = std::max(max, w.deque_high_water);
  return max;
}

ThreadPool::StatsSnapshot ThreadPool::Stats() const {
  StatsSnapshot snapshot;
  snapshot.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  snapshot.workers.reserve(queues_.size());
  for (const auto& queue : queues_) {
    StatsSnapshot::Worker worker;
    worker.tasks_executed =
        queue->tasks_executed.load(std::memory_order_relaxed);
    worker.steals = queue->steals.load(std::memory_order_relaxed);
    worker.failed_steal_scans =
        queue->failed_steal_scans.load(std::memory_order_relaxed);
    worker.idle_nanos = queue->idle_nanos.load(std::memory_order_relaxed);
    worker.deque_high_water =
        queue->deque_high_water.load(std::memory_order_relaxed);
    snapshot.workers.push_back(worker);
  }
  return snapshot;
}

void ThreadPool::PublishStats(std::string_view prefix) const {
  if (!telemetry::Enabled()) return;
  const StatsSnapshot stats = Stats();
  const std::string base(prefix);
  telemetry::GetCounter(base + ".tasks_submitted").Add(stats.tasks_submitted);
  telemetry::GetCounter(base + ".tasks_executed").Add(stats.TotalExecuted());
  telemetry::GetCounter(base + ".steals").Add(stats.TotalSteals());
  uint64_t failed = 0;
  for (const auto& w : stats.workers) failed += w.failed_steal_scans;
  telemetry::GetCounter(base + ".failed_steal_scans").Add(failed);
  telemetry::GetCounter(base + ".idle_nanos").Add(stats.TotalIdleNanos());
  telemetry::Histogram& idle = telemetry::GetHistogram(base + ".worker.idle_nanos");
  telemetry::Histogram& high_water =
      telemetry::GetHistogram(base + ".deque_high_water");
  for (const auto& w : stats.workers) {
    idle.Observe(w.idle_nanos);
    high_water.Observe(w.deque_high_water);
  }
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
