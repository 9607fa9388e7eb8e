#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"

namespace isobar {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&done] { ++done; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPoolTest, SubmitDeliversReturnValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, SingleWorkerPreservesFifoOrder) {
  // With one worker, tasks also *finish* in submission order: the worker
  // takes the front of the one queue every time.
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mutex;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i, &order, &mutex] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
    }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, TasksStartInSubmissionOrder) {
  // The in-order consumers (the container writer, Decompress) wait on the
  // oldest task first, so the oldest task must start first. Both workers
  // are held by gate tasks while 50 tasks queue up; one gate opens, its
  // worker runs all 50 alone, and they must start in order 0..49.
  ThreadPool pool(2);
  std::promise<void> open_first;
  std::promise<void> open_second;
  std::shared_future<void> first_gate = open_first.get_future().share();
  std::shared_future<void> second_gate = open_second.get_future().share();
  std::atomic<int> gates_started{0};
  std::atomic<bool> first_taken{false};
  auto gate = [&] {
    const bool first = !first_taken.exchange(true);
    ++gates_started;
    (first ? first_gate : second_gate).wait();
  };
  std::future<void> gate_a = pool.Submit(gate);
  std::future<void> gate_b = pool.Submit(gate);
  while (gates_started.load() < 2) std::this_thread::yield();

  std::mutex mutex;
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([i, &order, &mutex] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
    }));
  }
  open_first.set_value();
  for (auto& f : futures) f.get();
  open_second.set_value();
  gate_a.get();
  gate_b.get();

  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, NestedSubmitCompletes) {
  // One task fans 32 subtasks into the pool from inside a worker, then
  // blocks in get(): the subtasks queue behind it and the other workers
  // run them. The accounting below holds whatever the interleaving.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.Submit([&pool, &done] {
      std::vector<std::future<void>> subtasks;
      for (int i = 0; i < 32; ++i) {
        subtasks.push_back(pool.Submit([&done] {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          ++done;
        }));
      }
      for (auto& f : subtasks) f.get();
    }).get();
  EXPECT_EQ(done.load(), 32);

  const ThreadPool::StatsSnapshot stats = pool.Stats();
  // Accounting invariant: after every future resolved, each submitted
  // task ran exactly once, somewhere.
  EXPECT_EQ(stats.tasks_submitted, 33u);
  EXPECT_EQ(stats.TotalExecuted(), 33u);
  ASSERT_EQ(stats.workers.size(), 4u);
}

TEST(ThreadPoolTest, StatsAccountingMatchesSubmissions) {
  // The scheduling tallies are unconditional (no telemetry needed): after
  // every future resolves, submitted == executed and the per-worker split
  // sums to the total.
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i; }));
  }
  for (auto& f : futures) f.get();
  const ThreadPool::StatsSnapshot stats = pool.Stats();
  EXPECT_EQ(stats.tasks_submitted, 100u);
  EXPECT_EQ(stats.TotalExecuted(), 100u);
  ASSERT_EQ(stats.workers.size(), 3u);
  uint64_t per_worker_sum = 0;
  for (const auto& worker : stats.workers) {
    per_worker_sum += worker.tasks_executed;
  }
  EXPECT_EQ(per_worker_sum, 100u);
}

TEST(ThreadPoolTest, DestroyedPoolPublishesItsTallies) {
  if (!telemetry::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telemetry::SetEnabled(true);
  // The registry is process-global and counters accumulate, so read
  // deltas across one scoped pool.
  auto counter = [](const char* name) -> uint64_t {
    const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
    const auto* found = snapshot.FindCounter(name);
    return found == nullptr ? 0 : found->value;
  };
  auto latency_count = [] {
    const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
    const auto* found = snapshot.FindHistogram("pool.submit_to_start.nanos");
    return found == nullptr ? uint64_t{0} : found->count;
  };
  const uint64_t submitted_before = counter("pool.tasks_submitted");
  const uint64_t executed_before = counter("pool.tasks_executed");
  const uint64_t latency_before = latency_count();
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 10; ++i) futures.push_back(pool.Submit([] {}));
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(counter("pool.tasks_submitted") - submitted_before, 10u);
  EXPECT_EQ(counter("pool.tasks_executed") - executed_before, 10u);
  EXPECT_NE(telemetry::MetricsRegistry::Global().Snapshot().FindHistogram(
                "pool.worker.idle_nanos"),
            nullptr);
  // Submit-to-start latency was observed for every task (telemetry was on
  // when they were submitted).
  EXPECT_GE(latency_count() - latency_before, 10u);
  telemetry::SetEnabled(false);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto future =
      pool.Submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);

  // The worker survives the throwing task and keeps serving.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ++done;
      });
    }
    // Destruction must complete every queued task before joining.
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, ClampsDegenerateSizes) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

class ResolveNumThreadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* env = std::getenv("ISOBAR_TEST_THREADS");
    if (env != nullptr) saved_ = env;
    unsetenv("ISOBAR_TEST_THREADS");
  }
  void TearDown() override {
    if (saved_.empty()) {
      unsetenv("ISOBAR_TEST_THREADS");
    } else {
      setenv("ISOBAR_TEST_THREADS", saved_.c_str(), 1);
    }
  }
  std::string saved_;
};

TEST_F(ResolveNumThreadsTest, ExplicitRequestWins) {
  EXPECT_EQ(ResolveNumThreads(3), 3u);
  setenv("ISOBAR_TEST_THREADS", "7", 1);
  EXPECT_EQ(ResolveNumThreads(3), 3u);  // env only applies to requested==0
}

TEST_F(ResolveNumThreadsTest, EnvHookDrivesDefault) {
  setenv("ISOBAR_TEST_THREADS", "5", 1);
  EXPECT_EQ(ResolveNumThreads(0), 5u);
}

TEST_F(ResolveNumThreadsTest, InvalidEnvFallsBackToHardware) {
  setenv("ISOBAR_TEST_THREADS", "not-a-number", 1);
  EXPECT_GE(ResolveNumThreads(0), 1u);
  setenv("ISOBAR_TEST_THREADS", "0", 1);
  EXPECT_GE(ResolveNumThreads(0), 1u);
}

TEST_F(ResolveNumThreadsTest, CapsRunawayRequests) {
  EXPECT_LE(ResolveNumThreads(1000000), 256u);
  setenv("ISOBAR_TEST_THREADS", "99999", 1);
  EXPECT_LE(ResolveNumThreads(0), 256u);
}

}  // namespace
}  // namespace isobar
