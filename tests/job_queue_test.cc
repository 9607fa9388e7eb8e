#include "server/job_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/container.h"
#include "core/isobar.h"
#include "util/bytes.h"

namespace isobar::server {
namespace {

Bytes RampBytes(size_t elements, size_t width) {
  Bytes data(elements * width, 0);
  for (size_t i = 0; i < elements; ++i) {
    data[i * width] = static_cast<uint8_t>(i & 0x3F);
  }
  return data;
}

JobRequest CompressRequest(size_t elements = 512) {
  JobRequest request;
  request.kind = JobKind::kCompress;
  request.input = RampBytes(elements, 8);
  request.width = 8;
  request.compress_options.eupa.forced_codec = CodecId::kZlib;
  request.compress_options.eupa.forced_linearization = Linearization::kColumn;
  return request;
}

TEST(JobQueueTest, ExecutesCompressAndDecompressRoundTrip) {
  JobQueueOptions options;
  options.num_threads = 2;
  JobQueue queue(options);

  const JobRequest compress = CompressRequest();
  std::mutex mutex;
  JobResult compress_result;
  std::atomic<bool> done{false};
  ASSERT_EQ(queue.Submit(1, compress,
                         [&](JobResult result) {
                           std::lock_guard<std::mutex> lock(mutex);
                           compress_result = std::move(result);
                           done = true;
                         }),
            Admission::kAdmitted);
  queue.WaitIdle();
  ASSERT_TRUE(done.load());
  ASSERT_TRUE(compress_result.status.ok())
      << compress_result.status.ToString();
  EXPECT_GT(compress_result.exec_nanos, 0);
  EXPECT_GE(compress_result.queue_nanos, 0);

  JobRequest decompress;
  decompress.kind = JobKind::kDecompress;
  decompress.input = compress_result.output;
  JobResult decompress_result;
  done = false;
  ASSERT_EQ(queue.Submit(1, decompress,
                         [&](JobResult result) {
                           std::lock_guard<std::mutex> lock(mutex);
                           decompress_result = std::move(result);
                           done = true;
                         }),
            Admission::kAdmitted);
  queue.WaitIdle();
  ASSERT_TRUE(done.load());
  ASSERT_TRUE(decompress_result.status.ok());
  EXPECT_EQ(decompress_result.output, compress.input);

  const auto stats = queue.Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected_total(), 0u);
}

TEST(JobQueueTest, ExecuteJobMatchesDirectLibraryCall) {
  const JobRequest request = CompressRequest();
  const JobResult via_queue = JobQueue::ExecuteJob(request);
  ASSERT_TRUE(via_queue.status.ok());

  CompressOptions direct_options = request.compress_options;
  direct_options.num_threads = 1;
  IsobarCompressor compressor(direct_options);
  auto direct = compressor.Compress(request.input, request.width);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_queue.output, *direct);
}

TEST(JobQueueTest, FailedJobReportsStatusThroughCallback) {
  JobQueueOptions options;
  options.num_threads = 1;
  JobQueue queue(options);

  JobRequest bad;
  bad.kind = JobKind::kDecompress;
  bad.input = RampBytes(16, 8);  // Not a container.
  JobResult result;
  std::atomic<bool> done{false};
  ASSERT_EQ(queue.Submit(1, bad,
                         [&](JobResult r) {
                           result = std::move(r);
                           done = true;
                         }),
            Admission::kAdmitted);
  queue.WaitIdle();
  ASSERT_TRUE(done.load());
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(queue.Stats().failed, 1u);
}

// The deterministic saturation story: Pause() freezes dispatch, so
// admission fills the bounded queue to exactly max_queue_depth, the next
// submit is shed with kQueueFull, and Resume() drains everything — no
// sleeps, no timing assumptions.
TEST(JobQueueTest, QueueFillsToBoundThenShedsThenDrains) {
  JobQueueOptions options;
  options.num_threads = 2;
  options.max_queue_depth = 4;
  options.max_inflight_per_connection = 100;  // Not under test here.
  JobQueue queue(options);
  queue.Pause();

  std::atomic<uint64_t> completed{0};
  const auto on_done = [&](JobResult result) {
    ASSERT_TRUE(result.status.ok());
    ++completed;
  };

  // Paused: nothing dispatches, so every admitted job stays queued.
  for (size_t i = 0; i < options.max_queue_depth; ++i) {
    ASSERT_EQ(queue.Submit(/*connection_id=*/i, CompressRequest(64), on_done),
              Admission::kAdmitted)
        << "submit " << i;
  }
  EXPECT_EQ(queue.Stats().queue_depth, options.max_queue_depth);
  EXPECT_EQ(queue.Stats().running, 0u);

  // Bound reached: shed, and the rejection is accounted.
  EXPECT_EQ(queue.Submit(99, CompressRequest(64), on_done),
            Admission::kQueueFull);
  EXPECT_EQ(queue.Submit(100, CompressRequest(64), on_done),
            Admission::kQueueFull);
  EXPECT_EQ(queue.Stats().rejected_queue_full, 2u);
  EXPECT_EQ(completed.load(), 0u);

  // Drain, then the queue accepts again.
  queue.Resume();
  queue.WaitIdle();
  EXPECT_EQ(completed.load(), options.max_queue_depth);
  EXPECT_EQ(queue.Stats().queue_depth, 0u);
  EXPECT_EQ(queue.Submit(101, CompressRequest(64), on_done),
            Admission::kAdmitted);
  queue.WaitIdle();
  EXPECT_EQ(completed.load(), options.max_queue_depth + 1);
  EXPECT_EQ(queue.Stats().queue_depth_high_water, options.max_queue_depth);
}

TEST(JobQueueTest, PerConnectionLimitShedsGreedyClient) {
  JobQueueOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 100;
  options.max_inflight_per_connection = 3;
  JobQueue queue(options);
  queue.Pause();

  std::atomic<uint64_t> completed{0};
  const auto on_done = [&](JobResult) { ++completed; };

  for (size_t i = 0; i < options.max_inflight_per_connection; ++i) {
    ASSERT_EQ(queue.Submit(/*connection_id=*/7, CompressRequest(64), on_done),
              Admission::kAdmitted);
  }
  // The greedy connection is capped...
  EXPECT_EQ(queue.Submit(7, CompressRequest(64), on_done),
            Admission::kConnectionLimit);
  EXPECT_EQ(queue.Stats().rejected_connection_limit, 1u);
  // ...but another connection is still welcome.
  EXPECT_EQ(queue.Submit(8, CompressRequest(64), on_done),
            Admission::kAdmitted);

  queue.Resume();
  queue.WaitIdle();
  EXPECT_EQ(completed.load(), options.max_inflight_per_connection + 1);

  // Drained: the formerly-capped connection is admitted again.
  EXPECT_EQ(queue.Submit(7, CompressRequest(64), on_done),
            Admission::kAdmitted);
  queue.WaitIdle();
}

TEST(JobQueueTest, ShutdownRejectsNewWorkAndDrains) {
  JobQueueOptions options;
  options.num_threads = 2;
  JobQueue queue(options);
  queue.Pause();

  std::atomic<uint64_t> completed{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(queue.Submit(1, CompressRequest(64),
                           [&](JobResult) { ++completed; }),
              Admission::kAdmitted);
  }
  // Shutdown resumes a paused queue (drain must progress) and waits.
  queue.Shutdown();
  EXPECT_EQ(completed.load(), 3u);
  EXPECT_EQ(queue.Submit(1, CompressRequest(64), [](JobResult) {}),
            Admission::kShuttingDown);
  EXPECT_EQ(queue.Stats().rejected_shutdown, 1u);
  queue.Shutdown();  // Idempotent.
}

TEST(JobQueueTest, ManyConcurrentJobsAllComplete) {
  JobQueueOptions options;
  options.num_threads = 4;
  options.max_queue_depth = 1000;
  options.max_inflight_per_connection = 1000;
  JobQueue queue(options);

  constexpr int kJobs = 64;
  std::atomic<int> ok{0};
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_EQ(queue.Submit(static_cast<uint64_t>(i % 4), CompressRequest(256),
                           [&](JobResult result) {
                             if (result.status.ok()) ++ok;
                           }),
              Admission::kAdmitted);
  }
  queue.WaitIdle();
  EXPECT_EQ(ok.load(), kJobs);
  const auto stats = queue.Stats();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kJobs));
}

// Polls until every admitted job has completed, or `limit` passes. A job
// that never completes would hang WaitIdle() and the queue's destructor,
// so the exception tests wait here and leak the queue when it fails: the
// suite then fails instead of hanging.
bool DrainsWithin(const JobQueue& queue, std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  for (;;) {
    const JobQueue::StatsSnapshot stats = queue.Stats();
    if (stats.completed == stats.admitted && stats.running == 0 &&
        stats.queue_depth == 0) {
      return true;
    }
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// A 40-byte header-only v1 container that declares 2^60 + 1 eight-byte
// elements. Under kZeroFill, Decompress sizes the declared shape and
// throws std::length_error before it allocates anything.
Bytes HugeDeclaredShapeContainer() {
  container::Header header;
  header.version = container::kVersionV1;
  header.width = 8;
  header.element_count = (uint64_t{1} << 60) + 1;
  header.chunk_elements = uint64_t{1} << 25;
  header.chunk_count = (header.element_count + header.chunk_elements - 1) /
                       header.chunk_elements;
  Bytes bytes;
  container::AppendHeader(header, &bytes);
  return bytes;
}

TEST(JobQueueTest, ThrowingJobFailsAndQueueKeepsServing) {
  JobQueueOptions options;
  options.num_threads = 1;
  auto queue = std::make_unique<JobQueue>(options);

  JobRequest hostile;
  hostile.kind = JobKind::kDecompress;
  hostile.input = HugeDeclaredShapeContainer();
  ASSERT_EQ(hostile.input.size(), container::kHeaderSize);
  hostile.decompress_options.on_chunk_error = ChunkErrorPolicy::kZeroFill;
  std::mutex mutex;
  std::vector<Status> statuses;
  auto record = [&](JobResult result) {
    std::lock_guard<std::mutex> lock(mutex);
    statuses.push_back(result.status);
  };
  ASSERT_EQ(queue->Submit(1, hostile, record), Admission::kAdmitted);
  ASSERT_EQ(queue->Submit(1, CompressRequest(), record), Admission::kAdmitted);
  if (!DrainsWithin(*queue, std::chrono::seconds(20))) {
    (void)queue.release();
    FAIL() << "a throwing job wedged the queue";
  }
  const JobQueue::StatsSnapshot stats = queue->Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.running, 0u);
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].code(), StatusCode::kInternal);
  EXPECT_TRUE(statuses[1].ok()) << statuses[1].ToString();
}

TEST(JobQueueTest, ThrowingCallbackDoesNotStallQueue) {
  JobQueueOptions options;
  options.num_threads = 1;
  auto queue = std::make_unique<JobQueue>(options);

  std::atomic<bool> second_ok{false};
  ASSERT_EQ(queue->Submit(1, CompressRequest(),
                          [](JobResult) {
                            throw std::runtime_error("callback failed");
                          }),
            Admission::kAdmitted);
  ASSERT_EQ(queue->Submit(1, CompressRequest(),
                          [&](JobResult result) {
                            second_ok = result.status.ok();
                          }),
            Admission::kAdmitted);
  if (!DrainsWithin(*queue, std::chrono::seconds(20))) {
    (void)queue.release();
    FAIL() << "a throwing callback wedged the queue";
  }
  EXPECT_TRUE(second_ok.load());
  queue->WaitIdle();
  const JobQueue::StatsSnapshot stats = queue->Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);  // The throwing callback's job.
}

}  // namespace
}  // namespace isobar::server
