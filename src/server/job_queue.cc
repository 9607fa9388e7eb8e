#include "server/job_queue.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/stopwatch.h"

namespace isobar::server {

std::string_view AdmissionToString(Admission admission) {
  switch (admission) {
    case Admission::kAdmitted:
      return "admitted";
    case Admission::kQueueFull:
      return "queue-full";
    case Admission::kConnectionLimit:
      return "connection-limit";
    case Admission::kShuttingDown:
      return "shutting-down";
  }
  return "unknown";
}

JobQueue::JobQueue(JobQueueOptions options)
    : options_(options), pool_(ResolveNumThreads(options.num_threads)) {}

JobQueue::~JobQueue() { Shutdown(); }

JobResult JobQueue::ExecuteJob(const JobRequest& request) {
  JobResult result;
  Stopwatch timer;
  try {
    if (request.kind == JobKind::kCompress) {
      // One job = one serial pipeline; concurrency comes from sibling jobs
      // on other workers. A nested per-job pool would also deadlock-risk a
      // pool worker waiting on futures served by its own pool.
      CompressOptions opts = request.compress_options;
      opts.num_threads = 1;
      IsobarCompressor compressor(opts);
      auto compressed = compressor.Compress(request.input, request.width,
                                            &result.compression);
      if (compressed.ok()) {
        result.output = std::move(*compressed);
      } else {
        result.status = compressed.status();
      }
    } else {
      DecompressOptions opts = request.decompress_options;
      opts.num_threads = 1;
      auto decompressed = IsobarCompressor::Decompress(request.input, opts,
                                                       &result.decompression);
      if (decompressed.ok()) {
        result.output = std::move(*decompressed);
      } else {
        result.status = decompressed.status();
      }
    }
  } catch (const std::exception& e) {
    // A hostile request can make the pipeline throw (a container that
    // declares a terabyte of output sizes it and gets std::length_error
    // or std::bad_alloc). That fails this job, never the queue.
    result.status = Status::Internal(std::string("job threw: ") + e.what());
  } catch (...) {
    result.status = Status::Internal("job threw a non-standard exception");
  }
  result.exec_nanos = timer.ElapsedNanos();
  return result;
}

Admission JobQueue::Submit(uint64_t connection_id, JobRequest request,
                           JobCallback done) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) {
    ++tally_.rejected_shutdown;
    return Admission::kShuttingDown;
  }
  if (pending_.size() >= options_.max_queue_depth) {
    ++tally_.rejected_queue_full;
    return Admission::kQueueFull;
  }
  size_t& inflight = inflight_per_connection_[connection_id];
  if (inflight >= options_.max_inflight_per_connection) {
    ++tally_.rejected_connection_limit;
    return Admission::kConnectionLimit;
  }
  ++inflight;
  ++tally_.admitted;

  PendingJob job;
  job.connection_id = connection_id;
  job.request = std::move(request);
  job.done = std::move(done);
  job.admitted_nanos = telemetry::MonotonicNanos();
  pending_.push_back(std::move(job));
  tally_.queue_depth = pending_.size();
  tally_.queue_depth_high_water =
      std::max<uint64_t>(tally_.queue_depth_high_water, pending_.size());
  DispatchLocked();
  return Admission::kAdmitted;
}

void JobQueue::DispatchLocked() {
  while (!paused_ && running_ < pool_.size() && !pending_.empty()) {
    PendingJob job = std::move(pending_.front());
    pending_.pop_front();
    tally_.queue_depth = pending_.size();
    ++running_;
    tally_.running = running_;
    // The pool future is intentionally dropped: completion is delivered
    // through the job callback, and ~ThreadPool drains queued tasks.
    pool_.Submit([this, job = std::move(job)]() mutable {
      RunJob(std::move(job));
    });
  }
}

void JobQueue::RunJob(PendingJob job) {
  const int64_t started = telemetry::MonotonicNanos();
  JobResult result = ExecuteJob(job.request);
  result.queue_nanos = started - job.admitted_nanos;
  if (result.queue_nanos < 0) result.queue_nanos = 0;

  static telemetry::Histogram& queue_wait =
      telemetry::GetHistogram("server.queue_wait.nanos");
  queue_wait.Observe(static_cast<uint64_t>(result.queue_nanos));

  bool failed = !result.status.ok();
  // Deliver the result BEFORE the job is marked complete: Shutdown() and
  // WaitIdle() promise that every admitted job's callback has run by the
  // time they return (the server relies on this to flush every response
  // during drain), so the callback must precede the idle notification.
  try {
    if (job.done) job.done(std::move(result));
  } catch (...) {
    // The callback is the submitter's code. Its failure counts the job as
    // failed and must not skip the bookkeeping below, or running_ never
    // drops and the queue stalls.
    failed = true;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --running_;
    tally_.running = running_;
    ++tally_.completed;
    if (failed) ++tally_.failed;
    auto it = inflight_per_connection_.find(job.connection_id);
    if (it != inflight_per_connection_.end() && --it->second == 0) {
      inflight_per_connection_.erase(it);
    }
    DispatchLocked();
    if (pending_.empty() && running_ == 0) idle_cv_.notify_all();
  }
}

void JobQueue::Pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void JobQueue::Resume() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = false;
  DispatchLocked();
}

void JobQueue::Shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutdown_ = true;
  paused_ = false;
  DispatchLocked();
  idle_cv_.wait(lock, [this] { return pending_.empty() && running_ == 0; });
}

void JobQueue::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_.empty() && running_ == 0; });
}

JobQueue::StatsSnapshot JobQueue::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tally_;
}

}  // namespace isobar::server
