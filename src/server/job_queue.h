#ifndef ISOBAR_SERVER_JOB_QUEUE_H_
#define ISOBAR_SERVER_JOB_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string_view>
#include <utility>

#include "core/isobar.h"
#include "util/bytes.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace isobar::server {

/// One compression-service job: the async unit both the isobard request
/// handlers and any in-process batch driver share. A job is a complete
/// compress or decompress call — the server's per-request parallelism
/// comes from running many jobs concurrently, so each job executes the
/// serial pipeline (num_threads is forced to 1 at execution).
enum class JobKind : uint8_t {
  kCompress = 0,
  kDecompress = 1,
};

struct JobRequest {
  JobKind kind = JobKind::kCompress;
  Bytes input;
  size_t width = 8;  ///< Element width; compress only.
  CompressOptions compress_options;
  DecompressOptions decompress_options;
};

struct JobResult {
  Status status;
  Bytes output;
  CompressionStats compression;      ///< Filled for kCompress.
  DecompressionStats decompression;  ///< Filled for kDecompress.
  int64_t queue_nanos = 0;  ///< Admission to execution start.
  int64_t exec_nanos = 0;   ///< Execution start to completion.
};

/// Invoked exactly once per admitted job, from the worker thread that ran
/// it. Must not block for long — it sits between this job's completion
/// and the dispatch of the next queued one. If it throws, the job still
/// completes and is counted as failed.
using JobCallback = std::function<void(JobResult)>;

/// Admission verdict. Everything but kAdmitted is load shedding: the
/// caller gets the verdict synchronously (the server turns it into a
/// BUSY response) and the queue keeps no state about the request —
/// backpressure instead of unbounded buffering.
enum class Admission : uint8_t {
  kAdmitted = 0,
  kQueueFull = 1,        ///< Waiting-job bound reached.
  kConnectionLimit = 2,  ///< Submitter already has too many jobs in flight.
  kShuttingDown = 3,     ///< Queue is draining; nothing new admitted.
};

std::string_view AdmissionToString(Admission admission);

struct JobQueueOptions {
  /// Worker threads (ThreadPool); 0 resolves like CompressOptions.
  uint32_t num_threads = 0;

  /// Jobs admitted but not yet executing. Total resident jobs are
  /// bounded by max_queue_depth + worker count.
  size_t max_queue_depth = 64;

  /// Queued-plus-running jobs one connection may have; further submits
  /// from that connection are shed with kConnectionLimit so a single
  /// aggressive client cannot occupy the whole queue.
  size_t max_inflight_per_connection = 8;
};

/// Bounded job queue in front of the FIFO thread pool.
///
/// Submit() either admits the job (bounded FIFO) or rejects it
/// synchronously. A dispatcher hands queued jobs to the pool, at most one
/// per worker concurrently, so Pause() deterministically freezes
/// execution while admission keeps filling the queue — that is also what
/// the admission-control tests use to drive the queue to saturation
/// without timing races.
///
/// No exception escapes a job: ExecuteJob turns one into a failed
/// JobResult, and a job whose callback throws still completes (as
/// failed), so drain always progresses.
class JobQueue {
 public:
  explicit JobQueue(JobQueueOptions options = {});

  /// Drains: stops admitting, waits for queued + running jobs to finish.
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Runs one job synchronously on the calling thread — the single
  /// execution path shared by the queue's workers and by direct batch
  /// callers, so a served request and a library call cannot diverge. An
  /// exception from the pipeline becomes a kInternal status.
  static JobResult ExecuteJob(const JobRequest& request);

  /// Admits or rejects. On kAdmitted, `done` fires exactly once from a
  /// worker thread; on any rejection `done` is never invoked.
  /// `connection_id` scopes the per-connection in-flight limit (use a
  /// stable id per client connection; any convention works).
  Admission Submit(uint64_t connection_id, JobRequest request,
                   JobCallback done);

  /// Freezes dispatch: running jobs finish, queued jobs stay queued and
  /// admission stays open until the queue bound trips.
  void Pause();
  void Resume();

  /// Stops admission (kShuttingDown) and waits for in-flight + queued
  /// jobs to drain. Idempotent. Implicitly resumes a paused queue —
  /// drain must make progress.
  void Shutdown();

  size_t worker_count() const { return pool_.size(); }
  const JobQueueOptions& options() const { return options_; }

  /// Point-in-time accounting. Kept as plain tallies under the queue
  /// lock (admission is not a per-byte hot path), so the numbers are
  /// exact and available even in ISOBAR_TELEMETRY=OFF builds.
  struct StatsSnapshot {
    uint64_t admitted = 0;
    uint64_t completed = 0;
    /// Completed with a non-OK JobResult::status, or whose callback
    /// threw.
    uint64_t failed = 0;
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_connection_limit = 0;
    uint64_t rejected_shutdown = 0;
    uint64_t queue_depth = 0;        ///< Currently queued, not running.
    uint64_t running = 0;            ///< Currently executing.
    uint64_t queue_depth_high_water = 0;

    uint64_t rejected_total() const {
      return rejected_queue_full + rejected_connection_limit +
             rejected_shutdown;
    }
  };
  StatsSnapshot Stats() const;

  /// Blocks until no job is queued or running (admission stays open —
  /// use for test synchronization, not shutdown).
  void WaitIdle();

 private:
  struct PendingJob {
    uint64_t connection_id = 0;
    JobRequest request;
    JobCallback done;
    int64_t admitted_nanos = 0;
  };

  void DispatchLocked();
  void RunJob(PendingJob job);

  JobQueueOptions options_;
  ThreadPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::deque<PendingJob> pending_;
  std::map<uint64_t, size_t> inflight_per_connection_;
  size_t running_ = 0;
  bool paused_ = false;
  bool shutdown_ = false;
  StatsSnapshot tally_;  ///< queue_depth/running mirrors kept coherent under mutex_.
};

}  // namespace isobar::server

#endif  // ISOBAR_SERVER_JOB_QUEUE_H_
