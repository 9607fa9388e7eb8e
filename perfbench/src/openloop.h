#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "server/job_queue.h"

namespace perfbench {

/// One request template of the service mix.
struct Job {
  bool compress = true;
  const Bytes* payload = nullptr;   ///< Raw bytes, or a container to decode.
  const Bytes* original = nullptr;  ///< Raw bytes a correct reply reproduces.
  size_t width = 8;
};

/// Open-loop schedule: arrivals at fixed intervals of 1/rate, each a
/// seeded, stratified draw of compress (compress_share of every ten
/// arrivals) or decompress and of the payload. Sends never wait for
/// replies, so a stall shows up as latency of every request due during it.
struct OpenLoopOptions {
  double rate = 100.0;  ///< Arrivals per second.
  double seconds = 1.0;
  uint64_t seed = 1;
  double compress_share = 0.7;
  size_t connections = 1;
  size_t ping_every = 0;  ///< Every k-th arrival is a PING (0: none).
  double reply_timeout_s = 20.0;
};

struct OpenLoopResult {
  /// Latency from the scheduled send time to the reply, per kind. Failed
  /// requests (BUSY, error, unanswered, wrong bytes) are recorded as a
  /// miss of reply_timeout_s.
  Samples compress_ms;
  Samples decompress_ms;
  Samples ping_us;   ///< PING round trips, from the actual send.
  Samples lag_ms;    ///< How late each send left against its schedule.
  Samples wait_ms;   ///< In-process queue only: submit to start.
  uint64_t requests = 0;       ///< Compress + decompress arrivals.
  uint64_t failed = 0;
  uint64_t busy = 0;
  uint64_t compress_in = 0;     ///< Raw bytes of compress requests.
  uint64_t compress_out = 0;    ///< Container bytes they returned.
  /// Send time of the last arrival to the last reply: a growing backlog
  /// keeps replies coming long after the schedule ends.
  double drain_ms = 0.0;
  std::vector<std::string> failures;
};

/// Drives an IsobarServer listening on `socket_path` through
/// server::Client connections: one pacing sender thread plus one reply
/// reader per connection. Every reply is verified after the run.
OpenLoopResult RunSocketOpenLoop(const std::string& socket_path,
                                 const std::vector<Job>& compress_jobs,
                                 const std::vector<Job>& decompress_jobs,
                                 const OpenLoopOptions& options);

/// Feeds the same kind of schedule straight into an in-process JobQueue
/// (no socket), recording queue wait and execution time per job.
OpenLoopResult RunQueueOpenLoop(isobar::server::JobQueue& queue,
                                const std::vector<Job>& compress_jobs,
                                const std::vector<Job>& decompress_jobs,
                                const OpenLoopOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
