#ifndef ISOBAR_SERVER_SERVER_H_
#define ISOBAR_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "server/job_queue.h"
#include "server/protocol.h"
#include "util/status.h"

namespace isobar::server {

struct ServerOptions {
  /// Listening endpoint: exactly one of the two must be enabled.
  /// Non-empty → AF_UNIX stream socket at this path (an existing socket
  /// file is replaced).
  std::string unix_socket_path;
  /// True → TCP on 127.0.0.1:`tcp_port` (0 picks an ephemeral port;
  /// read it back with bound_tcp_port()).
  bool listen_tcp = false;
  uint16_t tcp_port = 0;

  /// Admission control (queue bound, per-connection limit, workers).
  JobQueueOptions jobs;

  /// Per-frame payload cap; a frame declaring more poisons its connection.
  uint64_t max_payload_bytes = kDefaultMaxPayloadBytes;

  /// Concurrent connections; excess accepts wait in the listen backlog.
  size_t max_connections = 64;

  /// How long the listener is parked after accept() fails with fd or
  /// buffer exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM). The listener stays
  /// readable in that state, so re-polling it immediately would spin the
  /// IO thread at 100% while starving the connections that could release
  /// fds; backing off lets in-flight work finish first.
  uint32_t accept_backoff_ms = 100;
};

/// isobard's engine: accepts pipelined compress/decompress jobs over a
/// Unix or TCP socket, admits them into the bounded JobQueue, and answers
/// out of order by request id as workers finish. One thread runs the
/// poll() event loop (accept, frame reassembly, flushing queued replies,
/// dropping connections); job execution happens on the queue's
/// thread pool. The worker that finished a job sends its reply
/// itself when nothing is queued ahead of it on that connection, and
/// wakes the loop through the wake pipe only when it left bytes queued
/// (a full socket) or a graceful drain is waiting on it.
///
/// Load shedding: when admission fails, the request is answered
/// immediately with a BUSY frame carrying the Admission verdict — the
/// server never buffers beyond the queue bound and never silently drops
/// an admitted request's reply.
class IsobarServer {
 public:
  explicit IsobarServer(ServerOptions options);

  /// Stop()s if still running.
  ~IsobarServer();

  IsobarServer(const IsobarServer&) = delete;
  IsobarServer& operator=(const IsobarServer&) = delete;

  /// Binds, listens, and starts the event loop thread.
  Status Start();

  /// Blocks until the server stops serving: a client's shutdown request
  /// drained, or Stop()/RequestStop() from another thread.
  void Wait();

  /// Stops accepting, closes connections, drains the job queue, joins.
  /// Idempotent; safe from any thread (not from a signal handler).
  void Stop();

  /// Async-signal-safe stop trigger (a single write() on the wake pipe):
  /// the daemon's SIGTERM/SIGINT handler calls this, then main's Wait()
  /// returns and runs the ordinary Stop() teardown.
  void RequestStop();

  /// Bound TCP port once Start() succeeded (listen_tcp only).
  uint16_t bound_tcp_port() const { return bound_tcp_port_; }

  /// The admission queue — exposed so tests can Pause()/Resume() it to
  /// drive deterministic saturation, and tools can read Stats().
  JobQueue& job_queue() { return *queue_; }

  /// The STATS response document: the global telemetry snapshot (per-op
  /// latency histograms, queue-wait distribution, pool counters) merged
  /// with the server's own always-on tallies (server.requests,
  /// server.queue_depth, server.rejected, ...), serialized with
  /// MetricsToJson — directly readable by `isobar_stat print`.
  std::string BuildStatsJson() const;

 private:
  struct Connection;

  void RunEventLoop();
  void AcceptConnections();
  void ReadFromConnection(const std::shared_ptr<Connection>& conn);
  bool FlushConnection(const std::shared_ptr<Connection>& conn);
  void DropConnection(uint64_t conn_id, bool protocol_error);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   Frame frame);
  /// Sends `frame` now when nothing is queued ahead of it, otherwise (or
  /// for whatever a full socket did not take) queues it for the IO
  /// thread. Callable from any thread. Returns true when bytes were
  /// queued, i.e. the IO thread has flushing to do.
  bool EnqueueResponse(const std::shared_ptr<Connection>& conn, Bytes frame);
  void Wake();
  void CloseListener();

  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t bound_tcp_port_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  std::thread io_thread_;
  std::mutex lifecycle_mutex_;

  /// Event-loop state (IO thread only once started).
  std::map<uint64_t, std::shared_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;
  /// A shutdown request was honored. Written by the IO thread, read by
  /// completion callbacks deciding whether the loop needs a wake.
  std::atomic<bool> draining_{false};
  /// Listener parked until this instant after accept() hit resource
  /// exhaustion (IO thread only).
  std::chrono::steady_clock::time_point accept_backoff_until_{};

  std::atomic<bool> stop_requested_{false};
  /// Admitted jobs whose response frame is not yet enqueued; graceful
  /// shutdown waits for this to hit zero plus all outbound flushed.
  std::atomic<uint64_t> inflight_responses_{0};

  /// Always-on tallies (exact, telemetry-independent), merged into the
  /// STATS document alongside the JobQueue's own accounting.
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> requests_ping_{0};
  std::atomic<uint64_t> requests_compress_{0};
  std::atomic<uint64_t> requests_decompress_{0};
  std::atomic<uint64_t> requests_stats_{0};
  std::atomic<uint64_t> requests_shutdown_{0};
  std::atomic<uint64_t> requests_invalid_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> connections_dropped_protocol_{0};
  std::atomic<uint64_t> accept_errors_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};

  /// Declared last: destroyed first, so outstanding completion callbacks
  /// (which touch the members above) drain while they are still alive.
  std::unique_ptr<JobQueue> queue_;
};

}  // namespace isobar::server

#endif  // ISOBAR_SERVER_SERVER_H_
