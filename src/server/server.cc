#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/trace_export.h"

namespace isobar::server {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

ByteSpan StringPayload(const std::string& s) {
  return ByteSpan(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

}  // namespace

/// Per-connection state. The IO thread owns the parser and is the only
/// code that closes `fd`. The write side is shared: whichever thread has a
/// reply (the IO thread, or the worker that finished the job) sends or
/// queues it under `out_mutex`, and the fd is closed under the same mutex,
/// so no sender ever writes to a closed or reused descriptor.
struct IsobarServer::Connection {
  Connection(int fd_in, uint64_t id_in, uint64_t max_payload)
      : fd(fd_in), id(id_in), parser(kRequestMagic, max_payload) {}

  const int fd = -1;
  uint64_t id = 0;
  FrameParser parser;

  std::mutex out_mutex;
  std::deque<Bytes> outbound;  ///< Frames waiting for the IO thread.
  size_t front_offset = 0;     ///< Bytes of outbound.front() already sent.
  bool closed = false;         ///< fd closed; replies are discarded.

  bool HasOutput() {
    std::lock_guard<std::mutex> lock(out_mutex);
    return !outbound.empty();
  }
};

IsobarServer::IsobarServer(ServerOptions options)
    : options_(std::move(options)),
      queue_(std::make_unique<JobQueue>(options_.jobs)) {}

IsobarServer::~IsobarServer() { Stop(); }

Status IsobarServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_) return Status::InvalidArgument("server already started");

  const bool unix_endpoint = !options_.unix_socket_path.empty();
  if (unix_endpoint == options_.listen_tcp) {
    return Status::InvalidArgument(
        "exactly one of unix_socket_path / listen_tcp must be set");
  }

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  ISOBAR_RETURN_NOT_OK(SetNonBlocking(wake_read_fd_));
  ISOBAR_RETURN_NOT_OK(SetNonBlocking(wake_write_fd_));

  if (unix_endpoint) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_socket_path);
    }
    std::memcpy(addr.sun_path, options_.unix_socket_path.c_str(),
                options_.unix_socket_path.size() + 1);
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError(std::string("socket(AF_UNIX): ") +
                             std::strerror(errno));
    }
    // Replace a stale socket file from a previous run.
    ::unlink(options_.unix_socket_path.c_str());
    if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      return Status::IOError("bind(" + options_.unix_socket_path +
                             "): " + std::strerror(errno));
    }
  } else {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError(std::string("socket(AF_INET): ") +
                             std::strerror(errno));
    }
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      return Status::IOError("bind(127.0.0.1:" +
                             std::to_string(options_.tcp_port) +
                             "): " + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      return Status::IOError(std::string("getsockname: ") +
                             std::strerror(errno));
    }
    bound_tcp_port_ = ntohs(bound.sin_port);
  }

  ISOBAR_RETURN_NOT_OK(SetNonBlocking(listen_fd_));
  if (listen(listen_fd_, 128) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }

  started_ = true;
  io_thread_ = std::thread([this] { RunEventLoop(); });
  return Status::OK();
}

void IsobarServer::Wake() {
  if (wake_write_fd_ < 0) return;
  const uint8_t byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] ssize_t ignored = write(wake_write_fd_, &byte, 1);
}

void IsobarServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  Wake();
}

void IsobarServer::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (io_thread_.joinable()) io_thread_.join();
}

void IsobarServer::Stop() {
  RequestStop();
  Wait();
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (stopped_ || !started_) return;
  stopped_ = true;
  // Drain the job queue while the wake pipe and server tallies are still
  // alive: late completion callbacks may Wake() and bump counters.
  queue_->Shutdown();
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
}

void IsobarServer::CloseListener() {
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void IsobarServer::RunEventLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn_ids;

  while (true) {
    if (stop_requested_.load(std::memory_order_acquire)) break;

    // Read before the HasOutput scan below: a job callback queues its
    // bytes under out_mutex before it decrements the count, so a zero read
    // here means every queued answer is visible to that scan.
    const uint64_t inflight = inflight_responses_.load();
    bool all_flushed = true;
    fds.clear();
    fd_conn_ids.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fd_conn_ids.push_back(0);
    // While parked after fd exhaustion the listener is left out of the
    // poll set: it would report readable forever without a free fd to
    // accept into. The finite poll timeout below re-arms it.
    const bool accept_parked =
        std::chrono::steady_clock::now() < accept_backoff_until_;
    if (listen_fd_ >= 0 && !accept_parked &&
        connections_.size() < options_.max_connections) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn_ids.push_back(0);
    }
    for (auto& [id, conn] : connections_) {
      short events = POLLIN;
      if (conn->HasOutput()) {
        events |= POLLOUT;
        all_flushed = false;
      }
      fds.push_back({conn->fd, events, 0});
      fd_conn_ids.push_back(id);
    }

    // Graceful drain: a shutdown request was honored, every admitted job
    // has answered, and every answer reached its socket (or its
    // connection died) — nothing is owed to anyone.
    if (draining_.load() && all_flushed && inflight == 0) {
      break;
    }

    int poll_timeout_ms = -1;
    if (accept_parked) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          accept_backoff_until_ - std::chrono::steady_clock::now());
      poll_timeout_ms = std::max<int>(1, static_cast<int>(remaining.count()));
    }
    if (poll(fds.data(), fds.size(), poll_timeout_ms) < 0) {
      if (errno == EINTR) continue;
      break;
    }

    for (size_t i = 0; i < fds.size(); ++i) {
      const pollfd& pfd = fds[i];
      if (pfd.revents == 0) continue;
      if (pfd.fd == wake_read_fd_) {
        uint8_t drain[256];
        while (read(wake_read_fd_, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (pfd.fd == listen_fd_) {
        AcceptConnections();
        continue;
      }
      const uint64_t conn_id = fd_conn_ids[i];
      auto it = connections_.find(conn_id);
      if (it == connections_.end()) continue;  // dropped earlier this pass
      std::shared_ptr<Connection> conn = it->second;
      if (pfd.revents & (POLLHUP | POLLERR | POLLNVAL)) {
        // Flush what we can (the peer may have shut down only its write
        // side), then read whatever is still buffered before dropping.
        if (pfd.revents & POLLHUP) ReadFromConnection(conn);
        if (connections_.count(conn_id) != 0 && !(pfd.revents & POLLHUP)) {
          DropConnection(conn_id, /*protocol_error=*/false);
        }
        continue;
      }
      if (pfd.revents & POLLOUT) {
        if (!FlushConnection(conn)) {
          DropConnection(conn_id, /*protocol_error=*/false);
          continue;
        }
      }
      if (pfd.revents & POLLIN) ReadFromConnection(conn);
    }
  }

  // Teardown on the IO thread: every connection fd and the listener are
  // owned here. Pending outbound data is dropped (hard stop) or already
  // flushed (graceful drain).
  for (auto& [id, conn] : connections_) {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    conn->closed = true;
    close(conn->fd);
  }
  connections_.clear();
  CloseListener();
}

void IsobarServer::AcceptConnections() {
  while (connections_.size() < options_.max_connections) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;  // a signal is not a failed client
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // backlog drained
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds or kernel buffers: the pending connection stays in
        // the backlog and the listener stays readable, so accepting again
        // right away would busy-spin the IO thread. Park the listener and
        // let established connections finish (and release fds) first.
        accept_backoff_until_ =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.accept_backoff_ms);
      }
      break;
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    const uint64_t id = next_connection_id_++;
    connections_.emplace(id, std::make_shared<Connection>(
                                 fd, id, options_.max_payload_bytes));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
  }
}

void IsobarServer::DropConnection(uint64_t conn_id, bool protocol_error) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  {
    std::lock_guard<std::mutex> lock(it->second->out_mutex);
    it->second->closed = true;
    close(it->second->fd);
  }
  connections_.erase(it);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
  if (protocol_error) {
    connections_dropped_protocol_.fetch_add(1, std::memory_order_relaxed);
  }
}

void IsobarServer::ReadFromConnection(
    const std::shared_ptr<Connection>& conn) {
  uint8_t buffer[64 * 1024];
  while (true) {
    const ssize_t n = recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      std::vector<Frame> frames;
      const Status fed =
          conn->parser.Feed(ByteSpan(buffer, static_cast<size_t>(n)), &frames);
      // Handle the frames completed before any framing violation — they
      // were well-formed — then poison-drop the connection.
      for (Frame& frame : frames) HandleFrame(conn, std::move(frame));
      if (!fed.ok()) {
        DropConnection(conn->id, /*protocol_error=*/true);
        return;
      }
      continue;
    }
    if (n == 0) {
      DropConnection(conn->id, /*protocol_error=*/false);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    DropConnection(conn->id, /*protocol_error=*/false);
    return;
  }
}

bool IsobarServer::FlushConnection(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->out_mutex);
  while (!conn->outbound.empty()) {
    const Bytes& front = conn->outbound.front();
    const size_t remaining = front.size() - conn->front_offset;
    const ssize_t n = send(conn->fd, front.data() + conn->front_offset,
                           remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    conn->front_offset += static_cast<size_t>(n);
    if (conn->front_offset == front.size()) {
      conn->outbound.pop_front();
      conn->front_offset = 0;
    }
  }
  return true;
}

bool IsobarServer::EnqueueResponse(const std::shared_ptr<Connection>& conn,
                                   Bytes frame) {
  bytes_out_.fetch_add(frame.size(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(conn->out_mutex);
  if (conn->closed) return false;
  if (!conn->outbound.empty()) {
    // Queue behind the frames already waiting, so frames stay whole.
    conn->outbound.push_back(std::move(frame));
    return true;
  }
  // Nothing queued ahead: send from this thread instead of waking the IO
  // thread to do it.
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = send(conn->fd, frame.data() + sent, frame.size() - sent,
                           MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  if (sent == frame.size()) return false;
  // The socket is full (EAGAIN) or failed: queue the unsent remainder. The
  // IO thread flushes it once the socket drains, or drops the connection
  // when its own send fails — it stays the only code that drops one.
  conn->outbound.push_back(std::move(frame));
  conn->front_offset = sent;
  return true;
}

void IsobarServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                               Frame frame) {
  const uint64_t rid = frame.header.request_id;
  const int64_t received_nanos = telemetry::MonotonicNanos();
  requests_total_.fetch_add(1, std::memory_order_relaxed);

  if (frame.header.op > static_cast<uint8_t>(Op::kShutdown)) {
    requests_invalid_.fetch_add(1, std::memory_order_relaxed);
    const std::string message =
        "unknown op " + std::to_string(frame.header.op);
    EnqueueResponse(
        conn, EncodeResponse(
                  ResponseStatus::kError, rid,
                  static_cast<uint64_t>(StatusCode::kInvalidArgument),
                  StringPayload(message)));
    return;
  }
  const Op op = static_cast<Op>(frame.header.op);

  auto reply_error = [&](const Status& status) {
    requests_invalid_.fetch_add(1, std::memory_order_relaxed);
    EnqueueResponse(conn,
                    EncodeResponse(ResponseStatus::kError, rid,
                                   static_cast<uint64_t>(status.code()),
                                   StringPayload(status.message())));
  };

  switch (op) {
    case Op::kPing:
      requests_ping_.fetch_add(1, std::memory_order_relaxed);
      EnqueueResponse(conn, EncodeResponse(ResponseStatus::kOk, rid,
                                           frame.header.aux, frame.payload));
      return;

    case Op::kStats: {
      requests_stats_.fetch_add(1, std::memory_order_relaxed);
      const std::string json = BuildStatsJson();
      EnqueueResponse(conn, EncodeResponse(ResponseStatus::kOk, rid, 0,
                                           StringPayload(json)));
      static telemetry::Histogram& latency =
          telemetry::GetHistogram("server.stats.nanos");
      latency.Observe(static_cast<uint64_t>(
          telemetry::MonotonicNanos() - received_nanos));
      return;
    }

    case Op::kShutdown:
      requests_shutdown_.fetch_add(1, std::memory_order_relaxed);
      EnqueueResponse(conn,
                      EncodeResponse(ResponseStatus::kOk, rid, 0, {}));
      draining_.store(true);
      CloseListener();
      return;

    case Op::kCompress:
    case Op::kDecompress:
      break;
  }

  // Job ops from here on.
  if (op == Op::kCompress) {
    requests_compress_.fetch_add(1, std::memory_order_relaxed);
  } else {
    requests_decompress_.fetch_add(1, std::memory_order_relaxed);
  }

  JobRequest request;
  if (op == Op::kCompress) {
    auto aux = UnpackCompressAux(frame.header.aux);
    if (!aux.ok()) {
      reply_error(aux.status());
      return;
    }
    // Same validator the library entry point runs: a request rejected
    // here is exactly a request Compress() would reject.
    const Status shape =
        ValidateCompressInput(frame.payload.size(), aux->width);
    if (!shape.ok()) {
      reply_error(shape);
      return;
    }
    request.kind = JobKind::kCompress;
    request.width = aux->width;
    request.compress_options.eupa.preference = aux->preference;
    request.compress_options.eupa.forced_codec = aux->codec;
    request.compress_options.eupa.forced_linearization = aux->linearization;
  } else {
    request.kind = JobKind::kDecompress;
  }
  request.input = std::move(frame.payload);

  if (draining_.load()) {
    EnqueueResponse(
        conn, EncodeResponse(ResponseStatus::kBusy, rid,
                             static_cast<uint64_t>(Admission::kShuttingDown),
                             {}));
    return;
  }

  inflight_responses_.fetch_add(1);
  std::weak_ptr<Connection> weak = conn;
  const Admission admission = queue_->Submit(
      conn->id, std::move(request),
      [this, weak, rid, op, received_nanos](JobResult result) {
        static telemetry::Histogram& compress_latency =
            telemetry::GetHistogram("server.compress.nanos");
        static telemetry::Histogram& decompress_latency =
            telemetry::GetHistogram("server.decompress.nanos");
        (op == Op::kCompress ? compress_latency : decompress_latency)
            .Observe(static_cast<uint64_t>(telemetry::MonotonicNanos() -
                                           received_nanos));
        Bytes response;
        if (result.status.ok()) {
          response = EncodeResponse(ResponseStatus::kOk, rid, 0,
                                    result.output);
        } else {
          response = EncodeResponse(
              ResponseStatus::kError, rid,
              static_cast<uint64_t>(result.status.code()),
              StringPayload(result.status.message()));
        }
        bool queued = false;
        if (std::shared_ptr<Connection> live = weak.lock()) {
          queued = EnqueueResponse(live, std::move(response));
        }
        // Sequentially consistent with the IO thread's draining_ store and
        // inflight_responses_ load: either this callback sees the drain and
        // wakes the loop, or the loop sees the count reach zero itself.
        inflight_responses_.fetch_sub(1);
        if (queued || draining_.load()) Wake();
      });
  if (admission != Admission::kAdmitted) {
    inflight_responses_.fetch_sub(1);
    EnqueueResponse(conn,
                    EncodeResponse(ResponseStatus::kBusy, rid,
                                   static_cast<uint64_t>(admission), {}));
  }
}

std::string IsobarServer::BuildStatsJson() const {
  telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  auto add = [&snapshot](std::string name, uint64_t value) {
    snapshot.counters.push_back({std::move(name), value});
  };
  const JobQueue::StatsSnapshot q = queue_->Stats();
  add("server.requests", requests_total_.load(std::memory_order_relaxed));
  add("server.requests.ping",
      requests_ping_.load(std::memory_order_relaxed));
  add("server.requests.compress",
      requests_compress_.load(std::memory_order_relaxed));
  add("server.requests.decompress",
      requests_decompress_.load(std::memory_order_relaxed));
  add("server.requests.stats",
      requests_stats_.load(std::memory_order_relaxed));
  add("server.requests.shutdown",
      requests_shutdown_.load(std::memory_order_relaxed));
  add("server.requests.invalid",
      requests_invalid_.load(std::memory_order_relaxed));
  add("server.admitted", q.admitted);
  add("server.completed", q.completed);
  add("server.failed", q.failed);
  add("server.rejected", q.rejected_total());
  add("server.rejected.queue_full", q.rejected_queue_full);
  add("server.rejected.connection_limit", q.rejected_connection_limit);
  add("server.rejected.shutdown", q.rejected_shutdown);
  add("server.queue_depth", q.queue_depth);
  add("server.queue_depth.high_water", q.queue_depth_high_water);
  add("server.running", q.running);
  add("server.queue_capacity", options_.jobs.max_queue_depth);
  add("server.workers", queue_->worker_count());
  add("server.connections.accepted",
      connections_accepted_.load(std::memory_order_relaxed));
  add("server.connections.active",
      connections_active_.load(std::memory_order_relaxed));
  add("server.connections.dropped_protocol",
      connections_dropped_protocol_.load(std::memory_order_relaxed));
  add("server.accept_errors",
      accept_errors_.load(std::memory_order_relaxed));
  add("server.bytes_in", bytes_in_.load(std::memory_order_relaxed));
  add("server.bytes_out", bytes_out_.load(std::memory_order_relaxed));
  std::sort(snapshot.counters.begin(), snapshot.counters.end(),
            [](const telemetry::CounterSnapshot& a,
               const telemetry::CounterSnapshot& b) { return a.name < b.name; });
  return telemetry::MetricsToJson(snapshot);
}

}  // namespace isobar::server
