// End-to-end tests for the isobard serving path: a real IsobarServer on a
// unix socket in-process, driven through the blocking Client (and a raw
// socket where the point is sending bytes Client would refuse to frame).
// Saturation is made deterministic by pausing the server's JobQueue —
// admission keeps filling the bounded queue while dispatch is frozen —
// not by racing timers.
#include "server/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/isobar.h"
#include "server/client.h"
#include "server/job_queue.h"
#include "server/protocol.h"
#include "telemetry/json_reader.h"
#include "util/bytes.h"

namespace isobar::server {
namespace {

std::string TestSocketPath(const std::string& name) {
  return "/tmp/isobar_server_test." + std::to_string(getpid()) + "." + name +
         ".sock";
}

ServerOptions BaseOptions(const std::string& name) {
  ServerOptions options;
  options.unix_socket_path = TestSocketPath(name);
  options.jobs.num_threads = 2;
  return options;
}

Bytes SmoothDoubles(size_t elements) {
  Bytes data(elements * sizeof(double));
  for (size_t i = 0; i < elements; ++i) {
    const double value = static_cast<double>(i) * 0.25 + 100.0;
    std::memcpy(data.data() + i * sizeof(double), &value, sizeof(double));
  }
  return data;
}

CompressAux ForcedAux() {
  CompressAux aux;
  aux.width = 8;
  aux.codec = CodecId::kZlib;
  aux.linearization = Linearization::kColumn;
  return aux;
}

Client MustConnect(const ServerOptions& options) {
  auto client = Client::ConnectUnix(options.unix_socket_path);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->SetReceiveTimeout(30.0).ok());
  return std::move(*client);
}

/// Unframed escape hatch: Client always emits well-formed frames, so the
/// framing-violation tests need a socket that sends arbitrary bytes.
class RawConnection {
 public:
  explicit RawConnection(const std::string& socket_path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
    }
    timeval tv{10, 0};
    if (fd_ >= 0) setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConnection() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool SendAll(ByteSpan data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks for the next recv; 0 = clean EOF, -1 = error/timeout.
  ssize_t RecvSome() {
    uint8_t buffer[4096];
    return recv(fd_, buffer, sizeof(buffer), 0);
  }

 private:
  int fd_ = -1;
};

TEST(ServerTest, PingEchoesPayload) {
  const ServerOptions options = BaseOptions("ping");
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client = MustConnect(options);
  const Bytes payload = {1, 2, 3, 250};
  auto response = client.Call(Op::kPing, 0xABCD, payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok());
  EXPECT_EQ(response->payload, payload);
  EXPECT_EQ(response->aux, 0xABCDu);
}

// The acceptance bar for the daemon: a served compress is byte-identical
// to calling the library directly in this process — with the solver
// forced, and with EUPA choosing (its decision depends only on the bytes
// and options, not on which process or thread measured them).
TEST(ServerTest, CompressMatchesDirectLibraryCall) {
  const ServerOptions options = BaseOptions("identity");
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const Bytes data = SmoothDoubles(2048);
  CompressAux auto_aux;
  auto_aux.width = 8;  // codec and linearization 0xFF: EUPA chooses
  Client client = MustConnect(options);
  for (const CompressAux& aux : {ForcedAux(), auto_aux}) {
    auto served = client.Compress(data, aux);
    ASSERT_TRUE(served.ok()) << served.status().ToString();

    CompressOptions direct_options;
    direct_options.eupa.preference = aux.preference;
    direct_options.eupa.forced_codec = aux.codec;
    direct_options.eupa.forced_linearization = aux.linearization;
    direct_options.num_threads = 1;
    IsobarCompressor compressor(direct_options);
    auto direct = compressor.Compress(data, aux.width);
    ASSERT_TRUE(direct.ok());

    EXPECT_EQ(*served, *direct) << (aux.codec ? "forced" : "auto");
  }
}

TEST(ServerTest, DecompressRoundTripsThroughServer) {
  const ServerOptions options = BaseOptions("roundtrip");
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const Bytes data = SmoothDoubles(1024);
  Client client = MustConnect(options);
  auto container = client.Compress(data, ForcedAux());
  ASSERT_TRUE(container.ok());
  auto restored = client.Decompress(*container);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, data);
}

TEST(ServerTest, PipelinedRequestsAllAnsweredById) {
  const ServerOptions options = BaseOptions("pipeline");
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const Bytes data = SmoothDoubles(512);
  const uint64_t aux = PackCompressAux(ForcedAux());
  Client client = MustConnect(options);

  constexpr uint64_t kRequests = 6;
  for (uint64_t rid = 1; rid <= kRequests; ++rid) {
    ASSERT_TRUE(client.Send(Op::kCompress, rid, aux, data).ok());
  }
  std::vector<bool> answered(kRequests + 1, false);
  for (uint64_t i = 0; i < kRequests; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->ok()) << response->ToStatus().ToString();
    ASSERT_GE(response->request_id, 1u);
    ASSERT_LE(response->request_id, kRequests);
    EXPECT_FALSE(answered[response->request_id]) << "duplicate response";
    answered[response->request_id] = true;
  }
}

// A reply far larger than the socket buffer: the worker's direct send
// fills the socket and leaves the rest queued for the IO thread, and
// replies finishing meanwhile queue behind it. With the client slow to
// read, every pipelined request must still be answered by id and the
// large reply must arrive whole.
TEST(ServerTest, OversizedReplyBehindFullSocketArrivesWhole) {
  const ServerOptions options = BaseOptions("large_reply");
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const Bytes large = SmoothDoubles(512 * 1024);  // 4 MiB decompressed
  CompressOptions direct_options;
  direct_options.eupa.forced_codec = CodecId::kZlib;
  direct_options.eupa.forced_linearization = Linearization::kColumn;
  direct_options.num_threads = 1;
  auto container = IsobarCompressor(direct_options).Compress(large, 8);
  ASSERT_TRUE(container.ok());
  ASSERT_LT(container->size(), large.size() / 4);

  const Bytes small = SmoothDoubles(512);
  const Bytes ping = {7, 7, 7};
  const uint64_t aux = PackCompressAux(ForcedAux());
  Client client = MustConnect(options);
  constexpr uint64_t kRequests = 9;
  ASSERT_TRUE(client.Send(Op::kDecompress, 1, 0, *container).ok());
  for (uint64_t rid = 2; rid <= kRequests; ++rid) {
    const bool is_ping = rid % 2 == 0;
    ASSERT_TRUE(client
                    .Send(is_ping ? Op::kPing : Op::kCompress, rid,
                          is_ping ? 0 : aux, is_ping ? ping : small)
                    .ok());
  }
  // Read late, so the large reply cannot leave in one send.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::vector<bool> answered(kRequests + 1, false);
  for (uint64_t i = 0; i < kRequests; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok()) << response->ToStatus().ToString();
    const uint64_t rid = response->request_id;
    ASSERT_GE(rid, 1u);
    ASSERT_LE(rid, kRequests);
    EXPECT_FALSE(answered[rid]) << "duplicate response " << rid;
    answered[rid] = true;
    if (rid == 1) {
      EXPECT_TRUE(response->payload == large) << "large reply damaged";
    } else if (rid % 2 == 0) {
      EXPECT_EQ(response->payload, ping);
    } else {
      auto restored = IsobarCompressor::Decompress(response->payload);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      EXPECT_TRUE(*restored == small);
    }
  }
}

TEST(ServerTest, UnknownOpGetsErrorAndConnectionSurvives) {
  const ServerOptions options = BaseOptions("unknown_op");
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client = MustConnect(options);
  auto response = client.Call(static_cast<Op>(200), 0, {});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, ResponseStatus::kError);
  EXPECT_EQ(response->aux,
            static_cast<uint64_t>(StatusCode::kInvalidArgument));

  // Well-framed garbage is answered, not dropped: the same connection
  // still serves real requests.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, MalformedCompressRequestsGetErrorResponses) {
  const ServerOptions options = BaseOptions("bad_compress");
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client = MustConnect(options);

  // Width 0 is invalid in any aux packing.
  auto bad_aux = client.Call(Op::kCompress, 0, SmoothDoubles(16));
  ASSERT_TRUE(bad_aux.ok());
  EXPECT_EQ(bad_aux->status, ResponseStatus::kError);

  // 127 bytes is not a multiple of width 8.
  Bytes misaligned = SmoothDoubles(16);
  misaligned.pop_back();
  auto bad_size =
      client.Call(Op::kCompress, PackCompressAux(ForcedAux()), misaligned);
  ASSERT_TRUE(bad_size.ok());
  EXPECT_EQ(bad_size->status, ResponseStatus::kError);

  // A decompress of non-container bytes fails in the pipeline, not the
  // protocol: still a kError response on a usable connection.
  auto bad_container = client.Call(Op::kDecompress, 0, SmoothDoubles(16));
  ASSERT_TRUE(bad_container.ok());
  EXPECT_EQ(bad_container->status, ResponseStatus::kError);

  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, FramingViolationDropsConnectionWithoutReply) {
  const ServerOptions options = BaseOptions("framing");
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Nonzero reserved bits poison the connection: EOF, never a response.
  {
    RawConnection raw(options.unix_socket_path);
    ASSERT_TRUE(raw.connected());
    Bytes poison = EncodeRequest(Op::kPing, 7, 0, {});
    poison[6] = 0xEE;
    ASSERT_TRUE(raw.SendAll(poison));
    EXPECT_EQ(raw.RecvSome(), 0) << "expected EOF after framing violation";
  }

  // Wrong magic (a response frame on the request channel) likewise.
  {
    RawConnection raw(options.unix_socket_path);
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(raw.SendAll(EncodeResponse(ResponseStatus::kOk, 1, 0, {})));
    EXPECT_EQ(raw.RecvSome(), 0);
  }

  // An oversized length prefix is shed at header-parse time.
  {
    RawConnection raw(options.unix_socket_path);
    ASSERT_TRUE(raw.connected());
    Bytes poison = EncodeRequest(Op::kCompress, 9, 8, {});
    const uint64_t huge = options.max_payload_bytes + 1;
    std::memcpy(poison.data() + 24, &huge, sizeof(huge));
    ASSERT_TRUE(raw.SendAll(poison));
    EXPECT_EQ(raw.RecvSome(), 0);
  }

  // The server itself is unharmed: fresh connections serve normally.
  Client client = MustConnect(options);
  EXPECT_TRUE(client.Ping().ok());
}

// Saturation, deterministically: freeze dispatch, fill the admission
// queue to its bound through one connection, and assert that exactly the
// overflow requests are answered BUSY (kQueueFull) while every admitted
// request is answered OK after the queue thaws. No reply is ever dropped.
TEST(ServerTest, SaturationShedsBusyThenDrainsCleanly) {
  ServerOptions options = BaseOptions("saturation");
  options.jobs.max_queue_depth = 3;
  options.jobs.max_inflight_per_connection = 100;  // Queue bound under test.
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.job_queue().Pause();

  const Bytes data = SmoothDoubles(256);
  const uint64_t aux = PackCompressAux(ForcedAux());
  Client client = MustConnect(options);

  // Paused queue, 2 workers idle but frozen: every request is admitted
  // until the queue bound, then shed.
  const uint64_t total = options.jobs.max_queue_depth + 4;
  for (uint64_t rid = 1; rid <= total; ++rid) {
    ASSERT_TRUE(client.Send(Op::kCompress, rid, aux, data).ok());
  }

  // The BUSY responses arrive while the queue is still frozen — load
  // shedding must not wait for capacity.
  uint64_t busy = 0;
  for (uint64_t i = 0; i < total - options.jobs.max_queue_depth; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->busy());
    EXPECT_EQ(response->aux,
              static_cast<uint64_t>(Admission::kQueueFull));
    ++busy;
  }

  server.job_queue().Resume();
  uint64_t ok = 0;
  for (uint64_t i = 0; i < options.jobs.max_queue_depth; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->ok()) << response->ToStatus().ToString();
    ++ok;
  }
  EXPECT_EQ(busy + ok, total);

  const auto stats = server.job_queue().Stats();
  EXPECT_EQ(stats.admitted, options.jobs.max_queue_depth);
  EXPECT_EQ(stats.rejected_queue_full, busy);
}

TEST(ServerTest, PerConnectionLimitAnswersBusy) {
  ServerOptions options = BaseOptions("per_conn");
  options.jobs.max_queue_depth = 100;
  options.jobs.max_inflight_per_connection = 2;
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.job_queue().Pause();

  const Bytes data = SmoothDoubles(256);
  const uint64_t aux = PackCompressAux(ForcedAux());
  Client greedy = MustConnect(options);
  for (uint64_t rid = 1; rid <= 3; ++rid) {
    ASSERT_TRUE(greedy.Send(Op::kCompress, rid, aux, data).ok());
  }
  auto shed = greedy.ReadResponse();
  ASSERT_TRUE(shed.ok());
  ASSERT_TRUE(shed->busy());
  EXPECT_EQ(shed->aux, static_cast<uint64_t>(Admission::kConnectionLimit));

  // A second connection is not affected by the first one's cap.
  Client other = MustConnect(options);
  ASSERT_TRUE(other.Send(Op::kCompress, 1, aux, data).ok());

  server.job_queue().Resume();
  for (int i = 0; i < 2; ++i) {
    auto response = greedy.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok());
  }
  auto response = other.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok());
}

TEST(ServerTest, StatsSnapshotIsStrictJsonWithServerCounters) {
  const ServerOptions options = BaseOptions("stats");
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client = MustConnect(options);
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Ping().ok());
  auto container = client.Compress(SmoothDoubles(512), ForcedAux());
  ASSERT_TRUE(container.ok());

  auto stats_json = client.Stats();
  ASSERT_TRUE(stats_json.ok()) << stats_json.status().ToString();

  // The STATS payload must parse under the repo's strict reader (the
  // same DOM isobar_stat uses).
  auto doc = telemetry::ParseJson(*stats_json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const telemetry::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());

  // 2 pings + 1 compress + this STATS request itself.
  const telemetry::JsonValue* requests = counters->Find("server.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->number_value(), 4.0);
  EXPECT_EQ(counters->FieldNumberOr("server.requests.ping", -1), 2.0);
  EXPECT_EQ(counters->FieldNumberOr("server.requests.compress", -1), 1.0);
  EXPECT_EQ(counters->FieldNumberOr("server.admitted", -1), 1.0);
  EXPECT_EQ(counters->FieldNumberOr("server.rejected", -1), 0.0);
  EXPECT_EQ(counters->FieldNumberOr("server.queue_depth", -1), 0.0);
  EXPECT_EQ(counters->FieldNumberOr("server.queue_capacity", -1),
            static_cast<double>(options.jobs.max_queue_depth));
  EXPECT_GE(counters->FieldNumberOr("server.connections.accepted", -1), 1.0);

  const telemetry::JsonValue* histograms = doc->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_TRUE(histograms->is_array());
}

TEST(ServerTest, ShutdownOpDrainsAndStopsTheServer) {
  const ServerOptions options = BaseOptions("shutdown");
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client = MustConnect(options);
  auto container = client.Compress(SmoothDoubles(512), ForcedAux());
  ASSERT_TRUE(container.ok());
  ASSERT_TRUE(client.ShutdownServer().ok());

  // Wait() returns because a client asked for shutdown — not because of
  // Stop() from this thread.
  server.Wait();
  server.Stop();
  const auto stats = server.job_queue().Stats();
  EXPECT_EQ(stats.admitted, stats.completed);
}

TEST(ServerTest, TcpEndpointServesOnEphemeralPort) {
  ServerOptions options;
  options.listen_tcp = true;
  options.tcp_port = 0;
  options.jobs.num_threads = 2;
  IsobarServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.bound_tcp_port(), 0);

  auto client = Client::ConnectTcp(server.bound_tcp_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->SetReceiveTimeout(30.0).ok());
  EXPECT_TRUE(client->Ping().ok());

  const Bytes data = SmoothDoubles(512);
  auto served = client->Compress(data, ForcedAux());
  ASSERT_TRUE(served.ok());
  auto restored = client->Decompress(*served);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, data);
}

}  // namespace
}  // namespace isobar::server
