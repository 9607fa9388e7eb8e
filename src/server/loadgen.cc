#include "server/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "core/isobar.h"
#include "server/client.h"
#include "util/random.h"

namespace isobar::server {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Deterministic synthetic payload `variant` for `worker`: smooth
/// sine-plus-noise doubles at width 8 (the compressible scientific-data
/// shape), low-entropy integer ramps otherwise.
Bytes MakePayload(const LoadgenOptions& options, size_t worker,
                  size_t variant) {
  Bytes data(options.payload_elements * options.width);
  Xoshiro256 rng(options.seed + worker * 7919 + variant * 104729);
  if (options.width == 8) {
    const double phase = rng.NextDouble() * 6.283185307179586;
    const double step = 0.002 + rng.NextDouble() * 0.01;
    for (size_t e = 0; e < options.payload_elements; ++e) {
      const double value = 100.0 * std::sin(phase + step * e) +
                           0.01 * rng.NextGaussian();
      uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      StoreLE64(data.data() + e * 8, bits);
    }
  } else {
    for (size_t e = 0; e < options.payload_elements; ++e) {
      uint8_t* p = data.data() + e * options.width;
      uint64_t value = e + (rng.Next() & 0x3);
      for (size_t b = 0; b < options.width; ++b) {
        p[b] = static_cast<uint8_t>(value & 0xFF);
        value >>= 8;
      }
    }
  }
  return data;
}

CompressOptions ReferenceCompressOptions(const LoadgenOptions& options) {
  CompressOptions copts;
  copts.num_threads = 1;
  copts.eupa.preference = options.preference;
  copts.eupa.forced_codec = options.codec;
  copts.eupa.forced_linearization = options.linearization;
  return copts;
}

struct WorkerShared {
  std::vector<Bytes> payloads;    ///< Raw compress inputs.
  std::vector<Bytes> containers;  ///< Library-built references / decompress inputs.
};

struct WorkerResult {
  Status fatal;  ///< Transport/setup fault that ended the worker early.
  uint64_t sent = 0, ok = 0, busy = 0, errors = 0, protocol_errors = 0;
  uint64_t verify_failures = 0, compress_ok = 0, decompress_ok = 0;
  uint64_t bytes_sent = 0, bytes_received = 0, unanswered = 0;
  std::vector<double> latencies_us;  ///< OK responses only.
};

Result<Client> Connect(const LoadgenOptions& options) {
  if (options.unix_socket_path.empty() == !options.use_tcp) {
    return Status::InvalidArgument(
        "exactly one of unix_socket_path / use_tcp must be set");
  }
  if (!options.unix_socket_path.empty()) {
    return Client::ConnectUnix(options.unix_socket_path);
  }
  return Client::ConnectTcp(options.tcp_port);
}

struct InFlight {
  Op op = Op::kCompress;
  size_t variant = 0;
  Clock::time_point sent_at;
};

void RunWorker(const LoadgenOptions& options, const WorkerShared& shared,
               size_t worker_index, Clock::time_point deadline,
               WorkerResult* out) {
  auto connected = Connect(options);
  if (!connected.ok()) {
    out->fatal = connected.status();
    return;
  }
  Client client = std::move(*connected);
  if (options.recv_timeout_seconds > 0) {
    const Status st = client.SetReceiveTimeout(options.recv_timeout_seconds);
    if (!st.ok()) {
      out->fatal = st;
      return;
    }
  }

  Xoshiro256 rng(options.seed * 31 + worker_index);
  const uint64_t compress_aux = PackCompressAux(
      {options.width, options.codec, options.linearization,
       options.preference});
  const double per_conn_rate =
      options.target_rps > 0 ? options.target_rps / options.connections : 0;
  const Clock::time_point start = Clock::now();

  std::map<uint64_t, InFlight> inflight;
  uint64_t next_rid = 1;

  auto handle_response = [&](const Response& response) -> bool {
    auto it = inflight.find(response.request_id);
    if (it == inflight.end()) {
      ++out->protocol_errors;  // Response to a request we never sent.
      return false;
    }
    const InFlight sent = it->second;
    inflight.erase(it);
    out->bytes_received += kFrameHeaderSize + response.payload.size();
    if (response.busy()) {
      ++out->busy;
      return true;
    }
    if (!response.ok()) {
      ++out->errors;
      return true;
    }
    ++out->ok;
    out->latencies_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  sent.sent_at)
            .count());
    if (sent.op == Op::kCompress) {
      ++out->compress_ok;
      if (options.verify &&
          response.payload != shared.containers[sent.variant]) {
        ++out->verify_failures;
      }
    } else {
      ++out->decompress_ok;
      if (options.verify &&
          response.payload != shared.payloads[sent.variant]) {
        ++out->verify_failures;
      }
    }
    return true;
  };

  while (Clock::now() < deadline) {
    // Fill the pipeline window, respecting the pacing budget.
    bool sent_any = false;
    while (inflight.size() < options.pipeline_depth &&
           Clock::now() < deadline) {
      if (per_conn_rate > 0 &&
          static_cast<double>(out->sent) >=
              per_conn_rate * SecondsSince(start)) {
        break;
      }
      const bool compress =
          rng.NextDouble() < options.compress_fraction;
      const size_t variant = rng.NextBounded(shared.payloads.size());
      const uint64_t rid = next_rid++;
      const ByteSpan payload = compress ? ByteSpan(shared.payloads[variant])
                                        : ByteSpan(shared.containers[variant]);
      const Status st =
          client.Send(compress ? Op::kCompress : Op::kDecompress, rid,
                      compress ? compress_aux : 0, payload);
      if (!st.ok()) {
        out->fatal = st;
        ++out->protocol_errors;
        out->unanswered += inflight.size();
        return;
      }
      inflight.emplace(rid, InFlight{compress ? Op::kCompress : Op::kDecompress,
                                     variant, Clock::now()});
      ++out->sent;
      out->bytes_sent += kFrameHeaderSize + payload.size();
      sent_any = true;
    }

    if (!inflight.empty()) {
      auto response = client.ReadResponse();
      if (!response.ok()) {
        out->fatal = response.status();
        ++out->protocol_errors;
        out->unanswered += inflight.size();
        return;
      }
      if (!handle_response(*response)) {
        out->fatal = Status::Corruption("unmatched response id");
        out->unanswered += inflight.size();
        return;
      }
    } else if (!sent_any) {
      // Rate-limited and nothing outstanding: sleep one pacing quantum.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  // Drain: every request in flight is still owed a response.
  while (!inflight.empty()) {
    auto response = client.ReadResponse();
    if (!response.ok()) {
      out->fatal = response.status();
      ++out->protocol_errors;
      out->unanswered += inflight.size();
      return;
    }
    if (!handle_response(*response)) {
      out->fatal = Status::Corruption("unmatched response id");
      out->unanswered += inflight.size();
      return;
    }
  }
}

double PercentileOf(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void AppendJsonNumber(std::string* out, const char* key, double value,
                      bool trailing_comma) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  *out += '"';
  *out += key;
  *out += "\": ";
  *out += buffer;
  if (trailing_comma) *out += ", ";
}

void AppendJsonCount(std::string* out, const char* key, uint64_t value,
                     bool trailing_comma) {
  *out += '"';
  *out += key;
  *out += "\": ";
  *out += std::to_string(value);
  if (trailing_comma) *out += ", ";
}

}  // namespace

std::string LoadgenReport::ToJson() const {
  std::string out = "{";
  AppendJsonCount(&out, "requests_sent", requests_sent, true);
  AppendJsonCount(&out, "ok", ok, true);
  AppendJsonCount(&out, "busy", busy, true);
  AppendJsonCount(&out, "errors", errors, true);
  AppendJsonCount(&out, "protocol_errors", protocol_errors, true);
  AppendJsonCount(&out, "verify_failures", verify_failures, true);
  AppendJsonCount(&out, "unanswered", unanswered, true);
  AppendJsonCount(&out, "compress_ok", compress_ok, true);
  AppendJsonCount(&out, "decompress_ok", decompress_ok, true);
  AppendJsonCount(&out, "bytes_sent", bytes_sent, true);
  AppendJsonCount(&out, "bytes_received", bytes_received, true);
  AppendJsonNumber(&out, "wall_seconds", wall_seconds, true);
  AppendJsonNumber(&out, "requests_per_second", requests_per_second, true);
  AppendJsonNumber(&out, "latency_mean_us", latency_mean_us, true);
  AppendJsonNumber(&out, "latency_p50_us", latency_p50_us, true);
  AppendJsonNumber(&out, "latency_p90_us", latency_p90_us, true);
  AppendJsonNumber(&out, "latency_p99_us", latency_p99_us, true);
  AppendJsonNumber(&out, "latency_max_us", latency_max_us, false);
  out += "}";
  return out;
}

Result<LoadgenReport> RunLoadgen(const LoadgenOptions& options) {
  if (options.connections == 0) {
    return Status::InvalidArgument("connections must be > 0");
  }
  if (options.pipeline_depth == 0) {
    return Status::InvalidArgument("pipeline_depth must be > 0");
  }
  if (options.payload_variants == 0) {
    return Status::InvalidArgument("payload_variants must be > 0");
  }
  if (options.width == 0 || options.width > 64) {
    return Status::InvalidArgument("width must be in [1, 64]");
  }

  // Reference data: the containers double as decompress inputs and as
  // the byte-identity oracle for compress responses.
  const CompressOptions copts = ReferenceCompressOptions(options);
  std::vector<WorkerShared> shared(options.connections);
  for (size_t w = 0; w < options.connections; ++w) {
    for (size_t v = 0; v < options.payload_variants; ++v) {
      Bytes payload = MakePayload(options, w, v);
      IsobarCompressor compressor(copts);
      auto container = compressor.Compress(payload, options.width);
      if (!container.ok()) return container.status();
      shared[w].payloads.push_back(std::move(payload));
      shared[w].containers.push_back(std::move(*container));
    }
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_seconds));

  std::vector<WorkerResult> results(options.connections);
  std::vector<std::thread> workers;
  workers.reserve(options.connections);
  for (size_t w = 0; w < options.connections; ++w) {
    workers.emplace_back([&options, &shared, &results, w, deadline] {
      RunWorker(options, shared[w], w, deadline, &results[w]);
    });
  }
  for (std::thread& t : workers) t.join();
  const double wall = SecondsSince(start);

  LoadgenReport report;
  report.wall_seconds = wall;
  std::vector<double> latencies;
  Status first_fatal;
  for (const WorkerResult& r : results) {
    report.requests_sent += r.sent;
    report.ok += r.ok;
    report.busy += r.busy;
    report.errors += r.errors;
    report.protocol_errors += r.protocol_errors;
    report.verify_failures += r.verify_failures;
    report.compress_ok += r.compress_ok;
    report.decompress_ok += r.decompress_ok;
    report.bytes_sent += r.bytes_sent;
    report.bytes_received += r.bytes_received;
    report.unanswered += r.unanswered;
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
    if (first_fatal.ok() && !r.fatal.ok()) first_fatal = r.fatal;
  }
  report.requests_per_second =
      wall > 0 ? static_cast<double>(report.ok + report.busy + report.errors) /
                     wall
               : 0.0;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    double sum = 0;
    for (double v : latencies) sum += v;
    report.latency_mean_us = sum / static_cast<double>(latencies.size());
    report.latency_p50_us = PercentileOf(latencies, 0.50);
    report.latency_p90_us = PercentileOf(latencies, 0.90);
    report.latency_p99_us = PercentileOf(latencies, 0.99);
    report.latency_max_us = latencies.back();
  }
  // A worker that could not even connect is a setup failure, not a
  // workload measurement.
  if (report.requests_sent == 0 && !first_fatal.ok()) return first_fatal;
  return report;
}

Result<std::string> FetchServerStats(const LoadgenOptions& endpoint) {
  ISOBAR_ASSIGN_OR_RETURN(Client client, Connect(endpoint));
  if (endpoint.recv_timeout_seconds > 0) {
    ISOBAR_RETURN_NOT_OK(
        client.SetReceiveTimeout(endpoint.recv_timeout_seconds));
  }
  return client.Stats();
}

Status RequestServerShutdown(const LoadgenOptions& endpoint) {
  ISOBAR_ASSIGN_OR_RETURN(Client client, Connect(endpoint));
  if (endpoint.recv_timeout_seconds > 0) {
    ISOBAR_RETURN_NOT_OK(
        client.SetReceiveTimeout(endpoint.recv_timeout_seconds));
  }
  return client.ShutdownServer();
}

}  // namespace isobar::server
