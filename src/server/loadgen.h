#ifndef ISOBAR_SERVER_LOADGEN_H_
#define ISOBAR_SERVER_LOADGEN_H_

#include <cstdint>
#include <optional>
#include <string>

#include "compressors/codec.h"
#include "core/eupa_selector.h"
#include "linearize/transpose.h"
#include "util/status.h"

namespace isobar::server {

/// Workload description for the isobard load generator: N worker threads,
/// one pipelined connection each, replaying a mixed compress/decompress
/// stream against a running daemon. Shared by the isobar_loadgen CLI and
/// the bench_server saturation sweep.
struct LoadgenOptions {
  /// Endpoint (same rule as ServerOptions: exactly one).
  std::string unix_socket_path;
  bool use_tcp = false;
  uint16_t tcp_port = 0;

  /// Worker threads; each opens its own connection.
  size_t connections = 4;
  /// Outstanding requests per connection (pipelining window).
  size_t pipeline_depth = 4;

  double duration_seconds = 5.0;
  /// Aggregate request rate to pace toward, spread evenly over the
  /// connections; 0 = closed loop (each worker keeps its window full).
  double target_rps = 0.0;

  /// Fraction of requests that are compress ops; the rest decompress
  /// pre-built containers of the same data.
  double compress_fraction = 0.7;

  /// Synthetic payload shape: `payload_elements` elements of `width`
  /// bytes (width 8 → smooth sine-plus-noise doubles, the compressible
  /// case the paper targets; other widths → low-entropy integer ramps).
  size_t payload_elements = 4096;
  size_t width = 8;
  /// Distinct payloads cycled per worker (seeded per worker, so traffic
  /// differs across connections but reruns are reproducible).
  size_t payload_variants = 4;
  uint64_t seed = 42;

  /// Solver selection carried in the compress aux; nullopt lets EUPA
  /// choose per request. Either way the server's output is bit-identical
  /// to a local library call, which `verify` checks per response.
  std::optional<CodecId> codec = CodecId::kZlib;
  std::optional<Linearization> linearization = Linearization::kColumn;
  Preference preference = Preference::kSpeed;

  /// Byte-compare every OK response against the direct library result
  /// (compress) / the original payload (decompress).
  bool verify = true;

  /// Bounds each blocking receive so a wedged server fails the run
  /// instead of hanging it.
  double recv_timeout_seconds = 30.0;
};

/// Aggregated outcome of one loadgen run. Latency percentiles are over
/// OK responses only (BUSY turnarounds are near-instant and would skew
/// the service-latency distribution they are meant to describe).
struct LoadgenReport {
  uint64_t requests_sent = 0;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;           ///< kError responses (server-side failures).
  uint64_t protocol_errors = 0;  ///< Framing/transport faults seen client-side.
  uint64_t verify_failures = 0;
  uint64_t compress_ok = 0;
  uint64_t decompress_ok = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;

  double wall_seconds = 0.0;
  double requests_per_second = 0.0;  ///< OK + BUSY + error responses / wall.

  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p90_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_max_us = 0.0;

  /// Responses the server still owed when the run was torn down (always
  /// 0 unless a worker hit a transport fault mid-drain).
  uint64_t unanswered = 0;

  /// Strict-JSON object (one line) with every field above.
  std::string ToJson() const;
};

/// Runs the workload. Fails (non-OK) only when the run could not be set
/// up (bad options, no connection); per-request failures are reported in
/// the LoadgenReport so CI can assert on exact counts.
Result<LoadgenReport> RunLoadgen(const LoadgenOptions& options);

/// One STATS round trip on a fresh connection (the daemon's metrics
/// snapshot JSON, readable by `isobar_stat print`).
Result<std::string> FetchServerStats(const LoadgenOptions& endpoint);

/// One shutdown round trip on a fresh connection.
Status RequestServerShutdown(const LoadgenOptions& endpoint);

}  // namespace isobar::server

#endif  // ISOBAR_SERVER_LOADGEN_H_
