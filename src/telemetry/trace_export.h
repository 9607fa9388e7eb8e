#ifndef ISOBAR_TELEMETRY_TRACE_EXPORT_H_
#define ISOBAR_TELEMETRY_TRACE_EXPORT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/timeline.h"

namespace isobar::telemetry {

/// Everything the pipeline learned about one chunk: the analyzer verdict,
/// the byte-column partition map, the stage timings, and the exact byte
/// accounting of its container record. One record per encoded chunk.
struct ChunkTrace {
  uint64_t chunk_index = 0;  ///< 0-based, assigned by TraceRecorder::RecordChunk
  uint64_t element_count = 0;
  uint64_t input_bytes = 0;   ///< plaintext bytes of the chunk
  uint64_t output_bytes = 0;  ///< container record bytes (header + payload)

  bool improvable = false;  ///< analyzer verdict (§II.B)
  bool stored_raw = false;  ///< solver expanded; gathered bytes stored as-is
  uint64_t compressible_mask = 0;  ///< byte-column partition map (Fig. 4)
  double htc_fraction = 0.0;       ///< hard-to-compress byte fraction

  uint64_t solver_input_bytes = 0;   ///< gathered compressible bytes
  uint64_t solver_output_bytes = 0;  ///< solver section as written
  uint64_t raw_bytes = 0;            ///< verbatim noise section

  double analysis_seconds = 0.0;
  double partition_seconds = 0.0;
  double codec_seconds = 0.0;
};

/// One EUPA candidate measurement (mirrors CandidateEvaluation, kept as
/// plain strings so the trace layer does not depend on core headers).
struct CandidateTrace {
  std::string codec;
  std::string linearization;
  double ratio = 0.0;
  double throughput_mbps = 0.0;
};

/// One full pipeline run (a Compress() call or a stream writer lifetime).
struct PipelineTrace {
  uint64_t pipeline_id = 0;
  std::string codec;           ///< chosen solver
  std::string linearization;   ///< chosen linearization
  std::string preference;      ///< "speed" | "ratio"
  uint64_t width = 0;          ///< element width, bytes
  uint64_t input_bytes = 0;    ///< total plaintext
  uint64_t output_bytes = 0;   ///< total container bytes
  uint64_t header_bytes = 0;   ///< container header size
  std::vector<CandidateTrace> candidates;  ///< EUPA evidence
  std::vector<ChunkTrace> chunks;
  /// Chunks beyond the per-pipeline bound; their byte totals still
  /// accumulate into input_bytes/output_bytes.
  uint64_t dropped_chunks = 0;
  bool finished = false;
};

/// Bounded process-wide recorder of per-chunk pipeline traces. The
/// compression pipeline drives it directly; with tracing disabled every
/// call is a single branch.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  /// Tracing is gated separately from metrics because traces hold
  /// per-chunk records (memory), not just aggregates.
  void SetEnabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// At most this many chunk records are kept per pipeline (default 4096);
  /// excess chunks count into PipelineTrace::dropped_chunks.
  void set_max_chunks_per_pipeline(size_t max_chunks);
  /// At most this many pipelines are kept (default 64); when full, the
  /// oldest finished pipeline is evicted.
  void set_max_pipelines(size_t max_pipelines);

  /// Opens a new pipeline trace and returns its id (0 when disabled).
  uint64_t BeginPipeline(std::string codec, std::string linearization,
                         std::string preference, uint64_t width);
  void RecordCandidate(uint64_t pipeline_id, CandidateTrace candidate);
  void RecordChunk(uint64_t pipeline_id, ChunkTrace chunk);
  void EndPipeline(uint64_t pipeline_id, uint64_t input_bytes,
                   uint64_t output_bytes, uint64_t header_bytes);

  std::vector<PipelineTrace> Snapshot() const;
  void Clear();

 private:
  TraceRecorder() = default;
  PipelineTrace* Find(uint64_t pipeline_id);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  size_t max_chunks_per_pipeline_ = 4096;
  size_t max_pipelines_ = 64;
  uint64_t next_id_ = 1;
  std::vector<PipelineTrace> pipelines_;
};

// --- Exporters -----------------------------------------------------------
// All exporters emit self-contained documents; JSON output is strict
// (RFC 8259) so downstream tooling can parse it without a lenient reader.

std::string MetricsToJson(const MetricsSnapshot& snapshot);
/// CSV with one row per instrument:
/// kind,name,count,sum,min,max,mean,p50,p90,p99 (counter rows leave the
/// histogram-only columns empty)
/// (counters use value for both count and sum).
std::string MetricsToCsv(const MetricsSnapshot& snapshot);

std::string TraceToJson(const std::vector<PipelineTrace>& pipelines);
/// CSV with one row per chunk across all pipelines.
std::string TraceToCsv(const std::vector<PipelineTrace>& pipelines);

/// Chrome trace-event JSON (the format chrome://tracing and Perfetto
/// load): one "X" complete event per timeline slice plus a thread_name
/// metadata event per track, ts/dur in fractional microseconds relative
/// to MonotonicNanos()'s epoch. Non-zero args are exported as
/// args.pipeline and args.chunk (the stored chunk+1 is decoded back to
/// the 0-based ordinal).
std::string TimelineToJson(const std::vector<ThreadTimelineSnapshot>& threads);

/// Same trace-event shape as a flat event array (a SalvageReport's
/// flight-recorder window, a report's "spans"): events carry their tid
/// but no thread names.
std::string FlightRecorderToJson(
    const std::vector<TimelineEventSnapshot>& events);

/// The combined report the CLI's --metrics-json writes, in one JSON
/// document: current global metrics, every event the Timeline holds
/// (ordered by start; empty unless the Timeline is on), and the pipeline
/// traces ({"metrics": ..., "spans": [...], "pipelines": [...]}).
std::string TelemetryReportJson();

}  // namespace isobar::telemetry

#endif  // ISOBAR_TELEMETRY_TRACE_EXPORT_H_
