#include "telemetry/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>

namespace isobar::telemetry {
namespace {

// --- Minimal JSON writer -------------------------------------------------

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

// %.9g keeps nanosecond-scale second values exact enough for analysis
// while staying strictly JSON-number formatted (no inf/nan emitted; the
// telemetry layer never produces them).
void AppendDouble(double v, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

void AppendBool(bool v, std::string* out) { *out += v ? "true" : "false"; }

void AppendHistogramJson(const HistogramSnapshot& h, std::string* out) {
  *out += "{\"name\":";
  AppendEscaped(h.name, out);
  *out += ",\"count\":";
  AppendU64(h.count, out);
  *out += ",\"sum\":";
  AppendU64(h.sum, out);
  *out += ",\"min\":";
  AppendU64(h.min, out);
  *out += ",\"max\":";
  AppendU64(h.max, out);
  *out += ",\"mean\":";
  AppendDouble(h.mean(), out);
  *out += ",\"p50\":";
  AppendDouble(h.Percentile(0.50), out);
  *out += ",\"p90\":";
  AppendDouble(h.Percentile(0.90), out);
  *out += ",\"p99\":";
  AppendDouble(h.Percentile(0.99), out);
  // Sparse bucket map keeps the export compact: only non-empty buckets,
  // keyed by the bucket's exclusive upper bound 2^b (0 for the zero
  // bucket).
  *out += ",\"buckets\":{";
  bool first = true;
  for (size_t b = 0; b < h.buckets.size(); ++b) {
    if (h.buckets[b] == 0) continue;
    if (!first) out->push_back(',');
    first = false;
    out->push_back('"');
    AppendU64(b == 0 ? 0 : (b >= 64 ? UINT64_MAX : (1ull << b)), out);
    *out += "\":";
    AppendU64(h.buckets[b], out);
  }
  *out += "}}";
}

void AppendChunkJson(const ChunkTrace& c, std::string* out) {
  *out += "{\"chunk_index\":";
  AppendU64(c.chunk_index, out);
  *out += ",\"element_count\":";
  AppendU64(c.element_count, out);
  *out += ",\"input_bytes\":";
  AppendU64(c.input_bytes, out);
  *out += ",\"output_bytes\":";
  AppendU64(c.output_bytes, out);
  *out += ",\"improvable\":";
  AppendBool(c.improvable, out);
  *out += ",\"stored_raw\":";
  AppendBool(c.stored_raw, out);
  *out += ",\"compressible_mask\":";
  AppendU64(c.compressible_mask, out);
  *out += ",\"htc_fraction\":";
  AppendDouble(c.htc_fraction, out);
  *out += ",\"solver_input_bytes\":";
  AppendU64(c.solver_input_bytes, out);
  *out += ",\"solver_output_bytes\":";
  AppendU64(c.solver_output_bytes, out);
  *out += ",\"raw_bytes\":";
  AppendU64(c.raw_bytes, out);
  *out += ",\"analysis_seconds\":";
  AppendDouble(c.analysis_seconds, out);
  *out += ",\"partition_seconds\":";
  AppendDouble(c.partition_seconds, out);
  *out += ",\"codec_seconds\":";
  AppendDouble(c.codec_seconds, out);
  *out += "}";
}

void AppendPipelineJson(const PipelineTrace& p, std::string* out) {
  *out += "{\"pipeline_id\":";
  AppendU64(p.pipeline_id, out);
  *out += ",\"codec\":";
  AppendEscaped(p.codec, out);
  *out += ",\"linearization\":";
  AppendEscaped(p.linearization, out);
  *out += ",\"preference\":";
  AppendEscaped(p.preference, out);
  *out += ",\"width\":";
  AppendU64(p.width, out);
  *out += ",\"input_bytes\":";
  AppendU64(p.input_bytes, out);
  *out += ",\"output_bytes\":";
  AppendU64(p.output_bytes, out);
  *out += ",\"header_bytes\":";
  AppendU64(p.header_bytes, out);
  *out += ",\"finished\":";
  AppendBool(p.finished, out);
  *out += ",\"dropped_chunks\":";
  AppendU64(p.dropped_chunks, out);
  *out += ",\"candidates\":[";
  for (size_t i = 0; i < p.candidates.size(); ++i) {
    if (i > 0) out->push_back(',');
    const CandidateTrace& cand = p.candidates[i];
    *out += "{\"codec\":";
    AppendEscaped(cand.codec, out);
    *out += ",\"linearization\":";
    AppendEscaped(cand.linearization, out);
    *out += ",\"ratio\":";
    AppendDouble(cand.ratio, out);
    *out += ",\"throughput_mbps\":";
    AppendDouble(cand.throughput_mbps, out);
    *out += "}";
  }
  *out += "],\"chunks\":[";
  for (size_t i = 0; i < p.chunks.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendChunkJson(p.chunks[i], out);
  }
  *out += "]}";
}

// Trace-event timestamps are microseconds; emitting them as integer
// micros with the nanosecond remainder as an exact 3-digit fraction keeps
// full precision at any run length (a %.9g double would round once a run
// passes ~1000 seconds).
void AppendMicrosFromNanos(int64_t nanos, std::string* out) {
  if (nanos < 0) nanos = 0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, nanos / 1000,
                nanos % 1000);
  *out += buf;
}

void AppendTimelineEventJson(const TimelineEventSnapshot& e,
                             std::string* out) {
  const bool complete = e.phase == TimelinePhase::kComplete;
  *out += complete ? "{\"ph\":\"X\"" : "{\"ph\":\"i\",\"s\":\"t\"";
  *out += ",\"pid\":1,\"tid\":";
  AppendU64(e.tid, out);
  *out += ",\"ts\":";
  AppendMicrosFromNanos(e.start_nanos, out);
  if (complete) {
    *out += ",\"dur\":";
    AppendMicrosFromNanos(e.duration_nanos, out);
  }
  *out += ",\"name\":";
  AppendEscaped(e.name, out);
  if (e.arg0 != 0 || e.arg1 != 0) {
    *out += ",\"args\":{";
    bool first = true;
    if (e.arg0 != 0) {
      *out += "\"pipeline\":";
      AppendU64(e.arg0, out);
      first = false;
    }
    if (e.arg1 != 0) {
      if (!first) out->push_back(',');
      *out += "\"chunk\":";
      AppendU64(e.arg1 - 1, out);
    }
    *out += "}";
  }
  *out += "}";
}

}  // namespace

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder& recorder = *new TraceRecorder();
  return recorder;
}

void TraceRecorder::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void TraceRecorder::set_max_chunks_per_pipeline(size_t max_chunks) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_chunks_per_pipeline_ = max_chunks;
}

void TraceRecorder::set_max_pipelines(size_t max_pipelines) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_pipelines_ = max_pipelines;
}

PipelineTrace* TraceRecorder::Find(uint64_t pipeline_id) {
  for (auto& p : pipelines_) {
    if (p.pipeline_id == pipeline_id) return &p;
  }
  return nullptr;
}

uint64_t TraceRecorder::BeginPipeline(std::string codec,
                                      std::string linearization,
                                      std::string preference, uint64_t width) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (pipelines_.size() >= max_pipelines_) {
    // Evict the oldest finished pipeline; if none finished, the oldest.
    auto victim = std::find_if(pipelines_.begin(), pipelines_.end(),
                               [](const PipelineTrace& p) { return p.finished; });
    if (victim == pipelines_.end()) victim = pipelines_.begin();
    pipelines_.erase(victim);
  }
  PipelineTrace trace;
  trace.pipeline_id = next_id_++;
  trace.codec = std::move(codec);
  trace.linearization = std::move(linearization);
  trace.preference = std::move(preference);
  trace.width = width;
  pipelines_.push_back(std::move(trace));
  return pipelines_.back().pipeline_id;
}

void TraceRecorder::RecordCandidate(uint64_t pipeline_id,
                                    CandidateTrace candidate) {
  if (!enabled() || pipeline_id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  PipelineTrace* p = Find(pipeline_id);
  if (p != nullptr) p->candidates.push_back(std::move(candidate));
}

void TraceRecorder::RecordChunk(uint64_t pipeline_id, ChunkTrace chunk) {
  if (!enabled() || pipeline_id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  PipelineTrace* p = Find(pipeline_id);
  if (p == nullptr) return;
  chunk.chunk_index = p->chunks.size() + p->dropped_chunks;
  if (p->chunks.size() >= max_chunks_per_pipeline_) {
    ++p->dropped_chunks;
    // Same drop counter the timeline rings use: any bounded telemetry
    // store that sheds data announces it here.
    static Counter& dropped = GetCounter("telemetry.events_dropped");
    dropped.Increment();
    return;
  }
  p->chunks.push_back(std::move(chunk));
}

void TraceRecorder::EndPipeline(uint64_t pipeline_id, uint64_t input_bytes,
                                uint64_t output_bytes, uint64_t header_bytes) {
  if (pipeline_id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  PipelineTrace* p = Find(pipeline_id);
  if (p == nullptr) return;
  p->input_bytes = input_bytes;
  p->output_bytes = output_bytes;
  p->header_bytes = header_bytes;
  p->finished = true;
}

std::vector<PipelineTrace> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pipelines_;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  pipelines_.clear();
}

// --- Exporters -----------------------------------------------------------

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  std::string out;
  out += "{\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendEscaped(snapshot.counters[i].name, &out);
    out.push_back(':');
    AppendU64(snapshot.counters[i].value, &out);
  }
  out += "},\"histograms\":[";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendHistogramJson(snapshot.histograms[i], &out);
  }
  out += "]}";
  return out;
}

std::string MetricsToCsv(const MetricsSnapshot& snapshot) {
  std::string out = "kind,name,count,sum,min,max,mean,p50,p90,p99\n";
  for (const auto& c : snapshot.counters) {
    out += "counter," + c.name + ",";
    AppendU64(c.value, &out);
    out.push_back(',');
    AppendU64(c.value, &out);
    out += ",,,,,,\n";
  }
  for (const auto& h : snapshot.histograms) {
    out += "histogram," + h.name + ",";
    AppendU64(h.count, &out);
    out.push_back(',');
    AppendU64(h.sum, &out);
    out.push_back(',');
    AppendU64(h.min, &out);
    out.push_back(',');
    AppendU64(h.max, &out);
    out.push_back(',');
    AppendDouble(h.mean(), &out);
    out.push_back(',');
    AppendDouble(h.Percentile(0.50), &out);
    out.push_back(',');
    AppendDouble(h.Percentile(0.90), &out);
    out.push_back(',');
    AppendDouble(h.Percentile(0.99), &out);
    out.push_back('\n');
  }
  return out;
}

std::string TraceToJson(const std::vector<PipelineTrace>& pipelines) {
  std::string out = "[";
  for (size_t i = 0; i < pipelines.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendPipelineJson(pipelines[i], &out);
  }
  out += "]";
  return out;
}

std::string TraceToCsv(const std::vector<PipelineTrace>& pipelines) {
  std::string out =
      "pipeline_id,chunk_index,element_count,input_bytes,output_bytes,"
      "improvable,stored_raw,compressible_mask,htc_fraction,"
      "solver_input_bytes,solver_output_bytes,raw_bytes,"
      "analysis_seconds,partition_seconds,codec_seconds\n";
  for (const auto& p : pipelines) {
    for (const auto& c : p.chunks) {
      AppendU64(p.pipeline_id, &out);
      out.push_back(',');
      AppendU64(c.chunk_index, &out);
      out.push_back(',');
      AppendU64(c.element_count, &out);
      out.push_back(',');
      AppendU64(c.input_bytes, &out);
      out.push_back(',');
      AppendU64(c.output_bytes, &out);
      out.push_back(',');
      out += c.improvable ? "1," : "0,";
      out += c.stored_raw ? "1," : "0,";
      AppendU64(c.compressible_mask, &out);
      out.push_back(',');
      AppendDouble(c.htc_fraction, &out);
      out.push_back(',');
      AppendU64(c.solver_input_bytes, &out);
      out.push_back(',');
      AppendU64(c.solver_output_bytes, &out);
      out.push_back(',');
      AppendU64(c.raw_bytes, &out);
      out.push_back(',');
      AppendDouble(c.analysis_seconds, &out);
      out.push_back(',');
      AppendDouble(c.partition_seconds, &out);
      out.push_back(',');
      AppendDouble(c.codec_seconds, &out);
      out.push_back('\n');
    }
  }
  return out;
}

std::string TimelineToJson(const std::vector<ThreadTimelineSnapshot>& threads) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& thread : threads) {
    if (!first) out.push_back(',');
    first = false;
    // Metadata event naming the track; unnamed threads still get a
    // stable, readable label.
    std::string label = thread.name;
    if (label.empty()) {
      label = "thread-";
      AppendU64(thread.tid, &label);
    }
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    AppendU64(thread.tid, &out);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    AppendEscaped(label, &out);
    out += "}}";
    for (const auto& event : thread.events) {
      out.push_back(',');
      AppendTimelineEventJson(event, &out);
    }
  }
  out += "]}";
  return out;
}

std::string FlightRecorderToJson(
    const std::vector<TimelineEventSnapshot>& events) {
  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendTimelineEventJson(events[i], &out);
  }
  out += "]";
  return out;
}

std::string TelemetryReportJson() {
  std::string out = "{\"metrics\":";
  out += MetricsToJson(MetricsRegistry::Global().Snapshot());
  out += ",\"spans\":";
  out += FlightRecorderToJson(Timeline::Global().SnapshotRecent(
      std::numeric_limits<size_t>::max()));
  out += ",\"pipelines\":";
  out += TraceToJson(TraceRecorder::Global().Snapshot());
  out += "}";
  return out;
}

}  // namespace isobar::telemetry
