#include "telemetry/trace_export.h"

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
  out += "}";
  return out;
}

}  // namespace isobar::telemetry
