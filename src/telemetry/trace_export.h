#ifndef ISOBAR_TELEMETRY_TRACE_EXPORT_H_
#define ISOBAR_TELEMETRY_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/timeline.h"

namespace isobar::telemetry {

// --- Exporters -----------------------------------------------------------
// All exporters emit self-contained documents; JSON output is strict
// (RFC 8259) so downstream tooling can parse it without a lenient reader.

std::string MetricsToJson(const MetricsSnapshot& snapshot);
/// CSV with one row per instrument:
/// kind,name,count,sum,min,max,mean,p50,p90,p99 (counter rows leave the
/// histogram-only columns empty)
/// (counters use value for both count and sum).
std::string MetricsToCsv(const MetricsSnapshot& snapshot);

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
/// document: current global metrics and every event the Timeline holds
/// (ordered by start; empty unless the Timeline is on), as
/// {"metrics": ..., "spans": [...]}.
std::string TelemetryReportJson();

}  // namespace isobar::telemetry

#endif  // ISOBAR_TELEMETRY_TRACE_EXPORT_H_
