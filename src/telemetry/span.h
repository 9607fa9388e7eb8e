#ifndef ISOBAR_TELEMETRY_SPAN_H_
#define ISOBAR_TELEMETRY_SPAN_H_

#include <cstdint>
#include <string_view>

#include "telemetry/metrics.h"

namespace isobar::telemetry {

/// Where a span is taken: its name (the Timeline slice name) and the
/// histogram its durations feed, `span.<name>.nanos` unless one is named.
/// Each call site declares its site once, as a function-local static, so
/// the name→histogram lookup happens on first use and never again:
///
///   static const telemetry::SpanSite solve_site("chunk.solve");
///   telemetry::ScopedSpan solve_span(solve_site, pipeline_id, chunk + 1);
///   ...
///   stats->codec_seconds += solve_span.End();
///
/// `name` must outlive the process (the Timeline keeps only the pointer):
/// a string literal, or a string owned by a never-destroyed object.
struct SpanSite {
  explicit SpanSite(std::string_view name);
  SpanSite(std::string_view name, std::string_view histogram_name);

  std::string_view name;
  Histogram& histogram;
};

/// RAII wall-clock timer over one pipeline stage, and that stage's only
/// clock: the stage's stats seconds are its span's End().
/// A span always reads the clock, so those numbers exist with telemetry
/// off or compiled out. When it closes with telemetry on, it also
/// observes its duration into its site's histogram and, when the Timeline
/// is on, lands there as one complete event carrying its args. Spans nest
/// by time containment on their thread's Timeline track:
///
///   compress
///   ├── eupa.phase
///   │   └── eupa.select
///   ├── compress.chunk            (one per chunk, on a worker's track)
///   │   ├── chunk.analyze
///   │   ├── chunk.partition
///   │   └── chunk.solve
///   │       └── codec.<name>
///   ├── writer.wait
///   └── writer.append
class ScopedSpan {
 public:
  /// Starts the clock. `arg0` tags the span with its pipeline id (the
  /// writer's process-wide sequence number) and `arg1` with its chunk
  /// ordinal + 1, so timeline tooling can group slices per pipeline and
  /// chunk; zero means unset for both.
  explicit ScopedSpan(const SpanSite& site, uint64_t arg0 = 0,
                      uint64_t arg1 = 0);
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span and returns its seconds. Only the first call closes
  /// it; later calls, and the destructor, return the same value.
  double End();

 private:
  const SpanSite& site_;
  int64_t start_nanos_;
  int64_t duration_nanos_ = -1;  ///< -1 while the span is open
  uint64_t arg0_;
  uint64_t arg1_;
};

/// Monotonic nanoseconds since the first telemetry use in this process;
/// the time base of Timeline events.
int64_t MonotonicNanos();

}  // namespace isobar::telemetry

#endif  // ISOBAR_TELEMETRY_SPAN_H_
