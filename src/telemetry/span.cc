#include "telemetry/span.h"

#include <string>

#include "telemetry/timeline.h"
#include "util/stopwatch.h"

namespace isobar::telemetry {

int64_t MonotonicNanos() {
  static const Stopwatch& epoch = *new Stopwatch();
  return epoch.ElapsedNanos();
}

SpanSite::SpanSite(std::string_view name)
    : SpanSite(name, "span." + std::string(name) + ".nanos") {}

SpanSite::SpanSite(std::string_view name, std::string_view histogram_name)
    : name(name), histogram(GetHistogram(histogram_name)) {}

ScopedSpan::ScopedSpan(const SpanSite& site, uint64_t arg0, uint64_t arg1)
    : site_(site), start_nanos_(MonotonicNanos()), arg0_(arg0), arg1_(arg1) {}

double ScopedSpan::End() {
  if (duration_nanos_ < 0) {
    duration_nanos_ = MonotonicNanos() - start_nanos_;
    if (Enabled()) {
      site_.histogram.Observe(static_cast<uint64_t>(duration_nanos_));
      Timeline::Emit(site_.name, TimelinePhase::kComplete, start_nanos_,
                     duration_nanos_, arg0_, arg1_);
    }
  }
  return static_cast<double>(duration_nanos_) * 1e-9;
}

}  // namespace isobar::telemetry
