#ifndef ISOBAR_TELEMETRY_TIMELINE_H_
#define ISOBAR_TELEMETRY_TIMELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.h"

namespace isobar::telemetry {

/// Kind of a timeline event.
enum class TimelinePhase : uint8_t {
  kComplete = 0,  ///< A finished slice: start + duration (Chrome "X").
  kInstant = 1,   ///< A point in time (Chrome "i").
};

/// One decoded event, as returned by Timeline snapshots. The recording
/// side stores only a pointer to the (static-lifetime) name; snapshots
/// materialize it into an owning string so callers can hold or ship them
/// without any lifetime coupling to the instrumentation sites.
struct TimelineEventSnapshot {
  std::string name;
  uint32_t tid = 0;  ///< Timeline ring (track) index, in creation order.
  TimelinePhase phase = TimelinePhase::kComplete;
  int64_t start_nanos = 0;     ///< MonotonicNanos() time base.
  int64_t duration_nanos = 0;  ///< 0 for instants.
  uint64_t arg0 = 0;           ///< Pipeline id (0 = unset).
  uint64_t arg1 = 0;           ///< Chunk index + 1 (0 = unset).
};

/// Everything one ring buffer (track) held at snapshot time.
struct ThreadTimelineSnapshot {
  uint32_t tid = 0;
  std::string name;        ///< Its latest owner's name; empty if unnamed.
  uint64_t dropped = 0;    ///< Events overwritten by ring wrap-around.
  std::vector<TimelineEventSnapshot> events;  ///< Oldest to newest.
};

namespace internal {
extern std::atomic<bool> g_timeline_enabled;
struct TimelineThreadBuffer;
}  // namespace internal

/// Process-wide cross-thread event timeline. Each thread that emits gets
/// its own fixed-capacity ring buffer, written lock-free (a per-slot
/// seqlock: the single writer bumps a sequence counter around its field
/// stores, readers discard slots whose sequence moved under them), so a
/// worker records a pipeline-stage event in tens of nanoseconds and never
/// contends with other workers or with an exporter snapshotting mid-run.
///
/// The rings overwrite their oldest events when full — the timeline is a
/// flight recorder, always holding the most recent window of activity —
/// and every overwrite counts into `telemetry.events_dropped`.
///
/// A ring outlives its thread: when the thread exits, the ring is handed
/// back and the next thread to register adopts it (tid, name slot and the
/// earlier owner's events, until overwritten). A track is therefore a
/// ring, not a thread, and a process that keeps starting per-call pool
/// workers holds only as many rings as it had emitting threads at once.
///
/// Event names must have process lifetime (instrumentation sites pass
/// string literals); only the pointer is stored on the hot path.
class Timeline {
 public:
  static Timeline& Global();

  /// Gated separately from metrics (events hold memory, not
  /// aggregates). Off by default; one relaxed load per emit site when
  /// off, and with ISOBAR_TELEMETRY=OFF the check folds to constant
  /// false.
  static bool Enabled() {
    if constexpr (!kCompiledIn) return false;
    return internal::g_timeline_enabled.load(std::memory_order_relaxed);
  }
  void SetEnabled(bool enabled);

  /// Ring capacity (events) for threads that register after the call;
  /// already-registered threads keep their rings, and a free ring of
  /// another capacity is not adopted. Clamped to >= 16.
  /// Default 8192 events per thread.
  void set_capacity_per_thread(size_t capacity);
  size_t capacity_per_thread() const;

  /// Records one event on the calling thread's ring (registering the
  /// thread on first use). `name` must outlive the process (pass a string
  /// literal). No-op when disabled.
  static void Emit(std::string_view name, TimelinePhase phase,
                   int64_t start_nanos, int64_t duration_nanos,
                   uint64_t arg0 = 0, uint64_t arg1 = 0);

  /// Names the calling thread's timeline track ("worker-3", "writer").
  /// Callable before the thread ever emits (the name is stashed and
  /// applied on registration); cheap enough to call unconditionally.
  static void SetCurrentThreadName(std::string_view name);

  /// Every thread's ring, decoded oldest-to-newest. Safe to call while
  /// workers are emitting: slots being overwritten mid-read are detected
  /// by their seqlock and skipped.
  std::vector<ThreadTimelineSnapshot> Snapshot() const;

  /// The `max_events` most recently *finished* events across all threads,
  /// ordered by start time — the flight-recorder view a post-mortem
  /// report embeds.
  std::vector<TimelineEventSnapshot> SnapshotRecent(size_t max_events) const;

  /// Rewinds every ring (registered threads stay registered, capacities
  /// keep). Test hook: only safe while no thread is emitting.
  void Clear();

 private:
  Timeline() = default;
  ~Timeline();  // never runs: Global() is leaked, like the registry
  internal::TimelineThreadBuffer* RegisterCurrentThread();

  mutable std::mutex mutex_;  ///< Guards buffers_ and capacity_.
  size_t capacity_per_thread_ = 8192;
  std::vector<std::unique_ptr<internal::TimelineThreadBuffer>> buffers_;
};

}  // namespace isobar::telemetry

#endif  // ISOBAR_TELEMETRY_TIMELINE_H_
