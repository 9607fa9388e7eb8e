#include "telemetry/timeline.h"

#include <algorithm>
#include <cstring>

namespace isobar::telemetry {

namespace internal {

std::atomic<bool> g_timeline_enabled{false};

// One ring slot, seqlock-protected (Boehm, "Can seqlocks get along with
// programming language memory models?"). The single writer makes seq odd,
// stores the fields relaxed, then makes seq even again with release;
// readers validate seq before and after their relaxed field loads and
// discard the slot if it moved. Every field is an atomic so the
// concurrent overwrite-during-read is a race only in the benign,
// sanitizer-clean sense.
struct TimelineSlot {
  std::atomic<uint64_t> seq{0};  // odd while being written
  std::atomic<const char*> name_data{nullptr};
  std::atomic<uint32_t> name_size{0};
  std::atomic<uint8_t> phase{0};
  std::atomic<int64_t> start_nanos{0};
  std::atomic<int64_t> duration_nanos{0};
  std::atomic<uint64_t> arg0{0};
  std::atomic<uint64_t> arg1{0};
};

struct TimelineThreadBuffer {
  explicit TimelineThreadBuffer(size_t capacity)
      : capacity(capacity), slots(new TimelineSlot[capacity]) {}

  uint32_t tid = 0;
  std::string name;  // guarded by Timeline::mutex_
  // Held by a live thread. Cleared (release) when that thread exits; the
  // next thread to register adopts the ring (acquire, under the mutex).
  std::atomic<bool> leased{true};
  size_t capacity;
  std::atomic<uint64_t> cursor{0};  // total events ever written
  std::atomic<uint64_t> dropped{0};
  std::unique_ptr<TimelineSlot[]> slots;
};

}  // namespace internal

namespace {

using internal::TimelineSlot;
using internal::TimelineThreadBuffer;

// The calling thread's ring, once registered. A plain pointer so the hot
// path pays one TLS load; the buffer itself lives in (and is owned by)
// the leaked Timeline, so it outlives the thread.
thread_local TimelineThreadBuffer* t_buffer = nullptr;

// Hands the thread's ring back when the thread exits, so a process that
// keeps starting short-lived pool workers holds as many rings as it ever
// had emitting threads at once, not one per thread it ever started.
struct RingLease {
  RingLease() = default;
  RingLease(const RingLease&) = delete;
  RingLease& operator=(const RingLease&) = delete;
  ~RingLease() {
    if (buffer != nullptr) {
      buffer->leased.store(false, std::memory_order_release);
    }
    t_buffer = nullptr;
  }

  TimelineThreadBuffer* buffer = nullptr;
};
thread_local RingLease t_lease;

// Name requested via SetCurrentThreadName before the thread's first
// emit; applied at registration.
thread_local std::string t_pending_name;

// Reads the slot holding absolute ring index `i`; false if the writer is
// mid-update or has already moved on. The writer bumps seq twice per
// event, so the event at absolute index i leaves seq at exactly
// 2*(i/capacity + 1) — requiring that exact value (not just an even,
// stable one) rejects slots a wrapping writer overwrote after the cursor
// was sampled. Without the generation check a snapshot racing a wrap
// could return a brand-new event in an old event's window position,
// breaking the oldest-to-newest ordering contract.
bool ReadSlot(const TimelineSlot& slot, uint64_t expected_seq,
              TimelineEventSnapshot* out) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before != expected_seq) {
      if (seq_before > expected_seq) return false;  // lapped: gone for good
      continue;  // writer mid-update; retry
    }
    const char* name_data = slot.name_data.load(std::memory_order_relaxed);
    const uint32_t name_size = slot.name_size.load(std::memory_order_relaxed);
    const uint8_t phase = slot.phase.load(std::memory_order_relaxed);
    const int64_t start = slot.start_nanos.load(std::memory_order_relaxed);
    const int64_t duration =
        slot.duration_nanos.load(std::memory_order_relaxed);
    const uint64_t arg0 = slot.arg0.load(std::memory_order_relaxed);
    const uint64_t arg1 = slot.arg1.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;
    out->name.assign(name_data, name_size);  // literal: safe to deref now
    out->phase = static_cast<TimelinePhase>(phase);
    out->start_nanos = start;
    out->duration_nanos = duration;
    out->arg0 = arg0;
    out->arg1 = arg1;
    return true;
  }
  return false;
}

}  // namespace

Timeline::~Timeline() = default;

Timeline& Timeline::Global() {
  static Timeline& timeline = *new Timeline();
  return timeline;
}

void Timeline::SetEnabled(bool enabled) {
  if constexpr (!kCompiledIn) {
    (void)enabled;
    return;
  }
  internal::g_timeline_enabled.store(enabled, std::memory_order_relaxed);
}

void Timeline::set_capacity_per_thread(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_per_thread_ = std::max<size_t>(capacity, 16);
}

size_t Timeline::capacity_per_thread() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_per_thread_;
}

internal::TimelineThreadBuffer* Timeline::RegisterCurrentThread() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Adopt the ring of an exited thread when one of the current capacity is
  // free. It keeps its tid, cursor and events: the earlier owner's events
  // stay until this thread overwrites them, each overwrite counted as a
  // drop like any other wrap.
  TimelineThreadBuffer* buffer = nullptr;
  for (const auto& ring : buffers_) {
    if (ring->capacity == capacity_per_thread_ &&
        !ring->leased.load(std::memory_order_acquire)) {
      buffer = ring.get();
      buffer->leased.store(true, std::memory_order_relaxed);
      break;
    }
  }
  if (buffer == nullptr) {
    buffers_.push_back(
        std::make_unique<TimelineThreadBuffer>(capacity_per_thread_));
    buffer = buffers_.back().get();
    buffer->tid = static_cast<uint32_t>(buffers_.size() - 1);
  }
  buffer->name = std::move(t_pending_name);
  t_pending_name = std::string();
  t_lease.buffer = buffer;
  return buffer;
}

void Timeline::Emit(std::string_view name, TimelinePhase phase,
                    int64_t start_nanos, int64_t duration_nanos,
                    uint64_t arg0, uint64_t arg1) {
  if (!Enabled()) return;
  TimelineThreadBuffer* buffer = t_buffer;
  if (buffer == nullptr) {
    buffer = Global().RegisterCurrentThread();
    t_buffer = buffer;
  }
  const uint64_t index = buffer->cursor.load(std::memory_order_relaxed);
  TimelineSlot& slot = buffer->slots[index % buffer->capacity];
  if (index >= buffer->capacity) {
    // The ring wraps: this write evicts the oldest event. Never silent —
    // an exporter that sees the counter move knows its window is partial.
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    static Counter& dropped_counter = GetCounter("telemetry.events_dropped");
    dropped_counter.Increment();
  }
  const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.name_data.store(name.data(), std::memory_order_relaxed);
  slot.name_size.store(static_cast<uint32_t>(name.size()),
                       std::memory_order_relaxed);
  slot.phase.store(static_cast<uint8_t>(phase), std::memory_order_relaxed);
  slot.start_nanos.store(start_nanos, std::memory_order_relaxed);
  slot.duration_nanos.store(duration_nanos, std::memory_order_relaxed);
  slot.arg0.store(arg0, std::memory_order_relaxed);
  slot.arg1.store(arg1, std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
  buffer->cursor.store(index + 1, std::memory_order_release);
}

void Timeline::SetCurrentThreadName(std::string_view name) {
  if constexpr (!kCompiledIn) {
    (void)name;
    return;
  }
  if (t_buffer != nullptr) {
    std::lock_guard<std::mutex> lock(Global().mutex_);
    t_buffer->name.assign(name);
  } else if (Enabled()) {
    // Timeline already on: register now so the thread owns a named track
    // even if it never emits (a pool worker that wins no tasks still
    // shows up, visibly idle, instead of vanishing from the trace).
    t_pending_name.assign(name);
    t_buffer = Global().RegisterCurrentThread();
  } else {
    t_pending_name.assign(name);
  }
}

std::vector<ThreadTimelineSnapshot> Timeline::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ThreadTimelineSnapshot> out;
  out.reserve(buffers_.size());
  for (const auto& buffer : buffers_) {
    ThreadTimelineSnapshot thread;
    thread.tid = buffer->tid;
    thread.name = buffer->name;
    thread.dropped = buffer->dropped.load(std::memory_order_relaxed);
    const uint64_t cursor = buffer->cursor.load(std::memory_order_acquire);
    const uint64_t count = std::min<uint64_t>(cursor, buffer->capacity);
    thread.events.reserve(count);
    for (uint64_t i = cursor - count; i < cursor; ++i) {
      TimelineEventSnapshot event;
      const uint64_t expected_seq = 2 * (i / buffer->capacity + 1);
      if (!ReadSlot(buffer->slots[i % buffer->capacity], expected_seq,
                    &event)) {
        continue;
      }
      event.tid = buffer->tid;
      thread.events.push_back(std::move(event));
    }
    out.push_back(std::move(thread));
  }
  return out;
}

std::vector<TimelineEventSnapshot> Timeline::SnapshotRecent(
    size_t max_events) const {
  std::vector<TimelineEventSnapshot> all;
  for (auto& thread : Snapshot()) {
    for (auto& event : thread.events) all.push_back(std::move(event));
  }
  // "Recent" means latest end time: a long-running slice that just closed
  // is part of the story even if it started long ago.
  std::sort(all.begin(), all.end(),
            [](const TimelineEventSnapshot& a, const TimelineEventSnapshot& b) {
              return a.start_nanos + a.duration_nanos <
                     b.start_nanos + b.duration_nanos;
            });
  if (all.size() > max_events) {
    all.erase(all.begin(), all.end() - static_cast<ptrdiff_t>(max_events));
  }
  std::sort(all.begin(), all.end(),
            [](const TimelineEventSnapshot& a, const TimelineEventSnapshot& b) {
              return a.start_nanos < b.start_nanos;
            });
  return all;
}

void Timeline::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) {
    buffer->cursor.store(0, std::memory_order_relaxed);
    buffer->dropped.store(0, std::memory_order_relaxed);
    // Slot seqs must restart too: readers derive the expected seq from
    // the absolute index, so stale generations would make every event
    // written after the rewind look lapped.
    for (size_t i = 0; i < buffer->capacity; ++i) {
      buffer->slots[i].seq.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace isobar::telemetry
