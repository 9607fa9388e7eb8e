// Cross-thread timeline suite: the per-thread seqlock rings (ordering
// under a loaded 8-worker pool, wrap-around drop accounting), thread
// naming, the Chrome trace-event exporter (validated with the strict
// JSON reader so the export and its consumer check each other), the
// flight-recorder snapshot, its embedding in SalvageReport, and the
// pipeline id every compress chunk slice carries.
#include "telemetry/timeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/container.h"
#include "core/isobar.h"
#include "datagen/registry.h"
#include "io/fault_injection.h"
#include "telemetry/json_reader.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/trace_export.h"
#include "util/thread_pool.h"

namespace isobar::telemetry {
namespace {

class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
    SetEnabled(true);
    Timeline::Global().SetEnabled(true);
    Timeline::Global().Clear();
  }
  void TearDown() override {
    if (!kCompiledIn) return;
    Timeline::Global().SetEnabled(false);
    Timeline::Global().Clear();
    Timeline::Global().set_capacity_per_thread(8192);
    SetEnabled(false);
  }
};

/// The calling thread's snapshot, located by a sentinel event it just
/// emitted (tids are registration-order and tests share the process).
ThreadTimelineSnapshot FindThreadWith(const char* sentinel) {
  for (auto& thread : Timeline::Global().Snapshot()) {
    for (const auto& event : thread.events) {
      if (event.name == sentinel) return thread;
    }
  }
  return {};
}

TEST_F(TimelineTest, EmitRoundTripsAllFields) {
  Timeline::SetCurrentThreadName("timeline-test");
  Timeline::Emit("unit.sentinel.roundtrip", TimelinePhase::kComplete, 1000,
                 250, 7, 3);
  const ThreadTimelineSnapshot thread =
      FindThreadWith("unit.sentinel.roundtrip");
  ASSERT_FALSE(thread.events.empty());
  EXPECT_EQ(thread.name, "timeline-test");
  const TimelineEventSnapshot& event = thread.events.back();
  EXPECT_EQ(event.name, "unit.sentinel.roundtrip");
  EXPECT_EQ(event.phase, TimelinePhase::kComplete);
  EXPECT_EQ(event.start_nanos, 1000);
  EXPECT_EQ(event.duration_nanos, 250);
  EXPECT_EQ(event.arg0, 7u);
  EXPECT_EQ(event.arg1, 3u);
}

TEST_F(TimelineTest, DisabledEmitIsInert) {
  Timeline::Emit("unit.sentinel.before", TimelinePhase::kInstant, 1, 0);
  Timeline::Global().SetEnabled(false);
  Timeline::Emit("unit.sentinel.while_off", TimelinePhase::kInstant, 2, 0);
  Timeline::Global().SetEnabled(true);
  const ThreadTimelineSnapshot thread =
      FindThreadWith("unit.sentinel.before");
  ASSERT_FALSE(thread.events.empty());
  for (const auto& event : thread.events) {
    EXPECT_NE(event.name, "unit.sentinel.while_off");
  }
}

TEST_F(TimelineTest, ScopedSpanEmitsCompleteEventWithArgs) {
  static const SpanSite site("unit.span.timeline");
  { ScopedSpan span(site, 42, 6); }
  const ThreadTimelineSnapshot thread = FindThreadWith("unit.span.timeline");
  ASSERT_FALSE(thread.events.empty());
  const TimelineEventSnapshot& event = thread.events.back();
  EXPECT_EQ(event.phase, TimelinePhase::kComplete);
  EXPECT_GE(event.duration_nanos, 0);
  EXPECT_EQ(event.arg0, 42u);   // pipeline id
  EXPECT_EQ(event.arg1, 6u);    // chunk ordinal + 1
}

TEST_F(TimelineTest, RingWrapCountsDroppedEvents) {
  // Capacity applies to threads registered after the call, so the wrap
  // is driven from a fresh thread with its own 16-slot ring.
  Timeline::Global().set_capacity_per_thread(16);
  const uint64_t dropped_before =
      GetCounter("telemetry.events_dropped").value();
  std::thread emitter([] {
    Timeline::SetCurrentThreadName("wrap-test");
    for (int i = 0; i < 100; ++i) {
      Timeline::Emit("unit.sentinel.wrap", TimelinePhase::kComplete, i, 1);
    }
  });
  emitter.join();
  const ThreadTimelineSnapshot thread = FindThreadWith("unit.sentinel.wrap");
  EXPECT_EQ(thread.name, "wrap-test");
  EXPECT_EQ(thread.events.size(), 16u);
  EXPECT_EQ(thread.dropped, 84u);
  // Oldest events were evicted: the surviving window is the newest 16.
  EXPECT_EQ(thread.events.front().start_nanos, 84);
  EXPECT_EQ(thread.events.back().start_nanos, 99);
  EXPECT_GE(GetCounter("telemetry.events_dropped").value(),
            dropped_before + 84);
}

TEST_F(TimelineTest, ExitedWorkersHandTheirRingsOn) {
  // Every pooled call starts fresh workers. A worker's ring goes back when
  // it exits and the next call's workers adopt it, so 20 calls add the
  // tracks of one call (four workers, plus this thread if it is new), not
  // one per worker per call.
  auto spec = FindDatasetSpec("s3d_vmag");
  ASSERT_TRUE(spec.ok());
  auto dataset = GenerateDataset(**spec, 40000);
  ASSERT_TRUE(dataset.ok());
  CompressOptions options;
  options.chunk_elements = 10000;
  options.num_threads = 4;
  options.eupa.sample_elements = 2048;
  const IsobarCompressor compressor(options);
  const size_t tracks_before = Timeline::Global().Snapshot().size();
  for (int call = 0; call < 20; ++call) {
    ASSERT_TRUE(compressor.Compress(dataset->bytes(), dataset->width()).ok());
  }
  EXPECT_LE(Timeline::Global().Snapshot().size(), tracks_before + 5);
}

TEST_F(TimelineTest, PerThreadOrderingHoldsUnderLoadedPool) {
  // Eight workers hammer spans concurrently while the main thread takes
  // snapshots mid-run. Each thread's ring must come back oldest-to-newest
  // (per-thread monotonic starts: spans close in LIFO order on a thread,
  // and the ring orders by emit = close time, so end times are what is
  // monotonic per thread) and the export must stay valid JSON throughout.
  static const SpanSite outer_site("unit.load.outer");
  static const SpanSite inner_site("unit.load.inner");
  ThreadPool pool(8);
  std::atomic<bool> stop{false};
  std::vector<std::future<void>> tasks;
  for (int t = 0; t < 8; ++t) {
    tasks.push_back(pool.Submit([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        ScopedSpan outer(outer_site, 1, 1);
        ScopedSpan inner(inner_site, 1, 2);
      }
    }));
  }
  for (int i = 0; i < 20; ++i) {
    const auto mid_run = Timeline::Global().Snapshot();
    for (const auto& thread : mid_run) {
      int64_t last_end = INT64_MIN;
      for (const auto& event : thread.events) {
        const int64_t end = event.start_nanos + event.duration_nanos;
        EXPECT_GE(end, last_end) << "ring not oldest-to-newest on thread "
                                 << thread.tid;
        last_end = end;
      }
    }
  }
  stop.store(true);
  for (auto& task : tasks) task.get();

  const std::string json =
      TimelineToJson(Timeline::Global().Snapshot());
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Every pool worker that emitted has a named track.
  int named_workers = 0;
  for (const JsonValue& event : events->array_items()) {
    if (event.FieldStringOr("ph", "") != "M") continue;
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    if (args->FieldStringOr("name", "").rfind("worker-", 0) == 0) {
      ++named_workers;
    }
  }
  EXPECT_GE(named_workers, 1);
}

TEST_F(TimelineTest, SnapshotRecentKeepsLatestFinishers) {
  Timeline::Emit("unit.recent.early", TimelinePhase::kComplete, 0, 10);
  Timeline::Emit("unit.recent.longrunner", TimelinePhase::kComplete, 5, 100);
  Timeline::Emit("unit.recent.late", TimelinePhase::kComplete, 50, 10);
  const auto recent = Timeline::Global().SnapshotRecent(2);
  ASSERT_EQ(recent.size(), 2u);
  // Kept by latest end time (105 and 60), returned in start order.
  EXPECT_EQ(recent[0].name, "unit.recent.longrunner");
  EXPECT_EQ(recent[1].name, "unit.recent.late");
}

TEST_F(TimelineTest, TimelineJsonArgsDecodeChunkOrdinal) {
  Timeline::Emit("unit.sentinel.args", TimelinePhase::kComplete, 10, 5,
                 /*arg0=*/9, /*arg1=*/4);
  const std::string json = TimelineToJson(Timeline::Global().Snapshot());
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const JsonValue& event : events->array_items()) {
    if (event.FieldStringOr("name", "") != "unit.sentinel.args") continue;
    found = true;
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->FieldNumberOr("pipeline", -1), 9);
    // The stored chunk+1 encoding is decoded back to the 0-based ordinal.
    EXPECT_EQ(args->FieldNumberOr("chunk", -1), 3);
  }
  EXPECT_TRUE(found);
}

TEST_F(TimelineTest, FlightRecorderJsonIsValid) {
  Timeline::Emit("unit.sentinel.flight", TimelinePhase::kComplete, 1, 2);
  const auto recent = Timeline::Global().SnapshotRecent(8);
  ASSERT_FALSE(recent.empty());
  auto parsed = ParseJson(FlightRecorderToJson(recent));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->is_array());
}

// --- Flight recorder embedding in SalvageReport --------------------------

Bytes MakeDamagedContainer() {
  auto spec = FindDatasetSpec("s3d_vmag");
  EXPECT_TRUE(spec.ok());
  auto dataset = GenerateDataset(**spec, 30000);
  EXPECT_TRUE(dataset.ok());
  CompressOptions options;
  options.chunk_elements = 10000;
  options.eupa.sample_elements = 2048;
  const IsobarCompressor compressor(options);
  auto compressed = compressor.Compress(dataset->bytes(), dataset->width());
  EXPECT_TRUE(compressed.ok());
  // Flip a payload byte in the middle record so its CRC (or the solver's
  // framing) rejects it while the record stays self-delimiting.
  Bytes mutated = *compressed;
  size_t offset = 0;
  auto header = container::ParseHeader(mutated, &offset);
  EXPECT_TRUE(header.ok());
  auto chunk0 = container::ParseChunkHeader(mutated, &offset);
  EXPECT_TRUE(chunk0.ok());
  offset += chunk0->compressed_size + chunk0->raw_size;
  auto chunk1 = container::ParseChunkHeader(mutated, &offset);
  EXPECT_TRUE(chunk1.ok());
  FlipBits(&mutated,
           offset + (chunk1->compressed_size + chunk1->raw_size) / 2, 0x20);
  return mutated;
}

TEST_F(TimelineTest, SalvageReportCarriesFlightRecorder) {
  const Bytes mutated = MakeDamagedContainer();
  SalvageReport report;
  DecompressOptions options;
  options.on_chunk_error = ChunkErrorPolicy::kSkip;
  options.salvage_report = &report;
  auto restored = IsobarCompressor::Decompress(mutated, options);
  ASSERT_TRUE(restored.ok());
  ASSERT_FALSE(report.clean());
  // The decode pipeline emitted events, so the post-mortem window is
  // populated and exports as valid JSON.
  ASSERT_FALSE(report.flight_recorder.empty());
  auto parsed = ParseJson(FlightRecorderToJson(report.flight_recorder));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  bool saw_decode = false;
  for (const auto& event : report.flight_recorder) {
    if (event.name == "decompress.chunk" || event.name == "chunk.decode") {
      saw_decode = true;
    }
  }
  EXPECT_TRUE(saw_decode);
}

TEST_F(TimelineTest, CleanDecodeLeavesFlightRecorderEmpty) {
  auto spec = FindDatasetSpec("s3d_vmag");
  ASSERT_TRUE(spec.ok());
  auto dataset = GenerateDataset(**spec, 20000);
  ASSERT_TRUE(dataset.ok());
  CompressOptions options;
  options.chunk_elements = 10000;
  options.eupa.sample_elements = 2048;
  const IsobarCompressor compressor(options);
  auto compressed = compressor.Compress(dataset->bytes(), dataset->width());
  ASSERT_TRUE(compressed.ok());
  SalvageReport report;
  DecompressOptions doptions;
  doptions.on_chunk_error = ChunkErrorPolicy::kSkip;
  doptions.salvage_report = &report;
  auto restored = IsobarCompressor::Decompress(*compressed, doptions);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.flight_recorder.empty());
}

TEST_F(TimelineTest, EveryPipelineTagsItsChunkSlices) {
  // With only the Timeline on, every chunk-stage slice still names its
  // pipeline: one nonzero id per Compress call, a new one per call.
  auto spec = FindDatasetSpec("s3d_vmag");
  ASSERT_TRUE(spec.ok());
  auto dataset = GenerateDataset(**spec, 30000);
  ASSERT_TRUE(dataset.ok());
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    CompressOptions options;
    options.chunk_elements = 10000;  // Three chunks.
    options.eupa.sample_elements = 2048;
    options.num_threads = threads;
    std::vector<uint64_t> call_ids;
    for (int call = 0; call < 2; ++call) {
      Timeline::Global().Clear();
      CompressionStats stats;
      ASSERT_TRUE(IsobarCompressor(options)
                      .Compress(dataset->bytes(), dataset->width(), &stats)
                      .ok());
      ASSERT_EQ(stats.chunk_count, 3u);
      std::set<uint64_t> ids;
      size_t slices = 0;
      for (const auto& thread : Timeline::Global().Snapshot()) {
        for (const auto& event : thread.events) {
          if (event.name != "compress.chunk" &&
              event.name != "chunk.analyze" &&
              event.name != "chunk.partition" && event.name != "chunk.solve") {
            continue;
          }
          ++slices;
          EXPECT_NE(event.arg0, 0u) << event.name;
          ids.insert(event.arg0);
        }
      }
      EXPECT_EQ(slices, 4u * 3u);
      ASSERT_EQ(ids.size(), 1u);
      call_ids.push_back(*ids.begin());
    }
    EXPECT_NE(call_ids[0], call_ids[1]);
  }
}

}  // namespace
}  // namespace isobar::telemetry
