#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/timeline.h"
#include "telemetry/trace_export.h"

namespace isobar::telemetry {
namespace {

// --- Minimal strict JSON syntax checker ----------------------------------
// The exporters promise RFC 8259 output; this walker accepts exactly the
// value grammar (no trailing commas, no bare words, no NaN/Infinity) so a
// malformed export fails the round-trip tests here rather than in
// downstream tooling.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(text_[pos_])) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(text_[pos_])) return false;
    while (pos_ < text_.size() && std::isdigit(text_[pos_])) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(text_[pos_])) return false;
      while (pos_ < text_.size() && std::isdigit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !std::isdigit(text_[pos_])) return false;
      while (pos_ < text_.size() && std::isdigit(text_[pos_])) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Expect(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) {
  return JsonChecker(text).Valid();
}

TEST(JsonCheckerTest, SanityOnKnownInputs) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("{\"a\":[1,2.5,-3e-2,true,null,\"x\\n\"]}"));
  EXPECT_FALSE(IsValidJson("{"));
  EXPECT_FALSE(IsValidJson("{\"a\":1,}"));
  EXPECT_FALSE(IsValidJson("{\"a\":nan}"));
  EXPECT_FALSE(IsValidJson("[1 2]"));
}

// Enables telemetry + tracing with pristine global state, restoring the
// disabled default on exit so unrelated tests never observe leftovers.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
    SetEnabled(true);
    TraceRecorder::Global().SetEnabled(true);
    MetricsRegistry::Global().ResetAll();
    TraceRecorder::Global().Clear();
    Timeline::Global().Clear();
  }

  void TearDown() override {
    if (!kCompiledIn) return;
    SetEnabled(false);
    TraceRecorder::Global().SetEnabled(false);
    Timeline::Global().SetEnabled(false);
    MetricsRegistry::Global().ResetAll();
    TraceRecorder::Global().Clear();
    Timeline::Global().Clear();
    TraceRecorder::Global().set_max_chunks_per_pipeline(4096);
  }
};

TEST_F(TelemetryTest, CounterAddsAndResets) {
  Counter& c = GetCounter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, CounterIgnoredWhileDisabled) {
  Counter& c = GetCounter("test.disabled_counter");
  SetEnabled(false);
  c.Add(100);
  EXPECT_EQ(c.value(), 0u);
  SetEnabled(true);
  c.Add(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST_F(TelemetryTest, RegistryReturnsSameInstrumentForSameName) {
  Counter& a = GetCounter("test.same");
  Counter& b = GetCounter("test.same");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = GetHistogram("test.same_h");
  Histogram& h2 = GetHistogram("test.same_h");
  EXPECT_EQ(&h1, &h2);
}

TEST_F(TelemetryTest, HistogramTracksCountSumMinMax) {
  Histogram& h = GetHistogram("test.histogram");
  h.Observe(10);
  h.Observe(1000);
  h.Observe(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1013u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 1013.0 / 3.0, 1e-12);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST_F(TelemetryTest, HistogramBucketsArePowersOfTwo) {
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);   // [1, 2)
  EXPECT_EQ(Histogram::BucketFor(2), 2);   // [2, 4)
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);   // [4, 8)
  EXPECT_EQ(Histogram::BucketFor(1023), 10);
  EXPECT_EQ(Histogram::BucketFor(1024), 11);

  Histogram& h = GetHistogram("test.buckets");
  h.Observe(0);
  h.Observe(1);
  h.Observe(3);
  h.Observe(3);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
}

TEST_F(TelemetryTest, HistogramIsThreadSafe) {
  Histogram& h = GetHistogram("test.threads");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(7);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.sum(), static_cast<uint64_t>(kThreads) * kPerThread * 7);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
}

TEST_F(TelemetryTest, PercentileOfEmptyHistogramIsZero) {
  Histogram& h = GetHistogram("test.pct_empty");
  h.Reset();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* s = snapshot.FindHistogram("test.pct_empty");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s->Percentile(0.99), 0.0);
}

TEST_F(TelemetryTest, PercentileClampsToObservedRange) {
  // All observations land in one bucket ([64, 128)): interpolation inside
  // the bucket must clamp to the exact observed min/max, not report a
  // value that never occurred.
  Histogram& h = GetHistogram("test.pct_single_bucket");
  h.Reset();
  for (int i = 0; i < 1000; ++i) h.Observe(64);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* s =
      snapshot.FindHistogram("test.pct_single_bucket");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->Percentile(0.0), 64.0);
  EXPECT_DOUBLE_EQ(s->Percentile(0.5), 64.0);
  EXPECT_DOUBLE_EQ(s->Percentile(1.0), 64.0);
}

TEST_F(TelemetryTest, PercentileOfAllZerosIsZero) {
  Histogram& h = GetHistogram("test.pct_zeros");
  h.Reset();
  for (int i = 0; i < 10; ++i) h.Observe(0);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* s = snapshot.FindHistogram("test.pct_zeros");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s->Percentile(0.99), 0.0);
}

TEST_F(TelemetryTest, PercentileSkewedTailLandsInTopBucket) {
  // Nine 1s and one 1024: the median sits in the ones, p99 must reach the
  // outlier (and clamp to it, not to the outlier's bucket upper bound).
  Histogram& h = GetHistogram("test.pct_skew");
  h.Reset();
  for (int i = 0; i < 9; ++i) h.Observe(1);
  h.Observe(1024);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* s = snapshot.FindHistogram("test.pct_skew");
  ASSERT_NE(s, nullptr);
  // The median interpolates inside the [1, 2) bucket holding the nine 1s.
  EXPECT_GE(s->Percentile(0.5), 1.0);
  EXPECT_LT(s->Percentile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(s->Percentile(0.99), 1024.0);
}

TEST_F(TelemetryTest, PercentilesAreMonotonicAndBounded) {
  Histogram& h = GetHistogram("test.pct_spread");
  h.Reset();
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* s = snapshot.FindHistogram("test.pct_spread");
  ASSERT_NE(s, nullptr);
  const double p50 = s->Percentile(0.50);
  const double p90 = s->Percentile(0.90);
  const double p99 = s->Percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Power-of-two buckets bound the error to the holding bucket: the true
  // median 500 lives in [256, 1024).
  EXPECT_GE(p50, 256.0);
  EXPECT_LT(p50, 1024.0);
  // Out-of-range quantiles clamp instead of misbehaving.
  EXPECT_DOUBLE_EQ(s->Percentile(-0.5), s->Percentile(0.0));
  EXPECT_DOUBLE_EQ(s->Percentile(2.0), s->Percentile(1.0));
}

TEST_F(TelemetryTest, ExportersCarryPercentiles) {
  Histogram& h = GetHistogram("test.pct_export");
  h.Reset();
  h.Observe(100);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const std::string json = MetricsToJson(snapshot);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  const std::string csv = MetricsToCsv(snapshot);
  EXPECT_NE(csv.find("kind,name,count,sum,min,max,mean,p50,p90,p99"),
            std::string::npos);
}

TEST_F(TelemetryTest, SnapshotAndDelta) {
  GetCounter("test.delta").Add(10);
  GetHistogram("test.delta_h").Observe(100);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  GetCounter("test.delta").Add(7);
  GetHistogram("test.delta_h").Observe(50);
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();

  const MetricsSnapshot delta = Delta(before, after);
  const CounterSnapshot* c = delta.FindCounter("test.delta");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 7u);
  const HistogramSnapshot* h = delta.FindHistogram("test.delta_h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->sum, 50u);
}

// The calling thread's Timeline events, located by one it just emitted
// (tests share the process, and tids are registration order).
std::vector<TimelineEventSnapshot> EventsOfThreadWith(std::string_view name) {
  for (auto& thread : Timeline::Global().Snapshot()) {
    for (const auto& event : thread.events) {
      if (event.name == name) return std::move(thread.events);
    }
  }
  return {};
}

TEST_F(TelemetryTest, SpansNestByTimeOnTheirTrack) {
  Timeline::Global().SetEnabled(true);
  static const SpanSite outer_site("unit.outer");
  static const SpanSite inner_site("unit.inner");
  static const SpanSite innermost_site("unit.innermost");
  double outer_seconds = 0.0;
  {
    ScopedSpan outer(outer_site);
    {
      ScopedSpan inner(inner_site);
      ScopedSpan innermost(innermost_site);
    }
    outer_seconds = outer.End();
    // Closing is idempotent: a second End (and the destructor) returns
    // the first result and records nothing more.
    EXPECT_EQ(outer.End(), outer_seconds);
  }
  EXPECT_GT(outer_seconds, 0.0);

  // Spans land on the Timeline as they close, innermost first.
  const std::vector<TimelineEventSnapshot> events =
      EventsOfThreadWith("unit.outer");
  ASSERT_EQ(events.size(), 3u);
  const TimelineEventSnapshot& innermost = events[0];
  const TimelineEventSnapshot& inner = events[1];
  const TimelineEventSnapshot& outer = events[2];
  EXPECT_EQ(innermost.name, "unit.innermost");
  EXPECT_EQ(inner.name, "unit.inner");
  EXPECT_EQ(outer.name, "unit.outer");
  // Nesting is time containment on the one track.
  auto contains = [](const TimelineEventSnapshot& a,
                     const TimelineEventSnapshot& b) {
    return a.start_nanos <= b.start_nanos &&
           b.start_nanos + b.duration_nanos <=
               a.start_nanos + a.duration_nanos;
  };
  EXPECT_TRUE(contains(outer, inner));
  EXPECT_TRUE(contains(inner, innermost));
  EXPECT_EQ(outer.duration_nanos,
            static_cast<int64_t>(std::llround(outer_seconds * 1e9)));

  // Each span fed its histogram exactly once.
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const char* name : {"span.unit.outer.nanos", "span.unit.inner.nanos",
                           "span.unit.innermost.nanos"}) {
    const HistogramSnapshot* h = snapshot.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, 1u) << name;
  }
  // A site may name its histogram instead.
  static const SpanSite named_site("unit.named", "unit.named_nanos");
  for (int i = 0; i < 10; ++i) ScopedSpan span(named_site);
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* named = after.FindHistogram("unit.named_nanos");
  ASSERT_NE(named, nullptr);
  EXPECT_EQ(named->count, 10u);
}

TEST_F(TelemetryTest, DisabledSpansAreInert) {
  // With telemetry off a span still times (the stats read it) but
  // records nothing: no histogram observation, no Timeline event.
  Timeline::Global().SetEnabled(true);
  SetEnabled(false);
  static const SpanSite site("unit.disabled");
  ScopedSpan span(site);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(span.End(), 1e-3);
  SetEnabled(true);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* h = snapshot.FindHistogram("span.unit.disabled.nanos");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  for (const auto& thread : Timeline::Global().Snapshot()) {
    for (const auto& event : thread.events) {
      EXPECT_NE(event.name, "unit.disabled");
    }
  }
}

TEST_F(TelemetryTest, TraceRecorderRecordsPipeline) {
  TraceRecorder& recorder = TraceRecorder::Global();
  const uint64_t id = recorder.BeginPipeline("zlib", "column", "speed", 8);
  ASSERT_NE(id, 0u);

  CandidateTrace candidate;
  candidate.codec = "bzip2";
  candidate.ratio = 1.5;
  recorder.RecordCandidate(id, candidate);

  ChunkTrace chunk;
  chunk.input_bytes = 800;
  chunk.output_bytes = 500;
  recorder.RecordChunk(id, chunk);
  recorder.RecordChunk(id, chunk);
  recorder.EndPipeline(id, 1600, 1040, 40);

  const std::vector<PipelineTrace> pipelines = recorder.Snapshot();
  ASSERT_EQ(pipelines.size(), 1u);
  const PipelineTrace& p = pipelines[0];
  EXPECT_EQ(p.pipeline_id, id);
  EXPECT_EQ(p.codec, "zlib");
  EXPECT_TRUE(p.finished);
  EXPECT_EQ(p.input_bytes, 1600u);
  EXPECT_EQ(p.output_bytes, 1040u);
  EXPECT_EQ(p.header_bytes, 40u);
  ASSERT_EQ(p.candidates.size(), 1u);
  EXPECT_EQ(p.candidates[0].codec, "bzip2");
  ASSERT_EQ(p.chunks.size(), 2u);
  EXPECT_EQ(p.chunks[0].chunk_index, 0u);
  EXPECT_EQ(p.chunks[1].chunk_index, 1u);
}

TEST_F(TelemetryTest, TraceRecorderBoundsChunksPerPipeline) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.set_max_chunks_per_pipeline(3);
  const uint64_t id = recorder.BeginPipeline("zlib", "row", "speed", 8);
  for (int i = 0; i < 5; ++i) recorder.RecordChunk(id, ChunkTrace{});
  const std::vector<PipelineTrace> pipelines = recorder.Snapshot();
  ASSERT_EQ(pipelines.size(), 1u);
  EXPECT_EQ(pipelines[0].chunks.size(), 3u);
  EXPECT_EQ(pipelines[0].dropped_chunks, 2u);
}

TEST_F(TelemetryTest, TraceRecorderDisabledReturnsZeroId) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(false);
  EXPECT_EQ(recorder.BeginPipeline("zlib", "row", "speed", 8), 0u);
  recorder.RecordChunk(0, ChunkTrace{});  // must be a harmless no-op
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST_F(TelemetryTest, MetricsJsonRoundTrip) {
  GetCounter("test.export_counter").Add(123);
  GetHistogram("test.export_histogram").Observe(456);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();

  const std::string json = MetricsToJson(snapshot);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"test.export_counter\":123"), std::string::npos);
  EXPECT_NE(json.find("test.export_histogram"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":456"), std::string::npos);
}

TEST_F(TelemetryTest, MetricsCsvHasOneRowPerInstrument) {
  GetCounter("test.csv_counter").Add(9);
  GetHistogram("test.csv_histogram").Observe(2);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const std::string csv = MetricsToCsv(snapshot);

  size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  // Header + one row per counter + one per histogram.
  EXPECT_EQ(lines, 1 + snapshot.counters.size() + snapshot.histograms.size());
  EXPECT_NE(csv.find("counter,test.csv_counter,9,9"), std::string::npos);
  EXPECT_NE(csv.find("histogram,test.csv_histogram,1,2,2,2,2"),
            std::string::npos);
}

TEST_F(TelemetryTest, TraceJsonAndCsvRoundTrip) {
  TraceRecorder& recorder = TraceRecorder::Global();
  const uint64_t id = recorder.BeginPipeline("bzip2", "row", "ratio", 4);
  ChunkTrace chunk;
  chunk.element_count = 1000;
  chunk.input_bytes = 4000;
  chunk.output_bytes = 2000;
  chunk.improvable = true;
  chunk.compressible_mask = 0x3;
  chunk.htc_fraction = 0.5;
  recorder.RecordChunk(id, chunk);
  recorder.EndPipeline(id, 4000, 2040, 40);

  const std::string json = TraceToJson(recorder.Snapshot());
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"codec\":\"bzip2\""), std::string::npos);
  EXPECT_NE(json.find("\"compressible_mask\":3"), std::string::npos);

  const std::string csv = TraceToCsv(recorder.Snapshot());
  EXPECT_NE(csv.find("pipeline_id,chunk_index"), std::string::npos);
  // pipeline_id,chunk_index,element_count,input_bytes,output_bytes,...
  const std::string row = std::to_string(id) + ",0,1000,4000,2000,1,0,3,0.5";
  EXPECT_NE(csv.find(row), std::string::npos) << csv;
}

TEST_F(TelemetryTest, CombinedReportIsValidJson) {
  Timeline::Global().SetEnabled(true);
  GetCounter("test.report").Increment();
  static const SpanSite site("unit.report");
  ScopedSpan(site, 7, 3).End();
  const uint64_t id =
      TraceRecorder::Global().BeginPipeline("zlib", "row", "speed", 8);
  TraceRecorder::Global().EndPipeline(id, 1, 1, 1);

  const std::string report = TelemetryReportJson();
  EXPECT_TRUE(IsValidJson(report)) << report;
  EXPECT_NE(report.find("\"metrics\""), std::string::npos);
  // "spans" holds the Timeline's events, args and all.
  EXPECT_NE(report.find("\"spans\":[{\"ph\":\"X\""), std::string::npos)
      << report;
  EXPECT_NE(report.find("\"name\":\"unit.report\",\"args\":{\"pipeline\":7,"
                        "\"chunk\":2}"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("\"pipelines\""), std::string::npos);
}

}  // namespace
}  // namespace isobar::telemetry
