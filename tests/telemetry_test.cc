#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/isobar.h"
#include "datagen/registry.h"
#include "telemetry/json_reader.h"
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

// Enables telemetry with pristine global state, restoring the disabled
// default on exit so unrelated tests never observe leftovers.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
    SetEnabled(true);
    MetricsRegistry::Global().ResetAll();
    Timeline::Global().Clear();
  }

  void TearDown() override {
    if (!kCompiledIn) return;
    SetEnabled(false);
    Timeline::Global().SetEnabled(false);
    MetricsRegistry::Global().ResetAll();
    Timeline::Global().Clear();
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
  // A pipeline's per-chunk trace is the Timeline's Chrome trace JSON and
  // its per-stage totals are the metrics CSV. Read back, the JSON names
  // every chunk once under one pipeline id and the CSV counts the same
  // chunks.
  Timeline::Global().SetEnabled(true);
  auto spec = FindDatasetSpec("gts_phi_l");
  ASSERT_TRUE(spec.ok());
  auto dataset = GenerateDataset(**spec, 30000);
  ASSERT_TRUE(dataset.ok());
  CompressOptions options;
  options.chunk_elements = 10000;  // Three chunks.
  options.eupa.sample_elements = 2048;
  CompressionStats stats;
  ASSERT_TRUE(IsobarCompressor(options)
                  .Compress(dataset->bytes(), dataset->width(), &stats)
                  .ok());
  ASSERT_EQ(stats.chunk_count, 3u);

  const std::string json = TimelineToJson(Timeline::Global().Snapshot());
  EXPECT_TRUE(IsValidJson(json));
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<double> pipelines;
  std::vector<double> chunks;
  for (const JsonValue& event : events->array_items()) {
    if (event.FieldStringOr("name", "") != "compress.chunk") continue;
    EXPECT_EQ(event.FieldStringOr("ph", ""), "X");
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    pipelines.insert(args->FieldNumberOr("pipeline", 0));
    chunks.push_back(args->FieldNumberOr("chunk", -1));
  }
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks, (std::vector<double>{0, 1, 2}));
  ASSERT_EQ(pipelines.size(), 1u);
  EXPECT_GT(*pipelines.begin(), 0);

  // kind,name,count,sum,...: one compress.chunk observation per chunk.
  const std::string csv = MetricsToCsv(MetricsRegistry::Global().Snapshot());
  EXPECT_NE(csv.find("histogram,span.compress.chunk.nanos,3,"),
            std::string::npos)
      << csv;
  EXPECT_NE(csv.find("counter,pipeline.chunks_encoded,3,3"), std::string::npos)
      << csv;
}

TEST_F(TelemetryTest, CombinedReportIsValidJson) {
  Timeline::Global().SetEnabled(true);
  GetCounter("test.report").Increment();
  static const SpanSite site("unit.report");
  ScopedSpan(site, 7, 3).End();

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
}

}  // namespace
}  // namespace isobar::telemetry
