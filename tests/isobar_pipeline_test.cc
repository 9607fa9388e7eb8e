#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "compressors/registry.h"
#include "core/container.h"
#include "core/isobar.h"
#include "core/read_plan.h"
#include "core/stream.h"
#include "datagen/registry.h"
#include "io/sink.h"
#include "linearize/transpose.h"
#include "telemetry/metrics.h"
#include "telemetry/timeline.h"
#include "util/random.h"

namespace isobar {
namespace {

Result<Dataset> Generate(const char* name, uint64_t elements) {
  ISOBAR_ASSIGN_OR_RETURN(const DatasetSpec* spec, FindDatasetSpec(name));
  return GenerateDataset(*spec, elements);
}

TEST(IsobarPipelineTest, StatsReflectImprovableDataset) {
  auto dataset = Generate("flash_velx", 300000);
  ASSERT_TRUE(dataset.ok());
  CompressOptions options;
  options.chunk_elements = 100000;
  // Serial pipeline: the total >= codec_seconds bound below assumes the
  // per-stage sums are wall-clock, not aggregate worker time.
  options.num_threads = 1;
  const IsobarCompressor compressor(options);
  CompressionStats stats;
  auto compressed = compressor.Compress(dataset->bytes(), 8, &stats);
  ASSERT_TRUE(compressed.ok());

  EXPECT_TRUE(stats.improvable);
  EXPECT_EQ(stats.chunk_count, 3u);
  EXPECT_EQ(stats.improvable_chunks, 3u);
  EXPECT_NEAR(stats.mean_htc_fraction, 0.75, 1e-9);
  EXPECT_GT(stats.ratio(), 1.2);  // 6 of 8 bytes stored raw, rest shrinks
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GE(stats.total_seconds,
            stats.codec_seconds);  // components within the total
}

TEST(IsobarPipelineTest, StatsReflectNonImprovableDataset) {
  auto dataset = Generate("msg_sppm", 300000);
  ASSERT_TRUE(dataset.ok());
  CompressOptions options;
  options.chunk_elements = 100000;
  const IsobarCompressor compressor(options);
  CompressionStats stats;
  auto compressed = compressor.Compress(dataset->bytes(), 8, &stats);
  ASSERT_TRUE(compressed.ok());

  EXPECT_FALSE(stats.improvable);
  EXPECT_EQ(stats.improvable_chunks, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_htc_fraction, 0.0);
  EXPECT_GT(stats.ratio(), 2.0);  // repetitive data still compresses fine
}

TEST(IsobarPipelineTest, ImprovableBeatsStandardOnHardData) {
  // The paper's headline claim, as a correctness-level assertion: on an
  // improvable hard-to-compress dataset, preconditioned zlib achieves a
  // strictly better ratio than standard zlib on the identical bytes.
  auto dataset = Generate("gts_phi_l", 375000);
  ASSERT_TRUE(dataset.ok());

  CompressOptions options;
  options.eupa.forced_codec = CodecId::kZlib;
  options.eupa.forced_linearization = Linearization::kRow;
  const IsobarCompressor compressor(options);
  CompressionStats stats;
  auto compressed = compressor.Compress(dataset->bytes(), 8, &stats);
  ASSERT_TRUE(compressed.ok());

  auto zlib = GetCodec(CodecId::kZlib);
  ASSERT_TRUE(zlib.ok());
  Bytes standard;
  ASSERT_TRUE((*zlib)->Compress(dataset->bytes(), &standard).ok());
  const double standard_ratio = static_cast<double>(dataset->data.size()) /
                                static_cast<double>(standard.size());
  EXPECT_GT(stats.ratio(), standard_ratio);
}

TEST(IsobarPipelineTest, DecisionRecordsPreferenceAndEvidence) {
  auto dataset = Generate("s3d_vmag", 200000);
  ASSERT_TRUE(dataset.ok());
  CompressOptions options;
  options.eupa.preference = Preference::kRatio;
  const IsobarCompressor compressor(options);
  CompressionStats stats;
  auto compressed = compressor.Compress(dataset->bytes(), 4, &stats);
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(stats.decision.preference, Preference::kRatio);
  // Default candidates (zlib, bzip2, lzans) x both linearizations — unless
  // the ISOBAR_FORCE_CODEC CI lane pins the codec dimension to one.
  const size_t codecs = std::getenv("ISOBAR_FORCE_CODEC") != nullptr ? 1u : 3u;
  EXPECT_EQ(stats.decision.evaluations.size(), codecs * 2);
}

TEST(IsobarPipelineTest, AnalysisThroughputIsMeasured) {
  auto dataset = Generate("num_brain", 200000);
  ASSERT_TRUE(dataset.ok());
  const IsobarCompressor compressor;
  CompressionStats stats;
  auto compressed = compressor.Compress(dataset->bytes(), 8, &stats);
  ASSERT_TRUE(compressed.ok());
  EXPECT_GT(stats.analysis_seconds, 0.0);
  EXPECT_GT(stats.analysis_mbps(), 0.0);
  EXPECT_GT(stats.compression_mbps(), 0.0);
}

// Spans are the stage clocks, so the stats timings hold in every build,
// telemetry compiled out included.
TEST(IsobarPipelineTest, StageSecondsSumWithinTotal) {
  auto dataset = Generate("flash_velx", 300000);
  ASSERT_TRUE(dataset.ok());
  CompressOptions options;
  options.chunk_elements = 100000;
  // The wall-clock containment below only holds for the serial pipeline:
  // with workers, stage sums are aggregate thread time and may exceed the
  // end-to-end total (see parallel_pipeline_test.cc for that bound).
  options.num_threads = 1;
  const IsobarCompressor compressor(options);
  CompressionStats stats;
  auto compressed = compressor.Compress(dataset->bytes(), 8, &stats);
  ASSERT_TRUE(compressed.ok());

  // The staged decomposition never exceeds the end-to-end wall clock.
  EXPECT_LE(stats.eupa_seconds + stats.analysis_seconds +
                stats.partition_seconds + stats.codec_seconds,
            stats.total_seconds);
  // The EUPA phase is timed whenever it selects something...
  EXPECT_GT(stats.eupa_seconds, 0.0);
  // ...and costs nothing when codec and linearization are both forced.
  CompressOptions forced = options;
  forced.eupa.forced_codec = CodecId::kZlib;
  forced.eupa.forced_linearization = Linearization::kColumn;
  CompressionStats forced_stats;
  ASSERT_TRUE(IsobarCompressor(forced)
                  .Compress(dataset->bytes(), 8, &forced_stats)
                  .ok());
  EXPECT_EQ(forced_stats.eupa_seconds, 0.0);
  EXPECT_TRUE(forced_stats.decision.evaluations.empty());

  DecompressOptions doptions;
  doptions.num_threads = 1;
  DecompressionStats dstats;
  auto restored = IsobarCompressor::Decompress(*compressed, doptions, &dstats);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(dstats.chunk_count, stats.chunk_count);
  EXPECT_EQ(dstats.input_bytes, compressed->size());
  EXPECT_EQ(dstats.output_bytes, dataset->data.size());
  EXPECT_GT(dstats.decode_seconds, 0.0);
  EXPECT_GT(dstats.scatter_seconds, 0.0);
  EXPECT_LE(dstats.parse_seconds + dstats.decode_seconds +
                dstats.scatter_seconds,
            dstats.total_seconds);

  // The range and column readers time their stages the same way.
  DecompressionStats rstats;
  auto range = IsobarCompressor::DecompressRange(*compressed, 50000, 250000,
                                                 doptions, &rstats);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(rstats.chunk_count, 3u);
  EXPECT_GT(rstats.decode_seconds, 0.0);
  EXPECT_LE(rstats.parse_seconds + rstats.decode_seconds +
                rstats.scatter_seconds,
            rstats.total_seconds);

  // flash_velx keeps its two high byte-planes with the solver.
  DecompressionStats cstats;
  auto planes = IsobarCompressor::DecompressColumns(*compressed, 0xC0,
                                                    doptions, &cstats);
  ASSERT_TRUE(planes.ok());
  EXPECT_EQ(cstats.chunk_count, 3u);
  EXPECT_GT(cstats.decode_seconds, 0.0);
  EXPECT_LE(cstats.parse_seconds + cstats.decode_seconds +
                cstats.scatter_seconds,
            cstats.total_seconds);
}

// EUPA option sets of the reuse oracle: the defaults, the ratio walk, and
// each dimension forced alone (one forced dimension still runs trials).
struct EupaOptionSet {
  const char* name;
  void (*apply)(EupaOptions*);
};
const EupaOptionSet kReuseOptionSets[] = {
    {"speed", [](EupaOptions*) {}},
    {"ratio", [](EupaOptions* eupa) { eupa->preference = Preference::kRatio; }},
    {"forced lzans",
     [](EupaOptions* eupa) { eupa->forced_codec = CodecId::kLzans; }},
    {"forced row",
     [](EupaOptions* eupa) {
       eupa->forced_linearization = Linearization::kRow;
     }},
};

// The stream writer fed `data` in one Append and a Finish.
Bytes StreamCompress(const CompressOptions& options, ByteSpan data,
                     size_t width, CompressionStats* stats) {
  Bytes out;
  MemorySink sink(&out);
  IsobarStreamWriter writer(options, width, &sink);
  EXPECT_TRUE(writer.Append(data).ok());
  EXPECT_TRUE(writer.Finish().ok());
  *stats = writer.stats();
  return out;
}

// The decision of `stats`, forced: that pipeline without EUPA, and so
// without a trial to reuse.
CompressOptions ForcedTo(CompressOptions options,
                         const CompressionStats& stats) {
  options.eupa.forced_codec = stats.decision.codec;
  options.eupa.forced_linearization = stats.decision.linearization;
  return options;
}

TEST(IsobarPipelineTest, ReusedTrialMatchesFullyForcedBytes) {
  // A one-chunk input of at most sample_elements elements is EUPA's whole
  // training sample, so the writer takes the winning trial as the chunk's
  // solver pass. Its container must be the one a fully forced run (no
  // EUPA, nothing to reuse) writes for the same decision: at service size
  // and on both sides of the sample boundary, for both writers.
  const uint64_t sample = EupaOptions{}.sample_elements;
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    auto dataset = GenerateDataset(spec, sample + 1);
    ASSERT_TRUE(dataset.ok()) << spec.name;
    const size_t width = dataset->width();
    const uint64_t service_size = (uint64_t{32} << 10) / width;
    for (const uint64_t n : {service_size, sample, sample + 1}) {
      const ByteSpan data = dataset->bytes().first(n * width);
      for (const EupaOptionSet& set : kReuseOptionSets) {
        SCOPED_TRACE(std::string(spec.name) + " n=" + std::to_string(n) +
                     " " + set.name);
        CompressOptions options;
        set.apply(&options.eupa);
        CompressionStats stats;
        auto compressed = IsobarCompressor(options).Compress(data, width,
                                                             &stats);
        ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
        auto reference =
            IsobarCompressor(ForcedTo(options, stats)).Compress(data, width);
        ASSERT_TRUE(reference.ok());
        EXPECT_TRUE(*compressed == *reference) << "Compress";

        CompressionStats stream_stats;
        const Bytes streamed =
            StreamCompress(options, data, width, &stream_stats);
        CompressionStats unused;
        EXPECT_TRUE(streamed == StreamCompress(ForcedTo(options, stream_stats),
                                               data, width, &unused))
            << "IsobarStreamWriter";
      }
    }
  }
}

// Outputs of 32 MiB and up take the readers' huge-page path. Each reader
// must still return the exact bytes at 4 threads, and under kZeroFill the
// lost tail of a container truncated inside its last record must read as
// zeros: a reader that skipped the zero pass would hand back whatever the
// allocation held.
TEST(IsobarPipelineTest, LargeOutputsRoundTripAndZeroTheLostTail) {
  // 36 MiB of doubles repeating every 65,536 elements: noisy low bytes
  // (the raw section) under near-constant high bytes (the solver's), so
  // the sanitizer lanes compress it quickly and records merge partial
  // masks (0xE0).
  constexpr size_t kElements = (size_t{36} << 20) / 8;
  constexpr size_t kPeriod = 65536;
  std::vector<double> period(kPeriod);
  Xoshiro256 rng(36);
  for (double& v : period) v = 1.0 + rng.NextDouble() * 1e-3;
  std::vector<double> values(kElements);
  for (size_t i = 0; i < kElements; ++i) values[i] = period[i % kPeriod];
  const ByteSpan plaintext = AsBytes(values);

  CompressOptions options;
  options.num_threads = 4;
  options.eupa.forced_codec = CodecId::kLzans;
  options.eupa.forced_linearization = Linearization::kColumn;
  auto compressed = IsobarCompressor(options).Compress(plaintext, 8);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  auto planes = [](ByteSpan bytes) {
    Bytes out;
    EXPECT_TRUE(
        GatherColumns(bytes, 8, 0xFF, Linearization::kColumn, &out).ok());
    return out;
  };

  DecompressOptions doptions;
  doptions.num_threads = 4;
  auto restored = IsobarCompressor::Decompress(*compressed, doptions);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(std::equal(restored->begin(), restored->end(), plaintext.begin(),
                         plaintext.end()));
  auto range = IsobarCompressor::DecompressRange(*compressed, 0, kElements,
                                                 doptions);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_TRUE(*range == *restored);
  auto columns =
      IsobarCompressor::DecompressColumns(*compressed, 0xFF, doptions);
  ASSERT_TRUE(columns.ok()) << columns.status().ToString();
  ASSERT_TRUE(*columns == planes(plaintext));

  // Cut the container halfway through its last record.
  auto plan = ReadPlan::Open(*compressed, doptions);
  ASSERT_TRUE(plan.ok());
  const std::vector<PlannedRecord> records = plan->LocateAll();
  ASSERT_GE(records.size(), 2u);
  const PlannedRecord& last = records.back();
  const size_t record_end = static_cast<size_t>(
      last.raw.data() + last.raw.size() - compressed->data());
  const Bytes truncated(
      compressed->begin(),
      compressed->begin() + (last.byte_offset + record_end) / 2);
  const size_t kept = static_cast<size_t>(last.element_offset) * 8;

  doptions.on_chunk_error = ChunkErrorPolicy::kZeroFill;
  auto filled = IsobarCompressor::Decompress(truncated, doptions);
  ASSERT_TRUE(filled.ok()) << filled.status().ToString();
  ASSERT_EQ(filled->size(), plaintext.size());
  ASSERT_TRUE(std::equal(filled->begin(), filled->begin() + kept,
                         plaintext.begin()));
  ASSERT_TRUE(std::all_of(filled->begin() + kept, filled->end(),
                          [](uint8_t b) { return b == 0; }));
  auto filled_range =
      IsobarCompressor::DecompressRange(truncated, 0, kElements, doptions);
  ASSERT_TRUE(filled_range.ok()) << filled_range.status().ToString();
  ASSERT_TRUE(*filled_range == *filled);
  auto filled_columns =
      IsobarCompressor::DecompressColumns(truncated, 0xFF, doptions);
  ASSERT_TRUE(filled_columns.ok()) << filled_columns.status().ToString();
  ASSERT_TRUE(*filled_columns == planes(*filled));
}

// ---------------------------------------------------------------------------
// Telemetry invariants: the observability layer must agree with the
// pipeline's own statistics byte for byte.

class PipelineTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
    telemetry::SetEnabled(true);
    telemetry::MetricsRegistry::Global().ResetAll();
  }

  void TearDown() override {
    if (!telemetry::kCompiledIn) return;
    telemetry::SetEnabled(false);
    telemetry::Timeline::Global().SetEnabled(false);
    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::Timeline::Global().Clear();
  }

  uint64_t CounterValue(const char* name) {
    const telemetry::MetricsSnapshot snapshot =
        telemetry::MetricsRegistry::Global().Snapshot();
    const telemetry::CounterSnapshot* c = snapshot.FindCounter(name);
    return c == nullptr ? 0 : c->value;
  }
};

TEST_F(PipelineTelemetryTest, CountersMatchCompressionStats) {
  auto dataset = Generate("flash_velx", 300000);
  ASSERT_TRUE(dataset.ok());
  CompressOptions options;
  options.chunk_elements = 100000;
  const IsobarCompressor compressor(options);
  CompressionStats stats;
  auto compressed = compressor.Compress(dataset->bytes(), 8, &stats);
  ASSERT_TRUE(compressed.ok());

  EXPECT_EQ(CounterValue("pipeline.compress_calls"), 1u);
  EXPECT_EQ(CounterValue("pipeline.compress_input_bytes"), stats.input_bytes);
  EXPECT_EQ(CounterValue("pipeline.compress_output_bytes"),
            stats.output_bytes);
  EXPECT_EQ(CounterValue("pipeline.chunks_encoded"), stats.chunk_count);
  EXPECT_EQ(CounterValue("pipeline.chunk_input_bytes"), stats.input_bytes);
  // The analyzer also runs once on the EUPA training probe, so its verdict
  // count can exceed the per-chunk tally by exactly that one probe.
  EXPECT_GE(CounterValue("analyzer.improvable_verdicts"),
            stats.improvable_chunks);
  EXPECT_EQ(CounterValue("analyzer.calls"), stats.chunk_count + 1);

  auto restored = IsobarCompressor::Decompress(*compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(CounterValue("pipeline.decompress_calls"), 1u);
  EXPECT_EQ(CounterValue("pipeline.chunks_decoded"), stats.chunk_count);
  EXPECT_EQ(CounterValue("pipeline.checksum_failures"), 0u);
}

TEST_F(PipelineTelemetryTest, CompressStageSlicesCarryTheirChunk) {
  // Each stage slice a chunk's encode leaves on the Timeline names its
  // pipeline (one nonzero id per call) and chunk, once per stage, and the
  // analyzer probe inside the EUPA phase is billed to eupa.phase rather
  // than chunk.analyze.
  auto dataset = Generate("flash_velx", 300000);
  ASSERT_TRUE(dataset.ok());
  telemetry::Timeline::Global().SetEnabled(true);
  for (const size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    telemetry::Timeline::Global().Clear();
    CompressOptions options;
    options.chunk_elements = 100000;
    options.num_threads = threads;
    const auto before = telemetry::MetricsRegistry::Global().Snapshot();
    CompressionStats stats;
    ASSERT_TRUE(
        IsobarCompressor(options).Compress(dataset->bytes(), 8, &stats).ok());
    const auto delta = telemetry::Delta(
        before, telemetry::MetricsRegistry::Global().Snapshot());
    ASSERT_EQ(stats.chunk_count, 3u);

    std::set<uint64_t> pipeline_ids;
    std::map<std::string, std::vector<uint64_t>> ordinals;
    size_t eupa_phases = 0;
    for (const auto& thread : telemetry::Timeline::Global().Snapshot()) {
      for (const auto& event : thread.events) {
        if (event.name == "eupa.phase") ++eupa_phases;
        if (event.name != "chunk.analyze" && event.name != "chunk.partition" &&
            event.name != "chunk.solve") {
          continue;
        }
        pipeline_ids.insert(event.arg0);
        ASSERT_GE(event.arg1, 1u) << event.name;
        ordinals[event.name].push_back(event.arg1 - 1);
      }
    }
    for (const char* stage : {"chunk.analyze", "chunk.partition",
                              "chunk.solve"}) {
      std::vector<uint64_t>& seen = ordinals[stage];
      std::sort(seen.begin(), seen.end());
      EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 2})) << stage;
    }
    ASSERT_EQ(pipeline_ids.size(), 1u);
    EXPECT_NE(*pipeline_ids.begin(), 0u);
    EXPECT_EQ(eupa_phases, 1u);
    const telemetry::HistogramSnapshot* analyze =
        delta.FindHistogram("span.chunk.analyze.nanos");
    ASSERT_NE(analyze, nullptr);
    EXPECT_EQ(analyze->count, stats.chunk_count);
  }
}

TEST_F(PipelineTelemetryTest, ReusedTrialCountsOncePerPipeline) {
  // eupa.trials_reused counts each pipeline whose chunk 0 took the winning
  // trial: a one-chunk input of at most sample_elements elements, or a
  // stream whose first chunk is that small. The reused call runs the
  // solver only for EUPA's trials, and chunk 0 keeps one (empty)
  // chunk.analyze and chunk.solve slice with no codec slice inside.
  const uint64_t sample = EupaOptions{}.sample_elements;
  auto dataset = Generate("gts_phi_l", sample + 1);
  ASSERT_TRUE(dataset.ok());
  const size_t width = dataset->width();
  const struct {
    const char* name;
    uint64_t elements;
    uint64_t chunk_elements;
    bool stream;
    uint64_t reused;
  } cases[] = {
      {"service size", 8192, kDefaultChunkElements, false, 1},
      {"at the sample size", sample, kDefaultChunkElements, false, 1},
      {"above the sample size", sample + 1, kDefaultChunkElements, false, 0},
      {"more than one chunk", 8192, 1000, false, 0},
      {"stream of small chunks", 8192, 1000, true, 1},
      {"stream above the sample size", sample + 1, kDefaultChunkElements,
       true, 0},
  };
  const auto codec_calls = [] {
    uint64_t calls = 0;
    for (const auto& counter :
         telemetry::MetricsRegistry::Global().Snapshot().counters) {
      if (counter.name.rfind("codec.", 0) == 0 &&
          counter.name.size() > 15 &&
          counter.name.compare(counter.name.size() - 15, 15,
                               ".compress_calls") == 0) {
        calls += counter.value;
      }
    }
    return calls;
  };
  telemetry::Timeline::Global().SetEnabled(true);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::Timeline::Global().Clear();
    CompressOptions options;
    options.chunk_elements = c.chunk_elements;
    const ByteSpan data = dataset->bytes().first(c.elements * width);
    CompressionStats stats;
    if (c.stream) {
      StreamCompress(options, data, width, &stats);
    } else {
      ASSERT_TRUE(IsobarCompressor(options).Compress(data, width, &stats).ok());
    }
    const uint64_t trials = CounterValue("eupa.trials_run");
    ASSERT_GT(trials, 0u);
    EXPECT_EQ(CounterValue("eupa.trials_reused"), c.reused);
    EXPECT_EQ(codec_calls(), trials + stats.chunk_count - c.reused);
    if (c.reused == 0) continue;
    // The default speed walk trials lzans alone on this profile, so lzans
    // runs once per trial and once per chunk after the first.
    EXPECT_EQ(stats.decision.codec, CodecId::kLzans);
    EXPECT_EQ(CounterValue("codec.lzans.compress_calls"),
              trials + stats.chunk_count - 1);

    // Chunk 0's solve slice holds no codec slice of its own.
    size_t solves = 0;
    size_t analyzes = 0;
    for (const auto& thread : telemetry::Timeline::Global().Snapshot()) {
      for (const auto& event : thread.events) {
        if (event.arg1 != 1) continue;  // Not a chunk 0 slice.
        if (event.name == "chunk.analyze") ++analyzes;
        if (event.name != "chunk.solve") continue;
        ++solves;
        const int64_t end = event.start_nanos + event.duration_nanos;
        for (const auto& inner : thread.events) {
          EXPECT_FALSE(inner.name.rfind("codec.", 0) == 0 &&
                       inner.start_nanos >= event.start_nanos &&
                       inner.start_nanos < end)
              << inner.name;
        }
      }
    }
    EXPECT_EQ(solves, 1u);
    EXPECT_EQ(analyzes, 1u);
  }
}

TEST_F(PipelineTelemetryTest, ReaderOutputAllocationIsItsOwnSpan) {
  // Each reader sizes its output once, as a decompress.output slice
  // nested (by time, on the same track) inside the reader's own span.
  auto dataset = Generate("flash_velx", 300000);
  ASSERT_TRUE(dataset.ok());
  CompressOptions options;
  options.chunk_elements = 100000;
  auto compressed = IsobarCompressor(options).Compress(dataset->bytes(), 8);
  ASSERT_TRUE(compressed.ok());
  DecompressOptions doptions;
  doptions.num_threads = 4;
  const std::pair<const char*, std::function<bool()>> readers[] = {
      {"decompress",
       [&] {
         return IsobarCompressor::Decompress(*compressed, doptions).ok();
       }},
      {"decompress.range",
       [&] {
         return IsobarCompressor::DecompressRange(*compressed, 1000, 250000,
                                                  doptions)
             .ok();
       }},
      {"decompress.columns", [&] {
         return IsobarCompressor::DecompressColumns(*compressed, 0xC1,
                                                    doptions)
             .ok();
       }}};
  telemetry::Timeline::Global().SetEnabled(true);
  for (const auto& [reader, read] : readers) {
    SCOPED_TRACE(reader);
    telemetry::Timeline::Global().Clear();
    const auto before = telemetry::MetricsRegistry::Global().Snapshot();
    ASSERT_TRUE(read());
    const auto delta = telemetry::Delta(
        before, telemetry::MetricsRegistry::Global().Snapshot());
    std::vector<telemetry::TimelineEventSnapshot> outputs, calls;
    for (const auto& thread : telemetry::Timeline::Global().Snapshot()) {
      for (const auto& event : thread.events) {
        if (event.name == "decompress.output") outputs.push_back(event);
        if (event.name == reader) calls.push_back(event);
      }
    }
    ASSERT_EQ(outputs.size(), 1u);
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(outputs[0].tid, calls[0].tid);
    EXPECT_GE(outputs[0].start_nanos, calls[0].start_nanos);
    EXPECT_LE(outputs[0].start_nanos + outputs[0].duration_nanos,
              calls[0].start_nanos + calls[0].duration_nanos);
    const telemetry::HistogramSnapshot* histogram =
        delta.FindHistogram("span.decompress.output.nanos");
    ASSERT_NE(histogram, nullptr);
    EXPECT_EQ(histogram->count, 1u);
  }
}

TEST_F(PipelineTelemetryTest, TraceByteTotalsMatchContainer) {
  // The bytes of each chunk are the container's own record headers (what
  // `isobar_cli info` lists through ReadPlan::LocateAll) and its time is
  // the Timeline's compress.chunk slice: together they account for the
  // whole container, one slice per record.
  auto dataset = Generate("gts_phi_l", 250000);
  ASSERT_TRUE(dataset.ok());
  telemetry::Timeline::Global().SetEnabled(true);
  telemetry::Timeline::Global().Clear();
  CompressOptions options;
  options.chunk_elements = 100000;
  const IsobarCompressor compressor(options);
  CompressionStats stats;
  auto compressed = compressor.Compress(dataset->bytes(), 8, &stats);
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(stats.output_bytes, compressed->size());

  auto plan = ReadPlan::Open(*compressed, DecompressOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::vector<PlannedRecord> records = plan->LocateAll();
  ASSERT_EQ(records.size(), stats.chunk_count);
  EXPECT_FALSE(plan->tail_lost());
  EXPECT_EQ(plan->trailing_bytes(), 0u);

  // Per-chunk byte accounting reconstructs the container's totals exactly:
  // the records plus the one header and the v2 chunk-index footer.
  uint64_t chunk_in = 0, chunk_out = 0;
  uint64_t next_offset = container::kHeaderSize;
  for (const PlannedRecord& record : records) {
    ASSERT_TRUE(record.damage.ok()) << record.damage.ToString();
    EXPECT_EQ(record.byte_offset, next_offset) << record.index;
    EXPECT_EQ(record.header.element_count, record.element_count);
    const uint64_t record_bytes = container::kChunkHeaderSize +
                                  record.header.compressed_size +
                                  record.header.raw_size;
    chunk_in += record.header.element_count * 8;
    chunk_out += record_bytes;
    next_offset += record_bytes;
  }
  EXPECT_EQ(chunk_in, stats.input_bytes);
  EXPECT_EQ(container::kHeaderSize + chunk_out +
                container::FooterBytes(stats.chunk_count),
            stats.output_bytes);

  std::set<uint64_t> pipeline_ids;
  std::vector<uint64_t> chunks;
  for (const auto& thread : telemetry::Timeline::Global().Snapshot()) {
    for (const auto& event : thread.events) {
      if (event.name != "compress.chunk") continue;
      pipeline_ids.insert(event.arg0);
      ASSERT_GE(event.arg1, 1u);
      chunks.push_back(event.arg1 - 1);
    }
  }
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks, (std::vector<uint64_t>{0, 1, 2}));
  ASSERT_EQ(pipeline_ids.size(), 1u);
  EXPECT_NE(*pipeline_ids.begin(), 0u);

  // EUPA evidence rides along on the stats.
  EXPECT_FALSE(stats.decision.evaluations.empty());
}

// ---------------------------------------------------------------------------
// Corruption and integrity.

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = Generate("gts_chkp_zeon", 150000);
    ASSERT_TRUE(dataset.ok());
    original_ = dataset->data;
    CompressOptions options;
    options.chunk_elements = 50000;
    options.eupa.forced_codec = CodecId::kZlib;
    const IsobarCompressor compressor(options);
    auto compressed = compressor.Compress(original_, 8);
    ASSERT_TRUE(compressed.ok());
    container_ = std::move(*compressed);
    // Chunk records end where the v2 index footer begins.
    payload_end_ = container_.size() - container::FooterBytes(3);
  }

  Bytes original_;
  Bytes container_;
  size_t payload_end_ = 0;
};

TEST_F(CorruptionTest, CleanContainerVerifies) {
  auto restored = IsobarCompressor::Decompress(container_);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, original_);
}

TEST_F(CorruptionTest, FlippedPayloadByteIsDetected) {
  // Flip a byte deep in the payload (well past headers): either the solver
  // stream breaks or the chunk CRC catches it.
  Bytes mutated = container_;
  mutated[mutated.size() / 2] ^= 0x01;
  auto restored = IsobarCompressor::Decompress(mutated);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST_F(CorruptionTest, FlippedRawSectionByteCaughtByChecksum) {
  // The raw (incompressible) section is not protected by the solver's own
  // stream format, so only the CRC can catch damage there. The last bytes
  // of the last chunk (just before the index footer) belong to the raw
  // section.
  Bytes mutated = container_;
  mutated[payload_end_ - 3] ^= 0x40;
  auto restored = IsobarCompressor::Decompress(mutated);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST_F(CorruptionTest, ChecksumVerificationCanBeDisabled) {
  Bytes mutated = container_;
  mutated[payload_end_ - 3] ^= 0x40;
  DecompressOptions options;
  options.verify_checksums = false;
  auto restored = IsobarCompressor::Decompress(mutated, options);
  // Without verification the damaged raw byte passes through silently.
  ASSERT_TRUE(restored.ok());
  EXPECT_NE(*restored, original_);
  EXPECT_EQ(restored->size(), original_.size());
}

TEST_F(CorruptionTest, TruncatedContainerIsDetected) {
  for (size_t cut : {container_.size() - 1, container_.size() / 2,
                     container::kHeaderSize + 5ul, 10ul}) {
    ByteSpan prefix(container_.data(), cut);
    auto restored = IsobarCompressor::Decompress(prefix);
    EXPECT_FALSE(restored.ok()) << "cut at " << cut;
  }
}

TEST_F(CorruptionTest, TrailingGarbageIsDetected) {
  Bytes mutated = container_;
  mutated.push_back(0x00);
  auto restored = IsobarCompressor::Decompress(mutated);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST_F(CorruptionTest, NotAContainerIsRejected) {
  Bytes garbage(1000, 0xAB);
  auto restored = IsobarCompressor::Decompress(garbage);
  EXPECT_FALSE(restored.ok());
}

}  // namespace
}  // namespace isobar
