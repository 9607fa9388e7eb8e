#include <gtest/gtest.h>

#include <cstdlib>

#include "compressors/registry.h"
#include "core/isobar.h"
#include "datagen/registry.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_export.h"
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

// ---------------------------------------------------------------------------
// Telemetry invariants: the observability layer must agree with the
// pipeline's own statistics byte for byte.

class PipelineTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
    telemetry::SetEnabled(true);
    telemetry::TraceRecorder::Global().SetEnabled(true);
    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::SpanLog::Global().Clear();
    telemetry::TraceRecorder::Global().Clear();
  }

  void TearDown() override {
    if (!telemetry::kCompiledIn) return;
    telemetry::SetEnabled(false);
    telemetry::TraceRecorder::Global().SetEnabled(false);
    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::SpanLog::Global().Clear();
    telemetry::TraceRecorder::Global().Clear();
  }

  uint64_t CounterValue(const char* name) {
    const telemetry::MetricsSnapshot snapshot =
        telemetry::MetricsRegistry::Global().Snapshot();
    const telemetry::CounterSnapshot* c = snapshot.FindCounter(name);
    return c == nullptr ? 0 : c->value;
  }
};

TEST_F(PipelineTelemetryTest, StageSecondsSumWithinTotal) {
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
}

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

TEST_F(PipelineTelemetryTest, TraceByteTotalsMatchContainer) {
  auto dataset = Generate("gts_phi_l", 250000);
  ASSERT_TRUE(dataset.ok());
  CompressOptions options;
  options.chunk_elements = 100000;
  const IsobarCompressor compressor(options);
  CompressionStats stats;
  auto compressed = compressor.Compress(dataset->bytes(), 8, &stats);
  ASSERT_TRUE(compressed.ok());

  const std::vector<telemetry::PipelineTrace> pipelines =
      telemetry::TraceRecorder::Global().Snapshot();
  ASSERT_EQ(pipelines.size(), 1u);
  const telemetry::PipelineTrace& p = pipelines[0];
  EXPECT_TRUE(p.finished);
  EXPECT_EQ(p.input_bytes, stats.input_bytes);
  EXPECT_EQ(p.output_bytes, stats.output_bytes);
  EXPECT_EQ(p.output_bytes, compressed->size());
  EXPECT_EQ(p.chunks.size(), stats.chunk_count);

  // The acceptance invariant: per-chunk byte accounting reconstructs the
  // container's totals exactly (chunk records plus the one header and the
  // v2 chunk-index footer).
  uint64_t chunk_in = 0, chunk_out = 0;
  for (const telemetry::ChunkTrace& chunk : p.chunks) {
    chunk_in += chunk.input_bytes;
    chunk_out += chunk.output_bytes;
  }
  EXPECT_EQ(chunk_in, p.input_bytes);
  EXPECT_EQ(chunk_out + p.header_bytes +
                container::FooterBytes(stats.chunk_count),
            p.output_bytes);

  // EUPA evidence rides along on the trace.
  EXPECT_EQ(p.candidates.size(), stats.decision.evaluations.size());
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
