// The seekable-container contract: v2 chunk-index footers, range- and
// column-addressable decode (DecompressRange / DecompressColumns),
// SeekToChunk, v1 fallback equivalence, damaged-footer fallback, and the
// tau-validation hardening at every pipeline entry point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/container.h"
#include "core/isobar.h"
#include "core/stream.h"
#include "datagen/registry.h"
#include "io/fault_injection.h"
#include "io/sink.h"
#include "telemetry/metrics.h"

namespace isobar {
namespace {

constexpr uint64_t kChunkElements = 10000;
constexpr uint64_t kTotalElements = 35000;  // Three full chunks + one short.

Bytes MakeContainer(Bytes* plaintext, size_t* width,
                    uint16_t container_version = container::kVersion,
                    CodecId forced_codec = CodecId::kZlib) {
  auto spec = FindDatasetSpec("s3d_vmag");
  EXPECT_TRUE(spec.ok());
  auto dataset = GenerateDataset(**spec, kTotalElements);
  EXPECT_TRUE(dataset.ok());
  *plaintext = dataset->data;
  *width = dataset->width();
  CompressOptions options;
  options.chunk_elements = kChunkElements;
  options.eupa.sample_elements = 2048;
  options.eupa.forced_codec = forced_codec;
  options.eupa.forced_linearization = Linearization::kColumn;
  options.container_version = container_version;
  const IsobarCompressor compressor(options);
  auto compressed = compressor.Compress(dataset->bytes(), dataset->width());
  EXPECT_TRUE(compressed.ok()) << compressed.status().ToString();
  return *compressed;
}

// The expected result of DecompressRange: the matching slice of the
// original elements.
Bytes Slice(const Bytes& plaintext, size_t width, uint64_t first,
            uint64_t end) {
  return Bytes(plaintext.begin() + first * width,
               plaintext.begin() + end * width);
}

// The expected result of DecompressColumns: the requested byte-planes
// gathered from the original elements, ascending column order.
Bytes Planes(const Bytes& plaintext, size_t width, uint64_t column_mask) {
  const size_t n = plaintext.size() / width;
  Bytes out;
  for (size_t c = 0; c < width; ++c) {
    if ((column_mask & (1ull << c)) == 0) continue;
    for (size_t i = 0; i < n; ++i) out.push_back(plaintext[i * width + c]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Range reads.

TEST(RangeReadTest, RangeMatchesFullDecodeSlice) {
  Bytes plaintext;
  size_t width = 0;
  const Bytes container = MakeContainer(&plaintext, &width);

  struct Window {
    uint64_t first, end;
  };
  for (const Window w : {Window{0, kTotalElements},      // everything
                         Window{0, kChunkElements},      // exactly chunk 0
                         Window{kChunkElements, 2 * kChunkElements},
                         Window{9995, 10005},            // chunk 0/1 boundary
                         Window{5000, 25000},            // three chunks
                         Window{30000, kTotalElements},  // the short tail
                         Window{17, 18},                 // one element
                         Window{42, 42}}) {              // empty
    auto range = IsobarCompressor::DecompressRange(container, w.first, w.end);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_EQ(*range, Slice(plaintext, width, w.first, w.end))
        << "[" << w.first << ", " << w.end << ")";
  }
}

TEST(RangeReadTest, RangeDecodesOnlyCoveringChunks) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  Bytes plaintext;
  size_t width = 0;
  const Bytes container = MakeContainer(&plaintext, &width);
  telemetry::SetEnabled(true);

  // A window strictly inside chunk 2: exactly one chunk record may be
  // payload-decoded.
  const auto before = telemetry::MetricsRegistry::Global().Snapshot();
  auto range = IsobarCompressor::DecompressRange(container, 21000, 24000);
  const auto after = telemetry::MetricsRegistry::Global().Snapshot();
  telemetry::SetEnabled(false);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(*range, Slice(plaintext, width, 21000, 24000));

  const auto* decoded_before = before.FindCounter("pipeline.chunks_decoded");
  const auto* decoded_after = after.FindCounter("pipeline.chunks_decoded");
  ASSERT_NE(decoded_after, nullptr);
  const uint64_t delta =
      decoded_after->value - (decoded_before ? decoded_before->value : 0);
  EXPECT_EQ(delta, 1u);

  const auto* hits = after.FindCounter("pipeline.index_hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_GE(hits->value, 1u);
}

TEST(RangeReadTest, RangeBoundsValidated) {
  Bytes plaintext;
  size_t width = 0;
  const Bytes container = MakeContainer(&plaintext, &width);
  // Inverted and out-of-bounds windows are InvalidArgument, not damage.
  EXPECT_EQ(IsobarCompressor::DecompressRange(container, 10, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(IsobarCompressor::DecompressRange(container, 0, kTotalElements + 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(RangeReadTest, V1ContainerDecodesViaSequentialFallback) {
  Bytes plaintext;
  size_t width = 0;
  const Bytes container =
      MakeContainer(&plaintext, &width, container::kVersionV1);

  // The legacy container still round-trips bit-identically...
  auto full = IsobarCompressor::Decompress(container);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, plaintext);

  // ...and serves ranges through the sequential chunk-header walk.
  auto range = IsobarCompressor::DecompressRange(container, 9995, 20005);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(*range, Slice(plaintext, width, 9995, 20005));
}

TEST(RangeReadTest, CorruptFooterFailsClosedAndFallsBackUnderSalvage) {
  Bytes plaintext;
  size_t width = 0;
  const Bytes container = MakeContainer(&plaintext, &width);
  Bytes mutated = container;
  // Smash the footer trailer; every chunk record stays intact.
  SmashBytes(&mutated, mutated.size() - container::kFooterTrailerSize, 8, 0xA5);

  // kFail: a v2 container with a bad index is corrupt.
  EXPECT_EQ(IsobarCompressor::DecompressRange(mutated, 0, 100).status().code(),
            StatusCode::kCorruption);

  // Salvage: the sequential walk still serves the (undamaged) range.
  DecompressOptions salvage;
  salvage.on_chunk_error = ChunkErrorPolicy::kZeroFill;
  auto range = IsobarCompressor::DecompressRange(mutated, 5000, 15000, salvage);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(*range, Slice(plaintext, width, 5000, 15000));
}

TEST(RangeReadTest, DamagedChunkFailsOnlyCoveringRanges) {
  Bytes plaintext;
  size_t width = 0;
  const Bytes container = MakeContainer(&plaintext, &width);
  // Locate chunk 1's record through the index and flip a payload byte.
  size_t offset = 0;
  auto header = container::ParseHeader(container, &offset);
  ASSERT_TRUE(header.ok());
  auto index = container::ParseFooter(container, *header);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_EQ(index->entries.size(), 4u);
  Bytes mutated = container;
  FlipBits(&mutated,
           static_cast<size_t>(index->entries[1].record_offset) +
               container::kChunkHeaderSize + 100,
           0x20);

  // A range entirely inside other chunks is untouched by the damage.
  auto clean = IsobarCompressor::DecompressRange(mutated, 0, kChunkElements);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(*clean, Slice(plaintext, width, 0, kChunkElements));

  // A covering range fails under kFail...
  auto failed = IsobarCompressor::DecompressRange(mutated, 9000, 12000);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCorruption);

  // ...and zero-fills exactly the damaged chunk's intersection under a
  // salvaging policy (kSkip would shift element addressing, so both
  // policies zero-fill here).
  for (ChunkErrorPolicy policy :
       {ChunkErrorPolicy::kSkip, ChunkErrorPolicy::kZeroFill}) {
    DecompressOptions options;
    options.on_chunk_error = policy;
    SalvageReport report;
    options.salvage_report = &report;
    auto range = IsobarCompressor::DecompressRange(mutated, 9000, 12000,
                                                   options);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    ASSERT_EQ(range->size(), 3000 * width);
    // [9000, 10000) from intact chunk 0; [10000, 12000) zero-filled.
    EXPECT_TRUE(std::equal(range->begin(), range->begin() + 1000 * width,
                           plaintext.begin() + 9000 * width));
    EXPECT_TRUE(std::all_of(range->begin() + 1000 * width, range->end(),
                            [](uint8_t b) { return b == 0; }));
    ASSERT_EQ(report.damaged.size(), 1u);
    EXPECT_EQ(report.damaged[0].chunk_index, 1u);
    // output_offset is relative to the range's first byte.
    EXPECT_EQ(report.damaged[0].output_offset, 1000 * width);
    EXPECT_EQ(report.damaged[0].lost_bytes, 2000 * width);
    EXPECT_EQ(report.bytes_lost, 2000 * width);
  }
}

// ---------------------------------------------------------------------------
// Column reads.

TEST(ColumnReadTest, ColumnsMatchFullDecodePlanes) {
  Bytes plaintext;
  size_t width = 0;
  const Bytes container = MakeContainer(&plaintext, &width);
  ASSERT_EQ(width, 4u);
  for (uint64_t mask : {0x1ull, 0x8ull, 0x9ull, 0x3ull, 0xFull}) {
    auto planes = IsobarCompressor::DecompressColumns(container, mask);
    ASSERT_TRUE(planes.ok()) << planes.status().ToString();
    EXPECT_EQ(*planes, Planes(plaintext, width, mask)) << "mask " << mask;
  }
}

TEST(ColumnReadTest, StoredRawChunksServeColumnsWithoutSolver) {
  // Forced kStored: every chunk takes the stored-raw fallback, so column
  // reads must never invoke a solver decode.
  Bytes plaintext;
  size_t width = 0;
  const Bytes container = MakeContainer(&plaintext, &width,
                                        container::kVersion, CodecId::kStored);
  if (!telemetry::kCompiledIn) {
    auto planes = IsobarCompressor::DecompressColumns(container, 0x5);
    ASSERT_TRUE(planes.ok());
    EXPECT_EQ(*planes, Planes(plaintext, width, 0x5));
    return;
  }
  telemetry::SetEnabled(true);
  const auto before = telemetry::MetricsRegistry::Global().Snapshot();
  auto planes = IsobarCompressor::DecompressColumns(container, 0x5);
  const auto after = telemetry::MetricsRegistry::Global().Snapshot();
  telemetry::SetEnabled(false);
  ASSERT_TRUE(planes.ok()) << planes.status().ToString();
  EXPECT_EQ(*planes, Planes(plaintext, width, 0x5));

  const auto* raw_after = after.FindCounter("pipeline.column_planes_raw");
  const auto* raw_before = before.FindCounter("pipeline.column_planes_raw");
  ASSERT_NE(raw_after, nullptr);
  // Two planes per chunk, four chunks, all served raw.
  EXPECT_EQ(raw_after->value - (raw_before ? raw_before->value : 0), 8u);
}

TEST(ColumnReadTest, SolverDecodesShowAsChunkDecodeSpans) {
  // A column read that needs solver-held planes decodes each chunk's
  // solver section once, and that decode is a chunk.decode span like a
  // full read's.
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  Bytes plaintext;
  size_t width = 0;
  const Bytes container = MakeContainer(&plaintext, &width);
  telemetry::SetEnabled(true);
  const auto before = telemetry::MetricsRegistry::Global().Snapshot();
  DecompressionStats stats;
  auto planes =
      IsobarCompressor::DecompressColumns(container, 0xF, {}, &stats);
  const auto delta = telemetry::Delta(
      before, telemetry::MetricsRegistry::Global().Snapshot());
  telemetry::SetEnabled(false);
  ASSERT_TRUE(planes.ok()) << planes.status().ToString();
  EXPECT_EQ(*planes, Planes(plaintext, width, 0xF));

  const auto* decoded = delta.FindCounter("pipeline.column_planes_decoded");
  ASSERT_NE(decoded, nullptr);
  EXPECT_GT(decoded->value, 0u);
  const auto* spans = delta.FindHistogram("span.chunk.decode.nanos");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(stats.chunk_count, 4u);
  EXPECT_EQ(spans->count, stats.chunk_count);
  // The read itself is one decompress.columns span, and sizing its
  // planes one decompress.output span.
  for (const char* name : {"span.decompress.columns.nanos",
                           "span.decompress.output.nanos"}) {
    const auto* call = delta.FindHistogram(name);
    ASSERT_NE(call, nullptr) << name;
    EXPECT_EQ(call->count, 1u) << name;
  }
}

TEST(ColumnReadTest, V1ContainerColumnsViaStridedGather) {
  Bytes plaintext;
  size_t width = 0;
  const Bytes container =
      MakeContainer(&plaintext, &width, container::kVersionV1);
  auto planes = IsobarCompressor::DecompressColumns(container, 0xB);
  ASSERT_TRUE(planes.ok()) << planes.status().ToString();
  EXPECT_EQ(*planes, Planes(plaintext, width, 0xB));
}

TEST(ColumnReadTest, MaskValidated) {
  Bytes plaintext;
  size_t width = 0;
  const Bytes container = MakeContainer(&plaintext, &width);
  EXPECT_EQ(
      IsobarCompressor::DecompressColumns(container, 0).status().code(),
      StatusCode::kInvalidArgument);
  // Bit 8 names a column the 8-byte elements do not have.
  EXPECT_EQ(
      IsobarCompressor::DecompressColumns(container, 1ull << 8).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(ColumnReadTest, FailPolicyDoesNotSizeTheDeclaredShape) {
  // A bare 40-byte v1 header declaring 2^60 + 1 elements of 8 bytes. Under
  // the default kFail the read fails at the lost tail like Decompress
  // does, instead of first sizing (and throwing on) the declared planes:
  // 2^63 + 8 bytes for every column, 2^60 + 1 for one.
  container::Header header;
  header.version = container::kVersionV1;
  header.width = 8;
  header.element_count = (uint64_t{1} << 60) + 1;
  header.chunk_elements = uint64_t{1} << 25;
  header.chunk_count = (header.element_count + header.chunk_elements - 1) /
                       header.chunk_elements;
  Bytes bare;
  container::AppendHeader(header, &bare);
  ASSERT_EQ(bare.size(), container::kHeaderSize);
  for (const uint64_t mask : {0xFFull, 0x80ull}) {
    SCOPED_TRACE(mask);
    EXPECT_NO_THROW({
      auto planes = IsobarCompressor::DecompressColumns(bare, mask);
      EXPECT_FALSE(planes.ok());
    });
  }
}

// ---------------------------------------------------------------------------
// SeekToChunk.

TEST(SeekToChunkTest, IndexSeekAgreesWithSequentialSkips) {
  Bytes plaintext;
  size_t width = 0;
  const Bytes container = MakeContainer(&plaintext, &width);

  IsobarStreamReader seeker(container);
  ASSERT_TRUE(seeker.Init().ok());
  EXPECT_TRUE(seeker.has_chunk_index());
  ASSERT_TRUE(seeker.SeekToChunk(2).ok());

  IsobarStreamReader skipper(container);
  ASSERT_TRUE(skipper.Init().ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(*skipper.SkipChunk());

  // The index-based seek lands exactly where two SkipChunks land.
  EXPECT_EQ(seeker.chunks_read(), skipper.chunks_read());
  EXPECT_EQ(seeker.elements_read(), skipper.elements_read());
  Bytes from_seek, from_skip;
  ASSERT_TRUE(*seeker.NextChunk(&from_seek));
  ASSERT_TRUE(*skipper.NextChunk(&from_skip));
  EXPECT_EQ(from_seek, from_skip);
  EXPECT_TRUE(std::equal(from_seek.begin(), from_seek.end(),
                         plaintext.begin() + 2 * kChunkElements * width));

  // Backward seek, then the stream replays from the start.
  ASSERT_TRUE(seeker.SeekToChunk(0).ok());
  ASSERT_TRUE(*seeker.NextChunk(&from_seek));
  EXPECT_TRUE(std::equal(from_seek.begin(), from_seek.end(),
                         plaintext.begin()));

  // Seeking to the chunk count is the end of the stream; past it is an
  // error.
  ASSERT_TRUE(seeker.SeekToChunk(4).ok());
  Bytes chunk;
  auto more = seeker.NextChunk(&chunk);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_FALSE(*more);
  EXPECT_FALSE(seeker.SeekToChunk(5).ok());
}

TEST(SeekToChunkTest, V1FallbackSeeksViaSkipChunk) {
  Bytes plaintext;
  size_t width = 0;
  const Bytes container =
      MakeContainer(&plaintext, &width, container::kVersionV1);
  IsobarStreamReader reader(container);
  ASSERT_TRUE(reader.Init().ok());
  EXPECT_FALSE(reader.has_chunk_index());
  ASSERT_TRUE(reader.SeekToChunk(3).ok());
  EXPECT_EQ(reader.chunks_read(), 3u);
  EXPECT_EQ(reader.elements_read(), 3 * kChunkElements);
  Bytes chunk;
  ASSERT_TRUE(*reader.NextChunk(&chunk));
  EXPECT_TRUE(std::equal(chunk.begin(), chunk.end(),
                         plaintext.begin() + 3 * kChunkElements * width));
  // Backward: rewind + re-skip.
  ASSERT_TRUE(reader.SeekToChunk(1).ok());
  ASSERT_TRUE(*reader.NextChunk(&chunk));
  EXPECT_TRUE(std::equal(chunk.begin(), chunk.end(),
                         plaintext.begin() + kChunkElements * width));
}

TEST(SeekToChunkTest, StreamedContainerSeeksThroughFooter) {
  // A streamed v2 container has sentinel header totals; the footer makes
  // it seekable anyway.
  auto spec = FindDatasetSpec("s3d_vmag");
  ASSERT_TRUE(spec.ok());
  auto dataset = GenerateDataset(**spec, kTotalElements);
  ASSERT_TRUE(dataset.ok());
  CompressOptions options;
  options.chunk_elements = kChunkElements;
  options.eupa.sample_elements = 2048;
  options.num_threads = 1;
  Bytes container;
  MemorySink sink(&container);
  IsobarStreamWriter writer(options, dataset->width(), &sink);
  ASSERT_TRUE(writer.Append(dataset->bytes()).ok());
  ASSERT_TRUE(writer.Finish().ok());

  IsobarStreamReader reader(container);
  ASSERT_TRUE(reader.Init().ok());
  EXPECT_TRUE(reader.has_chunk_index());
  EXPECT_EQ(reader.header().element_count, kTotalElements);
  EXPECT_EQ(reader.header().chunk_count, 4u);
  ASSERT_TRUE(reader.SeekToChunk(3).ok());
  Bytes chunk;
  ASSERT_TRUE(*reader.NextChunk(&chunk));
  EXPECT_TRUE(std::equal(
      chunk.begin(), chunk.end(),
      dataset->data.begin() + 3 * kChunkElements * dataset->width()));
  auto more = reader.NextChunk(&chunk);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_FALSE(*more);
}

// ---------------------------------------------------------------------------
// Tau validation hardening.

TEST(TauValidationTest, BatchCompressorRejectsInvalidTau) {
  const Bytes data(800, 0x42);
  for (double tau : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.42, 0.5,
                     300.0}) {
    CompressOptions options;
    options.analyzer.tau = tau;
    const IsobarCompressor compressor(options);
    auto result = compressor.Compress(data, 8);
    ASSERT_FALSE(result.ok()) << "tau " << tau;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  // The boundary values stay legal.
  for (double tau : {1.0, 1.42, 256.0}) {
    CompressOptions options;
    options.analyzer.tau = tau;
    const IsobarCompressor compressor(options);
    EXPECT_TRUE(compressor.Compress(data, 8).ok()) << "tau " << tau;
  }
}

TEST(TauValidationTest, StreamWriterRejectsInvalidTauAtConstruction) {
  Bytes buffer;
  MemorySink sink(&buffer);
  CompressOptions options;
  options.analyzer.tau = std::numeric_limits<double>::quiet_NaN();
  IsobarStreamWriter writer(options, 8, &sink);
  // The invalid tau never reaches the uint16 header cast: the writer is
  // unusable from the first call.
  const Bytes data(800, 0x42);
  auto status = writer.Append(data);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(buffer.empty());
}

TEST(TauValidationTest, UnsupportedContainerVersionRejected) {
  const Bytes data(800, 0x42);
  CompressOptions options;
  options.container_version = 7;
  const IsobarCompressor compressor(options);
  EXPECT_FALSE(compressor.Compress(data, 8).ok());
  Bytes buffer;
  MemorySink sink(&buffer);
  IsobarStreamWriter writer(options, 8, &sink);
  EXPECT_FALSE(writer.Append(data).ok());
}

// ---------------------------------------------------------------------------
// Batch/stream footer identity.

TEST(FooterIdentityTest, StreamedFooterMatchesBatchFooter) {
  Bytes plaintext;
  size_t width = 0;
  const Bytes batch = MakeContainer(&plaintext, &width);

  CompressOptions options;
  options.chunk_elements = kChunkElements;
  options.eupa.sample_elements = 2048;
  options.eupa.forced_codec = CodecId::kZlib;
  options.eupa.forced_linearization = Linearization::kColumn;
  options.num_threads = 1;
  Bytes streamed;
  MemorySink sink(&streamed);
  IsobarStreamWriter writer(options, width, &sink);
  ASSERT_TRUE(writer.Append(plaintext).ok());
  ASSERT_TRUE(writer.Finish().ok());

  // The headers differ (sentinels vs counted totals) but every byte after
  // them — records and index footer — is identical.
  ASSERT_EQ(batch.size(), streamed.size());
  EXPECT_TRUE(std::equal(batch.begin() + container::kHeaderSize, batch.end(),
                         streamed.begin() + container::kHeaderSize));

  // That one footer validates against either header and indexes every
  // chunk; for the stream it is the only place the element total lives.
  const Bytes* containers[] = {&batch, &streamed};
  for (const Bytes* container : containers) {
    size_t offset = 0;
    auto header = container::ParseHeader(*container, &offset);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    auto index = container::ParseFooter(*container, *header);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_EQ(index->element_count, kTotalElements);
    ASSERT_EQ(index->entries.size(), 4u);
    for (size_t i = 0; i < index->entries.size(); ++i) {
      EXPECT_EQ(index->entries[i].element_offset, i * kChunkElements);
    }
    EXPECT_EQ(index->entries.back().element_count,
              kTotalElements - 3 * kChunkElements);
  }
}

}  // namespace
}  // namespace isobar
