#include <gtest/gtest.h>

#include "compressors/registry.h"
#include "core/chunk_codec.h"
#include "core/read_plan.h"
#include "util/random.h"

namespace isobar {
namespace {

// width 4: columns 0-1 noise, 2 skewed, 3 constant.
Bytes MixedChunk(size_t n, uint64_t seed) {
  Bytes data;
  Xoshiro256 rng(seed);
  for (size_t i = 0; i < n; ++i) {
    data.push_back(static_cast<uint8_t>(rng.Next()));
    data.push_back(static_cast<uint8_t>(rng.Next()));
    data.push_back(static_cast<uint8_t>(rng.NextBounded(4)));
    data.push_back(0x99);
  }
  return data;
}

const Codec& Zlib() { return **GetCodec(CodecId::kZlib); }

// Frames encoded `records` as a v1 container whose header declares
// `codec`, `lin` and the given geometry (kUnknownCount totals make it a
// streamed-style container).
Bytes Frame(const Bytes& records, CodecId codec, Linearization lin,
            uint64_t chunk_elements, uint64_t element_count,
            uint64_t chunk_count) {
  container::Header header;
  header.version = container::kVersionV1;
  header.width = 4;
  header.codec = codec;
  header.linearization = lin;
  header.chunk_elements = chunk_elements;
  header.element_count = element_count;
  header.chunk_count = chunk_count;
  Bytes out;
  container::AppendHeader(header, &out);
  out.insert(out.end(), records.begin(), records.end());
  return out;
}

// Locates record `i` of `container` through a read plan and decodes it.
Status DecodeRecord(const Bytes& container, uint64_t i, Bytes* out) {
  ISOBAR_ASSIGN_OR_RETURN(ReadPlan plan,
                          ReadPlan::Open(container, DecompressOptions{}));
  PlannedRecord record;
  if (!plan.Locate(i, &record)) return Status::NotFound("no such record");
  ISOBAR_RETURN_NOT_OK(record.damage);
  const size_t base = out->size();
  out->resize(base + record.element_count * plan.header().width);
  return DecodeChunkPayload(
      plan, record, MutableByteSpan(out->data() + base, out->size() - base));
}

TEST(ChunkCodecTest, EncodeDecodeRoundTrip) {
  const Bytes chunk = MixedChunk(50000, 1);
  const Analyzer analyzer;
  Bytes record;
  CompressionStats stats;
  ASSERT_TRUE(EncodeChunk(analyzer, Zlib(), Linearization::kRow, chunk, 4,
                          &record, &stats)
                  .ok());
  EXPECT_EQ(stats.chunk_count, 1u);
  EXPECT_EQ(stats.improvable_chunks, 1u);
  EXPECT_NEAR(stats.mean_htc_fraction, 0.5, 1e-9);
  EXPECT_LT(record.size(), chunk.size());  // 2 of 4 columns compress away

  const Bytes container = Frame(record, CodecId::kZlib, Linearization::kRow,
                                50000, 50000, 1);
  auto plan = ReadPlan::Open(container, DecompressOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PlannedRecord located;
  ASSERT_TRUE(plan->Locate(0, &located));
  EXPECT_TRUE(located.damage.ok());
  // The record's two sections run exactly to the end of the container.
  EXPECT_EQ(located.raw.data() + located.raw.size(),
            container.data() + container.size());
  Bytes out;
  ASSERT_TRUE(DecodeRecord(container, 0, &out).ok());
  EXPECT_EQ(out, chunk);
}

TEST(ChunkCodecTest, StatsAccumulateAcrossChunks) {
  const Analyzer analyzer;
  CompressionStats stats;
  Bytes record;
  // One improvable chunk (htc 0.5) and one undetermined (htc 0 with an
  // all-compressible verdict -> constant data).
  ASSERT_TRUE(EncodeChunk(analyzer, Zlib(), Linearization::kRow,
                          MixedChunk(20000, 2), 4, &record, &stats)
                  .ok());
  ASSERT_TRUE(EncodeChunk(analyzer, Zlib(), Linearization::kRow,
                          Bytes(20000 * 4, 0x11), 4, &record, &stats)
                  .ok());
  EXPECT_EQ(stats.chunk_count, 2u);
  EXPECT_EQ(stats.improvable_chunks, 1u);
  EXPECT_TRUE(stats.improvable);
  EXPECT_NEAR(stats.mean_htc_fraction, 0.25, 1e-9);  // mean of 0.5 and 0
  EXPECT_GT(stats.analysis_seconds, 0.0);
  EXPECT_GT(stats.codec_seconds, 0.0);
}

TEST(ChunkCodecTest, NullStatsAccepted) {
  const Analyzer analyzer;
  Bytes record;
  ASSERT_TRUE(EncodeChunk(analyzer, Zlib(), Linearization::kColumn,
                          MixedChunk(5000, 3), 4, &record, nullptr)
                  .ok());
}

TEST(ChunkCodecTest, SequentialRecordsDecodeInOrder) {
  const Analyzer analyzer;
  const Bytes chunk_a = MixedChunk(10000, 4);
  const Bytes chunk_b = MixedChunk(7000, 5);
  Bytes records;
  ASSERT_TRUE(EncodeChunk(analyzer, Zlib(), Linearization::kColumn, chunk_a,
                          4, &records, nullptr)
                  .ok());
  ASSERT_TRUE(EncodeChunk(analyzer, Zlib(), Linearization::kColumn, chunk_b,
                          4, &records, nullptr)
                  .ok());

  const Bytes container = Frame(records, CodecId::kZlib,
                                Linearization::kColumn, 10000, 17000, 2);
  Bytes out;
  ASSERT_TRUE(DecodeRecord(container, 0, &out).ok());
  ASSERT_TRUE(DecodeRecord(container, 1, &out).ok());
  Bytes expected = chunk_a;
  expected.insert(expected.end(), chunk_b.begin(), chunk_b.end());
  EXPECT_EQ(out, expected);
}

TEST(ChunkCodecTest, ElementCountAboveBoundRejected) {
  const Analyzer analyzer;
  const Bytes chunk = MixedChunk(10000, 6);
  Bytes record;
  ASSERT_TRUE(EncodeChunk(analyzer, Zlib(), Linearization::kRow, chunk, 4,
                          &record, nullptr)
                  .ok());
  // A chunk size of 9999 bounds even the last record of a container
  // without totals.
  const Bytes container =
      Frame(record, CodecId::kZlib, Linearization::kRow, 9999,
            container::kUnknownCount, container::kUnknownCount);
  Bytes out;
  EXPECT_EQ(DecodeRecord(container, 0, &out).code(), StatusCode::kCorruption);
}

TEST(ChunkCodecTest, WrongLinearizationFailsChecksum) {
  // Decoding with the wrong linearization scatters bytes to the wrong
  // positions; the chunk CRC must catch it.
  const Analyzer analyzer;
  const Bytes chunk = MixedChunk(20000, 7);
  Bytes record;
  ASSERT_TRUE(EncodeChunk(analyzer, Zlib(), Linearization::kColumn, chunk, 4,
                          &record, nullptr)
                  .ok());
  const Bytes container = Frame(record, CodecId::kZlib, Linearization::kRow,
                                20000, 20000, 1);
  Bytes out;
  EXPECT_EQ(DecodeRecord(container, 0, &out).code(), StatusCode::kCorruption);
}

TEST(ChunkCodecTest, MergeChunkStatsWeightsByChunkCount) {
  CompressionStats total;
  total.chunk_count = 3;
  total.mean_htc_fraction = 0.4;
  CompressionStats chunk;
  chunk.chunk_count = 1;
  chunk.mean_htc_fraction = 0.2;
  MergeChunkStats(chunk, &total);
  EXPECT_EQ(total.chunk_count, 4u);
  EXPECT_NEAR(total.mean_htc_fraction, 0.35, 1e-12);

  // A worker's multi-chunk subtotal merges by weight — not as a single
  // observation, which would skew the pipeline mean toward late workers.
  CompressionStats left;
  left.chunk_count = 2;
  left.mean_htc_fraction = 0.3;
  CompressionStats right;
  right.chunk_count = 6;
  right.mean_htc_fraction = 0.1;
  MergeChunkStats(right, &left);
  EXPECT_EQ(left.chunk_count, 8u);
  EXPECT_NEAR(left.mean_htc_fraction, 0.15, 1e-12);  // (2*0.3 + 6*0.1) / 8

  // Empty contributions change nothing.
  const CompressionStats empty;
  MergeChunkStats(empty, &left);
  EXPECT_EQ(left.chunk_count, 8u);
  EXPECT_NEAR(left.mean_htc_fraction, 0.15, 1e-12);
}

TEST(ChunkCodecTest, WrongCodecFailsCleanly) {
  const Analyzer analyzer;
  const Bytes chunk = MixedChunk(20000, 8);
  Bytes record;
  ASSERT_TRUE(EncodeChunk(analyzer, Zlib(), Linearization::kRow, chunk, 4,
                          &record, nullptr)
                  .ok());
  const Bytes container = Frame(record, CodecId::kBzip2, Linearization::kRow,
                                20000, 20000, 1);
  Bytes out;
  EXPECT_EQ(DecodeRecord(container, 0, &out).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace isobar
