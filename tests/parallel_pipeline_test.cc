// The contract of the parallel chunk pipeline: for every thread count the
// emitted container is byte-identical to the serial path's, decompression
// reconstructs the original, and when chunks are encoded concurrently the
// container's record headers still account for every byte while the
// Timeline names every chunk once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/container.h"
#include "core/isobar.h"
#include "core/read_plan.h"
#include "core/stream.h"
#include "datagen/registry.h"
#include "io/sink.h"
#include "telemetry/metrics.h"
#include "telemetry/timeline.h"
#include "util/crc32c.h"

namespace isobar {
namespace {

Result<Dataset> Generate(const char* name, uint64_t elements) {
  ISOBAR_ASSIGN_OR_RETURN(const DatasetSpec* spec, FindDatasetSpec(name));
  return GenerateDataset(*spec, elements);
}

CompressOptions MultiChunkOptions(uint32_t num_threads) {
  CompressOptions options;
  options.chunk_elements = 50000;  // 8 chunks on a 400k-element dataset
  options.num_threads = num_threads;
  // Pin the pipeline decision: EUPA picks by *measured* candidate
  // throughput, which can flip between runs on a loaded machine. Byte
  // identity across thread counts is a per-decision guarantee, so these
  // tests must compare containers built from the same decision.
  options.eupa.forced_codec = CodecId::kZlib;
  options.eupa.forced_linearization = Linearization::kColumn;
  return options;
}

TEST(ParallelPipelineTest, CompressIsByteIdenticalAcrossThreadCounts) {
  auto dataset = Generate("flash_velx", 400000);
  ASSERT_TRUE(dataset.ok());

  const IsobarCompressor serial(MultiChunkOptions(1));
  auto baseline = serial.Compress(dataset->bytes(), 8);
  ASSERT_TRUE(baseline.ok());

  for (uint32_t threads : {2u, 8u}) {
    const IsobarCompressor parallel(MultiChunkOptions(threads));
    auto container = parallel.Compress(dataset->bytes(), 8);
    ASSERT_TRUE(container.ok());
    EXPECT_EQ(*container, *baseline) << "threads=" << threads;
  }
}

TEST(ParallelPipelineTest, ParallelStatsMatchSerialStats) {
  auto dataset = Generate("gts_phi_l", 400000);
  ASSERT_TRUE(dataset.ok());

  CompressionStats serial_stats;
  const IsobarCompressor serial(MultiChunkOptions(1));
  ASSERT_TRUE(serial.Compress(dataset->bytes(), 8, &serial_stats).ok());

  CompressionStats parallel_stats;
  const IsobarCompressor parallel(MultiChunkOptions(8));
  ASSERT_TRUE(parallel.Compress(dataset->bytes(), 8, &parallel_stats).ok());

  // Deterministic fields agree exactly: chunk stats merge in chunk order
  // with the serial path's arithmetic (timings, of course, differ).
  EXPECT_EQ(parallel_stats.chunk_count, serial_stats.chunk_count);
  EXPECT_EQ(parallel_stats.improvable_chunks, serial_stats.improvable_chunks);
  EXPECT_EQ(parallel_stats.improvable, serial_stats.improvable);
  EXPECT_DOUBLE_EQ(parallel_stats.mean_htc_fraction,
                   serial_stats.mean_htc_fraction);
  EXPECT_EQ(parallel_stats.output_bytes, serial_stats.output_bytes);
}

TEST(ParallelPipelineTest, ParallelDecompressReconstructsOriginal) {
  auto dataset = Generate("flash_velx", 400000);
  ASSERT_TRUE(dataset.ok());
  const IsobarCompressor compressor(MultiChunkOptions(2));
  auto container = compressor.Compress(dataset->bytes(), 8);
  ASSERT_TRUE(container.ok());

  for (uint32_t threads : {1u, 2u, 8u}) {
    DecompressOptions options;
    options.num_threads = threads;
    DecompressionStats stats;
    auto restored = IsobarCompressor::Decompress(*container, options, &stats);
    ASSERT_TRUE(restored.ok()) << "threads=" << threads;
    EXPECT_EQ(*restored, dataset->data) << "threads=" << threads;
    EXPECT_EQ(stats.chunk_count, 8u);
    EXPECT_EQ(stats.output_bytes, dataset->data.size());
  }
}

TEST(ParallelPipelineTest, ParallelDecompressRejectsCorruptPayload) {
  auto dataset = Generate("flash_velx", 200000);
  ASSERT_TRUE(dataset.ok());
  const IsobarCompressor compressor(MultiChunkOptions(2));
  auto container = compressor.Compress(dataset->bytes(), 8);
  ASSERT_TRUE(container.ok());

  // Flip a byte deep in the payload: the parallel path must surface the
  // chunk's checksum failure, not silently return damaged plaintext.
  Bytes corrupt = *container;
  corrupt[corrupt.size() - 20] ^= 0xFF;
  DecompressOptions options;
  options.num_threads = 4;
  auto restored = IsobarCompressor::Decompress(corrupt, options);
  EXPECT_FALSE(restored.ok());
}

TEST(ParallelPipelineTest, StreamWriterIsByteIdenticalAcrossThreadCounts) {
  auto dataset = Generate("flash_velx", 400000);
  ASSERT_TRUE(dataset.ok());

  auto stream_container = [&](uint32_t threads) {
    Bytes buffer;
    MemorySink sink(&buffer);
    IsobarStreamWriter writer(MultiChunkOptions(threads), 8, &sink);
    // Uneven appends so chunk boundaries never align with write sizes.
    ByteSpan data = dataset->bytes();
    size_t offset = 0;
    const size_t step = 123457;
    while (offset < data.size()) {
      const size_t take = std::min(step, data.size() - offset);
      EXPECT_TRUE(writer.Append(data.subspan(offset, take)).ok());
      offset += take;
    }
    EXPECT_TRUE(writer.Finish().ok());
    return buffer;
  };

  const Bytes baseline = stream_container(1);
  for (uint32_t threads : {2u, 8u}) {
    EXPECT_EQ(stream_container(threads), baseline) << "threads=" << threads;
  }

  // Streamed containers stay readable by the batch decompressor.
  auto restored = IsobarCompressor::Decompress(baseline);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, dataset->data);
}

// ---------------------------------------------------------------------------
// Telemetry under concurrency: worker threads encode the chunks, yet the
// container holds the records in chunk order and the Timeline names each
// chunk exactly once under the pipeline's one id.

class ParallelTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
    telemetry::SetEnabled(true);
    telemetry::Timeline::Global().SetEnabled(true);
    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::Timeline::Global().Clear();
  }

  void TearDown() override {
    if (!telemetry::kCompiledIn) return;
    telemetry::SetEnabled(false);
    telemetry::Timeline::Global().SetEnabled(false);
    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::Timeline::Global().Clear();
  }

  /// Chunk ordinals per chunk-stage slice name, with every pipeline id
  /// the slices carried and the events the rings overwrote.
  struct ChunkSlices {
    std::map<std::string, std::vector<uint64_t>> ordinals;
    std::set<uint64_t> pipeline_ids;
    uint64_t dropped = 0;
  };

  static ChunkSlices CollectChunkSlices() {
    ChunkSlices slices;
    for (const auto& thread : telemetry::Timeline::Global().Snapshot()) {
      slices.dropped += thread.dropped;
      for (const auto& event : thread.events) {
        if (event.name != "compress.chunk" && event.name != "chunk.analyze" &&
            event.name != "chunk.partition" && event.name != "chunk.solve") {
          continue;
        }
        slices.pipeline_ids.insert(event.arg0);
        EXPECT_GE(event.arg1, 1u) << event.name;
        slices.ordinals[event.name].push_back(event.arg1 - 1);
      }
    }
    for (auto& [name, seen] : slices.ordinals) {
      std::sort(seen.begin(), seen.end());
    }
    return slices;
  }

  /// Walks `container`'s records: each must sit right after the previous
  /// one and hold `chunk_elements` elements of `data` in chunk order.
  /// Returns header + records + footer bytes, or 0 when the walk fails.
  static uint64_t AccountRecords(ByteSpan container, const Bytes& data,
                                 uint64_t chunk_elements,
                                 uint64_t expected_chunks) {
    auto plan = ReadPlan::Open(container, DecompressOptions{});
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return 0;
    const std::vector<PlannedRecord> records = plan->LocateAll();
    EXPECT_EQ(records.size(), expected_chunks);
    EXPECT_FALSE(plan->tail_lost());
    uint64_t accounted = container::kHeaderSize;
    uint64_t input_total = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      const PlannedRecord& record = records[i];
      EXPECT_TRUE(record.damage.ok()) << record.damage.ToString();
      EXPECT_EQ(record.index, i);
      EXPECT_EQ(record.byte_offset, accounted) << i;
      EXPECT_EQ(record.element_offset, i * chunk_elements);
      EXPECT_EQ(record.header.element_count, chunk_elements) << i;
      // The record's checksum is over its own slice of the input, so a
      // record stitched out of order would fail here.
      const ByteSpan slice = ByteSpan(data).subspan(
          record.element_offset * 8, record.header.element_count * 8);
      EXPECT_EQ(record.header.crc32c, crc32c::Value(slice)) << i;
      input_total += slice.size();
      accounted += container::kChunkHeaderSize +
                    record.header.compressed_size + record.header.raw_size;
    }
    EXPECT_EQ(input_total, data.size());
    return accounted + container::FooterBytes(records.size());
  }
};

TEST_F(ParallelTelemetryTest, ChunkTracesReconstructContainerUnderConcurrency) {
  auto dataset = Generate("flash_velx", 400000);
  ASSERT_TRUE(dataset.ok());
  const IsobarCompressor compressor(MultiChunkOptions(8));
  CompressionStats stats;
  auto container = compressor.Compress(dataset->bytes(), 8, &stats);
  ASSERT_TRUE(container.ok());
  ASSERT_EQ(stats.chunk_count, 8u);

  // Every container byte is accounted for: header + per-chunk records +
  // the v2 chunk-index footer, the records in chunk order (equal chunks
  // on this dataset).
  EXPECT_EQ(AccountRecords(*container, dataset->data, 50000, 8),
            container->size());
  EXPECT_EQ(stats.output_bytes, container->size());

  // Each of the 8 chunks left one slice per stage, all under one id, and
  // the rings lost none of them.
  const ChunkSlices slices = CollectChunkSlices();
  EXPECT_EQ(slices.dropped, 0u);
  const std::vector<uint64_t> all_chunks{0, 1, 2, 3, 4, 5, 6, 7};
  for (const char* stage : {"compress.chunk", "chunk.analyze",
                            "chunk.partition", "chunk.solve"}) {
    const auto found = slices.ordinals.find(stage);
    ASSERT_NE(found, slices.ordinals.end()) << stage;
    EXPECT_EQ(found->second, all_chunks) << stage;
  }
  ASSERT_EQ(slices.pipeline_ids.size(), 1u);
  EXPECT_NE(*slices.pipeline_ids.begin(), 0u);
}

TEST_F(ParallelTelemetryTest, StreamWriterTracesStitchedInChunkOrder) {
  auto dataset = Generate("flash_velx", 400000);
  ASSERT_TRUE(dataset.ok());
  Bytes buffer;
  MemorySink sink(&buffer);
  IsobarStreamWriter writer(MultiChunkOptions(4), 8, &sink);
  // Uneven appends, so chunks complete mid-call while workers still
  // encode the ones before them.
  const ByteSpan data = dataset->bytes();
  for (size_t offset = 0; offset < data.size();) {
    const size_t take = std::min<size_t>(300007, data.size() - offset);
    ASSERT_TRUE(writer.Append(data.subspan(offset, take)).ok());
    offset += take;
  }
  ASSERT_TRUE(writer.Finish().ok());

  EXPECT_EQ(AccountRecords(buffer, dataset->data, 50000, 8), buffer.size());

  const ChunkSlices slices = CollectChunkSlices();
  const auto found = slices.ordinals.find("compress.chunk");
  ASSERT_NE(found, slices.ordinals.end());
  EXPECT_EQ(found->second, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  ASSERT_EQ(slices.pipeline_ids.size(), 1u);
  EXPECT_NE(*slices.pipeline_ids.begin(), 0u);
}

}  // namespace
}  // namespace isobar
