#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <vector>

#include "core/container.h"
#include "core/isobar.h"
#include "core/read_plan.h"
#include "core/stream.h"
#include "datagen/registry.h"
#include "io/sink.h"
#include "telemetry/metrics.h"
#include "util/random.h"

namespace isobar {
namespace {

Dataset HardDataset(uint64_t elements, const char* name = "gts_phi_l") {
  auto spec = FindDatasetSpec(name);
  auto dataset = GenerateDataset(**spec, elements);
  return std::move(*dataset);
}

CompressOptions SmallChunkOptions() {
  CompressOptions options;
  options.chunk_elements = 20000;
  options.eupa.sample_elements = 4096;
  return options;
}

TEST(StreamWriterTest, MatchesBatchCompressorByteForByte) {
  // With a fully forced pipeline the batch and streaming entry points make
  // identical per-chunk decisions: every byte past the header (records
  // and, in v2, the index footer) is the same, and the headers differ only
  // in the totals, which the stream leaves as sentinels.
  const struct {
    const char* profile;
    uint64_t elements;
    uint64_t chunk_elements;
    Linearization linearization;
    uint32_t num_threads;
    uint16_t container_version;
  } cases[] = {
      {"gts_phi_l", 65000, 20000, Linearization::kRow, 0, container::kVersion},
      {"s3d_vmag", 35000, 10000, Linearization::kColumn, 1,
       container::kVersion},
      {"gts_phi_l", 65000, 20000, Linearization::kRow, 0,
       container::kVersionV1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << c.profile << " v" << c.container_version
                                    << " threads " << c.num_threads);
    const Dataset dataset = HardDataset(c.elements, c.profile);
    CompressOptions options;
    options.chunk_elements = c.chunk_elements;
    options.eupa.forced_codec = CodecId::kZlib;
    options.eupa.forced_linearization = c.linearization;
    options.num_threads = c.num_threads;
    options.container_version = c.container_version;

    auto batch = IsobarCompressor(options).Compress(dataset.bytes(),
                                                    dataset.width());
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    Bytes streamed;
    MemorySink sink(&streamed);
    IsobarStreamWriter writer(options, dataset.width(), &sink);
    ASSERT_TRUE(writer.Append(dataset.bytes()).ok());
    ASSERT_TRUE(writer.Finish().ok());

    ASSERT_EQ(streamed.size(), batch->size());
    EXPECT_TRUE(std::equal(streamed.begin() + container::kHeaderSize,
                           streamed.end(),
                           batch->begin() + container::kHeaderSize));

    size_t offset = 0;
    auto batch_header = container::ParseHeader(*batch, &offset);
    ASSERT_TRUE(batch_header.ok()) << batch_header.status().ToString();
    offset = 0;
    auto stream_header = container::ParseHeader(streamed, &offset);
    ASSERT_TRUE(stream_header.ok()) << stream_header.status().ToString();
    EXPECT_EQ(batch_header->element_count, c.elements);
    EXPECT_EQ(batch_header->chunk_count,
              (c.elements + c.chunk_elements - 1) / c.chunk_elements);
    EXPECT_EQ(stream_header->element_count, container::kUnknownCount);
    EXPECT_EQ(stream_header->chunk_count, container::kUnknownCount);
    // With the sentinels swapped in, the batch header serializes to the
    // stream's header bytes: no other field differs.
    container::Header expected = *batch_header;
    expected.element_count = container::kUnknownCount;
    expected.chunk_count = container::kUnknownCount;
    Bytes expected_bytes;
    container::AppendHeader(expected, &expected_bytes);
    EXPECT_TRUE(std::equal(expected_bytes.begin(), expected_bytes.end(),
                           streamed.begin()));
  }
}

TEST(StreamWriterTest, PooledAppendCopiesCallerBuffer) {
  // A pooled chunk may still be encoding after Append returns, so the task
  // must own a copy of the caller's bytes: here every chunk comes from one
  // reused buffer that is overwritten right after each Append, and once
  // more before Finish, while the tail still sits in the writer.
  CompressOptions options = SmallChunkOptions();
  options.chunk_elements = 2000;
  const size_t chunk_bytes = options.chunk_elements * 8;
  const Dataset dataset = HardDataset(12 * 2000 + 700);

  Bytes reference;
  MemorySink reference_sink(&reference);
  options.num_threads = 1;
  IsobarStreamWriter serial(options, 8, &reference_sink);
  ASSERT_TRUE(serial.Append(dataset.bytes()).ok());
  ASSERT_TRUE(serial.Finish().ok());

  Bytes pooled;
  MemorySink pooled_sink(&pooled);
  options.num_threads = 4;
  IsobarStreamWriter writer(options, 8, &pooled_sink);
  Bytes buffer;
  for (size_t offset = 0; offset < dataset.data.size();
       offset += chunk_bytes) {
    const size_t n = std::min(chunk_bytes, dataset.data.size() - offset);
    buffer.assign(dataset.data.begin() + offset,
                  dataset.data.begin() + offset + n);
    ASSERT_TRUE(writer.Append(buffer).ok());
    std::fill(buffer.begin(), buffer.end(), 0xA5);
  }
  std::fill(buffer.begin(), buffer.end(), 0x5A);
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(pooled, reference);
}

TEST(StreamWriterTest, OneChunkContainersDoNotStartThePool) {
  // A container's last chunk encodes inline when nothing is in flight, so
  // neither a one-chunk batch call nor a sub-chunk stream submits a pool
  // task, whatever the thread count.
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::SetEnabled(true);
  telemetry::Counter& submitted = telemetry::GetCounter("pool.tasks_submitted");
  CompressOptions options = SmallChunkOptions();
  options.num_threads = 4;
  const IsobarCompressor compressor(options);

  const Dataset one_chunk = HardDataset(5000);
  uint64_t before = submitted.value();
  ASSERT_TRUE(compressor.Compress(one_chunk.bytes(), 8).ok());
  EXPECT_EQ(submitted.value(), before) << "one-chunk Compress";

  before = submitted.value();
  Bytes stream_out;
  MemorySink sink(&stream_out);
  IsobarStreamWriter writer(options, 8, &sink);
  ASSERT_TRUE(writer.Append(one_chunk.bytes()).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(submitted.value(), before) << "sub-chunk stream";

  // The counter does move when chunks can overlap: three chunks, three
  // tasks.
  const Dataset three_chunks = HardDataset(60000);
  before = submitted.value();
  ASSERT_TRUE(compressor.Compress(three_chunks.bytes(), 8).ok());
  EXPECT_EQ(submitted.value() - before, 3u) << "three-chunk Compress";
  telemetry::SetEnabled(false);
}

TEST(StreamWriterTest, RejectsTheOptionsCompressRejects) {
  // One validation serves both entry points: whatever Compress refuses,
  // the writer refuses from its first call with the same status, before
  // a byte reaches the sink.
  struct Case {
    const char* what;
    size_t width;
    CompressOptions options;
  };
  std::vector<Case> cases;
  cases.push_back({"width 0", 0, CompressOptions{}});
  cases.push_back({"width 65", 65, CompressOptions{}});
  cases.push_back({"chunk_elements 0", 8, CompressOptions{}});
  cases.back().options.chunk_elements = 0;
  cases.push_back({"container_version 0", 8, CompressOptions{}});
  cases.back().options.container_version = 0;
  cases.push_back({"container_version past kVersion", 8, CompressOptions{}});
  cases.back().options.container_version = container::kVersion + 1;
  cases.push_back({"tau 0.5", 8, CompressOptions{}});
  cases.back().options.analyzer.tau = 0.5;
  cases.push_back({"tau NaN", 8, CompressOptions{}});
  cases.back().options.analyzer.tau = std::numeric_limits<double>::quiet_NaN();

  const Bytes data(800, 0x42);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    auto batch = IsobarCompressor(c.options).Compress(data, c.width);
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);

    Bytes streamed;
    MemorySink sink(&streamed);
    IsobarStreamWriter writer(c.options, c.width, &sink);
    const Status appended = writer.Append(data);
    EXPECT_EQ(appended.code(), batch.status().code());
    EXPECT_EQ(appended.message(), batch.status().message());
    EXPECT_FALSE(writer.Finish().ok());
    EXPECT_TRUE(streamed.empty());
  }
}

TEST(StreamWriterTest, StatsMatchBatchCompressor) {
  // Both entry points account through the one writer. With a forced
  // pipeline their training windows cannot decide differently, so every
  // non-timing CompressionStats field agrees, serial and pooled.
  const Dataset dataset = HardDataset(65000);
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    CompressOptions options = SmallChunkOptions();
    options.eupa.forced_codec = CodecId::kZlib;
    options.eupa.forced_linearization = Linearization::kColumn;
    options.num_threads = threads;

    CompressionStats batch;
    auto compressed =
        IsobarCompressor(options).Compress(dataset.bytes(), 8, &batch);
    ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
    Bytes streamed;
    MemorySink sink(&streamed);
    IsobarStreamWriter writer(options, 8, &sink);
    ASSERT_TRUE(writer.Append(dataset.bytes()).ok());
    ASSERT_TRUE(writer.Finish().ok());
    const CompressionStats& stream = writer.stats();

    EXPECT_EQ(batch.input_bytes, dataset.data.size());
    EXPECT_EQ(batch.output_bytes, compressed->size());
    EXPECT_EQ(batch.chunk_count, 4u);
    EXPECT_EQ(stream.input_bytes, batch.input_bytes);
    EXPECT_EQ(stream.output_bytes, streamed.size());
    EXPECT_EQ(stream.output_bytes, batch.output_bytes);
    EXPECT_EQ(stream.chunk_count, batch.chunk_count);
    EXPECT_EQ(stream.improvable_chunks, batch.improvable_chunks);
    EXPECT_EQ(stream.improvable, batch.improvable);
    EXPECT_EQ(stream.mean_htc_fraction, batch.mean_htc_fraction);
    EXPECT_EQ(stream.decision.codec, batch.decision.codec);
    EXPECT_EQ(stream.decision.linearization, batch.decision.linearization);
  }
}

TEST(StreamWriterTest, StreamedContainerDecompresses) {
  const Dataset dataset = HardDataset(100000);
  Bytes stream_out;
  MemorySink sink(&stream_out);
  IsobarStreamWriter writer(SmallChunkOptions(), 8, &sink);
  ASSERT_TRUE(writer.Append(dataset.bytes()).ok());
  ASSERT_TRUE(writer.Finish().ok());

  auto restored = IsobarCompressor::Decompress(stream_out);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, dataset.data);
}

TEST(StreamWriterTest, FooterlessContainerListsEveryRecord) {
  // A streamed v1 container has no footer and its header counts nothing
  // (sentinels), so the read plan walks it: every record comes back, in
  // order, and nothing lies past the last one. `isobar_cli info` lists a
  // container through this walk.
  const Dataset dataset = HardDataset(45000);
  CompressOptions options = SmallChunkOptions();
  options.container_version = container::kVersionV1;
  Bytes stream_out;
  MemorySink sink(&stream_out);
  IsobarStreamWriter writer(options, 8, &sink);
  ASSERT_TRUE(writer.Append(dataset.bytes()).ok());
  ASSERT_TRUE(writer.Finish().ok());

  auto plan = ReadPlan::Open(stream_out, DecompressOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->indexed());
  EXPECT_FALSE(plan->counted());
  EXPECT_EQ(plan->header().element_count, container::kUnknownCount);
  const std::vector<PlannedRecord> records = plan->LocateAll();
  ASSERT_EQ(records.size(), 3u);
  const uint64_t expected[] = {20000, 20000, 5000};
  uint64_t elements = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(records[i].damage.ok()) << records[i].damage.ToString();
    EXPECT_EQ(records[i].index, i);
    EXPECT_EQ(records[i].element_offset, elements);
    EXPECT_EQ(records[i].header.element_count, expected[i]);
    elements += records[i].header.element_count;
  }
  EXPECT_EQ(elements, 45000u);
  EXPECT_FALSE(plan->tail_lost());
  EXPECT_EQ(plan->trailing_bytes(), 0u);
}

TEST(StreamWriterTest, ArbitraryAppendGranularity) {
  // Dribble data in odd-sized pieces, including partial elements.
  const Dataset dataset = HardDataset(50000);
  Bytes stream_out;
  MemorySink sink(&stream_out);
  IsobarStreamWriter writer(SmallChunkOptions(), 8, &sink);

  Xoshiro256 rng(7);
  size_t position = 0;
  while (position < dataset.data.size()) {
    const size_t take = std::min<size_t>(1 + rng.NextBounded(77777),
                                         dataset.data.size() - position);
    ASSERT_TRUE(writer.Append(dataset.bytes().subspan(position, take)).ok());
    position += take;
  }
  ASSERT_TRUE(writer.Finish().ok());

  auto restored = IsobarCompressor::Decompress(stream_out);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, dataset.data);
}

TEST(StreamWriterTest, SubChunkStreamWorks) {
  // Less than one chunk of data: the decision happens at Finish().
  const Dataset dataset = HardDataset(5000);
  Bytes stream_out;
  MemorySink sink(&stream_out);
  IsobarStreamWriter writer(SmallChunkOptions(), 8, &sink);
  ASSERT_TRUE(writer.Append(dataset.bytes()).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto restored = IsobarCompressor::Decompress(stream_out);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, dataset.data);
}

TEST(StreamWriterTest, EmptyStreamProducesValidContainer) {
  Bytes stream_out;
  MemorySink sink(&stream_out);
  IsobarStreamWriter writer(SmallChunkOptions(), 8, &sink);
  ASSERT_TRUE(writer.Finish().ok());
  auto restored = IsobarCompressor::Decompress(stream_out);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
}

TEST(StreamWriterTest, FinishIsIdempotentAndAppendAfterFinishFails) {
  Bytes stream_out;
  MemorySink sink(&stream_out);
  IsobarStreamWriter writer(SmallChunkOptions(), 8, &sink);
  ASSERT_TRUE(writer.Append(Bytes(80, 1)).ok());
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_TRUE(writer.finished());
  EXPECT_FALSE(writer.Append(Bytes(8, 1)).ok());
}

TEST(StreamWriterTest, MidElementFinishFails) {
  Bytes stream_out;
  MemorySink sink(&stream_out);
  IsobarStreamWriter writer(SmallChunkOptions(), 8, &sink);
  ASSERT_TRUE(writer.Append(Bytes(13, 1)).ok());  // 1.625 elements
  EXPECT_EQ(writer.Finish().code(), StatusCode::kInvalidArgument);
}

TEST(StreamWriterTest, InvalidConstructionReportsOnUse) {
  Bytes stream_out;
  MemorySink sink(&stream_out);
  IsobarStreamWriter bad_width(SmallChunkOptions(), 0, &sink);
  EXPECT_FALSE(bad_width.Append(Bytes(8, 0)).ok());
  IsobarStreamWriter null_sink(SmallChunkOptions(), 8, nullptr);
  EXPECT_FALSE(null_sink.Finish().ok());
}

TEST(StreamWriterTest, StatsAccumulate) {
  const Dataset dataset = HardDataset(60000);
  Bytes stream_out;
  MemorySink sink(&stream_out);
  IsobarStreamWriter writer(SmallChunkOptions(), 8, &sink);
  ASSERT_TRUE(writer.Append(dataset.bytes()).ok());
  ASSERT_TRUE(writer.Finish().ok());
  const CompressionStats& stats = writer.stats();
  EXPECT_EQ(stats.input_bytes, dataset.data.size());
  EXPECT_EQ(stats.output_bytes, stream_out.size());
  EXPECT_EQ(stats.chunk_count, 3u);
  EXPECT_TRUE(stats.improvable);
  EXPECT_GT(stats.ratio(), 1.2);
}

TEST(StreamReaderTest, IteratesChunksOfBatchContainer) {
  const Dataset dataset = HardDataset(65000);
  const IsobarCompressor batch(SmallChunkOptions());
  auto compressed = batch.Compress(dataset.bytes(), 8);
  ASSERT_TRUE(compressed.ok());

  IsobarStreamReader reader(*compressed);
  ASSERT_TRUE(reader.Init().ok());
  EXPECT_EQ(reader.header().element_count, 65000u);

  Bytes reassembled, chunk;
  int chunks = 0;
  for (;;) {
    auto more = reader.NextChunk(&chunk);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    reassembled.insert(reassembled.end(), chunk.begin(), chunk.end());
    ++chunks;
  }
  EXPECT_EQ(chunks, 4);  // 65000 / 20000 -> 3 full + 1 short
  EXPECT_EQ(reassembled, dataset.data);
}

TEST(StreamReaderTest, IteratesChunksOfStreamedContainer) {
  const Dataset dataset = HardDataset(45000);
  Bytes stream_out;
  MemorySink sink(&stream_out);
  IsobarStreamWriter writer(SmallChunkOptions(), 8, &sink);
  ASSERT_TRUE(writer.Append(dataset.bytes()).ok());
  ASSERT_TRUE(writer.Finish().ok());

  IsobarStreamReader reader(stream_out);
  ASSERT_TRUE(reader.Init().ok());
  // The streamed header itself holds sentinels, but the v2 chunk-index
  // footer supplies the real totals at Init().
  EXPECT_TRUE(reader.has_chunk_index());
  EXPECT_EQ(reader.header().element_count, 45000u);

  Bytes reassembled, chunk;
  for (;;) {
    auto more = reader.NextChunk(&chunk);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    reassembled.insert(reassembled.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(reassembled, dataset.data);
}

TEST(StreamReaderTest, SkipChunkSeeksWithoutDecoding) {
  const Dataset dataset = HardDataset(80000);
  const IsobarCompressor batch(SmallChunkOptions());
  auto compressed = batch.Compress(dataset.bytes(), 8);
  ASSERT_TRUE(compressed.ok());

  // Skip the first two 20000-element chunks, decode the third.
  IsobarStreamReader reader(*compressed);
  ASSERT_TRUE(reader.Init().ok());
  for (int i = 0; i < 2; ++i) {
    auto more = reader.SkipChunk();
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more);
  }
  EXPECT_EQ(reader.chunks_read(), 2u);
  Bytes chunk;
  auto more = reader.NextChunk(&chunk);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  const ByteSpan expected = dataset.bytes().subspan(2 * 20000 * 8, 20000 * 8);
  EXPECT_TRUE(std::equal(chunk.begin(), chunk.end(), expected.begin()));
}

TEST(StreamReaderTest, SkipAllChunksReachesCleanEnd) {
  const Dataset dataset = HardDataset(45000);
  const IsobarCompressor batch(SmallChunkOptions());
  auto compressed = batch.Compress(dataset.bytes(), 8);
  ASSERT_TRUE(compressed.ok());

  IsobarStreamReader reader(*compressed);
  ASSERT_TRUE(reader.Init().ok());
  int skipped = 0;
  for (;;) {
    auto more = reader.SkipChunk();
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ++skipped;
  }
  EXPECT_EQ(skipped, 3);  // 2 full + 1 short chunk
}

TEST(StreamReaderTest, RequiresInit) {
  Bytes dummy(100, 0);
  IsobarStreamReader reader(dummy);
  Bytes chunk;
  EXPECT_FALSE(reader.NextChunk(&chunk).ok());
}

TEST(StreamReaderTest, DetectsCorruptChunkMidStream) {
  const Dataset dataset = HardDataset(65000);
  const IsobarCompressor batch(SmallChunkOptions());
  auto compressed = batch.Compress(dataset.bytes(), 8);
  ASSERT_TRUE(compressed.ok());
  Bytes mutated = *compressed;
  // Damage the last chunk's payload. (Note: not every bit matters —
  // deflate's final-block padding bits are don't-care — so hit the last
  // byte before the index footer, which is always load-bearing: solver
  // checksum or raw data.)
  size_t header_offset = 0;
  auto header = container::ParseHeader(mutated, &header_offset);
  ASSERT_TRUE(header.ok());
  const size_t payload_end =
      mutated.size() - container::FooterBytes(header->chunk_count);
  mutated[payload_end - 1] ^= 0x20;

  IsobarStreamReader reader(mutated);
  ASSERT_TRUE(reader.Init().ok());
  Bytes chunk;
  Status last;
  for (;;) {
    auto more = reader.NextChunk(&chunk);
    if (!more.ok()) {
      last = more.status();
      break;
    }
    if (!*more) break;
  }
  EXPECT_EQ(last.code(), StatusCode::kCorruption);
}

TEST(SinkTest, CountingSinkCounts) {
  Bytes buffer;
  MemorySink memory(&buffer);
  CountingSink counting(&memory);
  ASSERT_TRUE(counting.Write(Bytes(100, 1)).ok());
  ASSERT_TRUE(counting.Write(Bytes(23, 2)).ok());
  EXPECT_EQ(counting.bytes_written(), 123u);
  EXPECT_EQ(buffer.size(), 123u);
}

TEST(SinkTest, ThrottledSinkAdvancesSimulatedClock) {
  ThrottledSink sink(/*bandwidth_mbps=*/100.0);
  ASSERT_TRUE(sink.Write(Bytes(50'000'000 / 100, 0)).ok());  // 0.5 MB
  EXPECT_NEAR(sink.simulated_seconds(), 0.005, 1e-9);
  ASSERT_TRUE(sink.Write(Bytes(500'000, 0)).ok());
  EXPECT_NEAR(sink.simulated_seconds(), 0.010, 1e-9);
  EXPECT_EQ(sink.bytes_written(), 1'000'000u);
}

TEST(SinkTest, FileSinkWritesFile) {
  const std::string path = ::testing::TempDir() + "/isobar_sink_test.bin";
  FileSink sink(path);
  ASSERT_TRUE(sink.status().ok());
  ASSERT_TRUE(sink.Write(Bytes{1, 2, 3, 4}).ok());
  ASSERT_TRUE(sink.Close().ok());
  std::ifstream in(path, std::ios::binary);
  Bytes content((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  EXPECT_EQ(content, (Bytes{1, 2, 3, 4}));
  EXPECT_FALSE(sink.Write(Bytes{5}).ok());  // closed
}

}  // namespace
}  // namespace isobar
