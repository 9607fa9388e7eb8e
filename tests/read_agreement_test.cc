// Reader agreement: Decompress, DecompressRange, DecompressColumns and
// IsobarStreamReader share one read plan and one salvage ledger, so the
// same damaged bytes must get the same verdict from every one of them.
// Table-driven over one-field mutations of a 25,000-element container in
// 10,000-element chunks (the last record is short), on batch and streamed
// containers of both format versions, under both salvage policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/container.h"
#include "core/isobar.h"
#include "core/stream.h"
#include "datagen/registry.h"
#include "io/fault_injection.h"
#include "io/sink.h"

namespace isobar {
namespace {

constexpr uint64_t kChunkElements = 10000;
constexpr uint64_t kTotalElements = 25000;  // Two full chunks + one short.
constexpr size_t kRecords = 3;

struct Flavor {
  const char* name;
  bool streamed;
  uint16_t version;
};

constexpr Flavor kFlavors[] = {{"batch-v2", false, container::kVersion},
                               {"streamed-v2", true, container::kVersion},
                               {"batch-v1", false, container::kVersionV1},
                               {"streamed-v1", true, container::kVersionV1}};

Bytes Plaintext(size_t* width) {
  auto spec = FindDatasetSpec("s3d_vmag");
  EXPECT_TRUE(spec.ok());
  auto dataset = GenerateDataset(**spec, kTotalElements);
  EXPECT_TRUE(dataset.ok());
  *width = dataset->width();
  return dataset->data;
}

// Forced zlib: its stream check rejects a flipped payload byte itself, so
// column reads (which cannot verify chunk CRCs) see payload damage too.
Bytes MakeContainer(const Flavor& flavor, const Bytes& plaintext,
                    size_t width) {
  CompressOptions options;
  options.chunk_elements = kChunkElements;
  options.eupa.forced_codec = CodecId::kZlib;
  options.eupa.forced_linearization = Linearization::kColumn;
  options.container_version = flavor.version;
  options.num_threads = 1;
  if (!flavor.streamed) {
    auto batch = IsobarCompressor(options).Compress(plaintext, width);
    EXPECT_TRUE(batch.ok());
    return *batch;
  }
  Bytes streamed;
  MemorySink sink(&streamed);
  IsobarStreamWriter writer(options, width, &sink);
  EXPECT_TRUE(writer.Append(plaintext).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return streamed;
}

struct RecordBytes {
  size_t header = 0;   // Chunk header start.
  size_t payload = 0;  // First compressed-section byte.
  size_t compressed_size = 0;
  size_t end = 0;  // One past the record.
};

std::vector<RecordBytes> FindRecords(const Bytes& container) {
  std::vector<RecordBytes> records;
  size_t offset = container::kHeaderSize;
  for (size_t i = 0; i < kRecords; ++i) {
    RecordBytes record;
    record.header = offset;
    auto chunk = container::ParseChunkHeader(container, &offset);
    EXPECT_TRUE(chunk.ok());
    record.payload = offset;
    record.compressed_size = chunk->compressed_size;
    offset += chunk->compressed_size + chunk->raw_size;
    record.end = offset;
    records.push_back(record);
  }
  return records;
}

enum class Mutation {
  kPayloadFlip,
  kCountAbove,
  kCountMinusOne,
  kCrcFieldFlip,  // Caught by the index entry; v1 has no footer to consult.
  kTruncate,
  kFooterSmash
};

struct Case {
  const char* name;
  Mutation mutation;
  size_t record;
};

constexpr Case kCases[] = {
    {"payload-flip-middle", Mutation::kPayloadFlip, 1},
    {"payload-flip-last", Mutation::kPayloadFlip, 2},
    {"count-above-middle", Mutation::kCountAbove, 1},
    {"count-above-last", Mutation::kCountAbove, 2},
    {"count-minus-one-middle", Mutation::kCountMinusOne, 1},
    {"count-minus-one-last", Mutation::kCountMinusOne, 2},
    {"crc-field-flip-middle", Mutation::kCrcFieldFlip, 1},
    {"mid-record-truncation", Mutation::kTruncate, 1},
    {"footer-trailer-smash", Mutation::kFooterSmash, 0}};

Bytes Mutate(const Bytes& container, const Case& c) {
  const RecordBytes r = FindRecords(container)[c.record];
  Bytes mutated = container;
  switch (c.mutation) {
    case Mutation::kPayloadFlip:  // Inside the solver stream.
      FlipBits(&mutated, r.payload + r.compressed_size / 2, 0x20);
      break;
    case Mutation::kCountAbove:
      SmashBytes(&mutated, r.header, 8, 0xEE);
      break;
    case Mutation::kCountMinusOne:
      StoreLE64(mutated.data() + r.header,
                LoadLE64(mutated.data() + r.header) - 1);
      break;
    case Mutation::kCrcFieldFlip:  // Chunk header bytes 18-21.
      FlipBits(&mutated, r.header + 18, 0x01);
      break;
    case Mutation::kTruncate:
      TruncateBytes(&mutated, r.payload + (r.end - r.payload) / 2);
      break;
    case Mutation::kFooterSmash:
      SmashBytes(&mutated, mutated.size() - container::kFooterTrailerSize, 8,
                 0xA5);
      break;
  }
  return mutated;
}

struct Read {
  Status status;
  Bytes out;
  SalvageReport report;
};

using Verdicts = std::vector<std::pair<uint64_t, ChunkFailureStage>>;

Verdicts VerdictsOf(const SalvageReport& report) {
  Verdicts verdicts;
  for (const ChunkSalvageRecord& record : report.damaged) {
    verdicts.emplace_back(record.chunk_index, record.stage);
  }
  return verdicts;
}

DecompressOptions Options(ChunkErrorPolicy policy, SalvageReport* report) {
  DecompressOptions options;
  options.num_threads = 1;
  options.on_chunk_error = policy;
  options.salvage_report = report;
  return options;
}

// Runs one batch reader (`call` maps options to its Result<Bytes>).
template <typename Call>
Read RunBatch(ChunkErrorPolicy policy, Call call) {
  Read read;
  auto result = call(Options(policy, &read.report));
  read.status = result.status();
  if (result.ok()) read.out = std::move(*result);
  return read;
}

Read RunReader(const Bytes& container, ChunkErrorPolicy policy) {
  Read read;
  IsobarStreamReader reader(container, Options(policy, nullptr));
  read.status = reader.Init();
  Bytes chunk;
  while (read.status.ok()) {
    auto more = reader.NextChunk(&chunk);
    read.status = more.status();
    if (!more.ok() || !*more) break;
    read.out.insert(read.out.end(), chunk.begin(), chunk.end());
  }
  read.report = reader.salvage_report();
  return read;
}

TEST(ReaderAgreementTest, EveryReaderGivesTheSameVerdict) {
  size_t width = 0;
  const Bytes plaintext = Plaintext(&width);
  const size_t chunk_bytes = kChunkElements * width;
  for (const Flavor& flavor : kFlavors) {
    const Bytes container = MakeContainer(flavor, plaintext, width);
    for (const Case& c : kCases) {
      // Only the footer mutations need a v2 container.
      if ((c.mutation == Mutation::kFooterSmash ||
           c.mutation == Mutation::kCrcFieldFlip) &&
          flavor.version < container::kVersion) {
        continue;
      }
      const Bytes mutated = Mutate(container, c);
      for (ChunkErrorPolicy policy :
           {ChunkErrorPolicy::kSkip, ChunkErrorPolicy::kZeroFill}) {
        SCOPED_TRACE(std::string(flavor.name) + " / " + c.name + " / " +
                     (policy == ChunkErrorPolicy::kSkip ? "skip" : "zero"));
        auto decompress = [&](ChunkErrorPolicy p, uint32_t threads) {
          return RunBatch(p, [&](DecompressOptions options) {
            options.num_threads = threads;
            return IsobarCompressor::Decompress(mutated, options);
          });
        };
        const Read batch = decompress(policy, 1);
        ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
        EXPECT_FALSE(batch.report.clean());
        const Verdicts verdicts = VerdictsOf(batch.report);
        const Read parallel = decompress(policy, 4);
        EXPECT_EQ(parallel.out, batch.out);
        EXPECT_EQ(VerdictsOf(parallel.report), verdicts);

        // (c) Every chunk the report does not name (ahead of a lost tail)
        // is byte-exact at its true offset; kSkip closes up the holes.
        const uint64_t reachable =
            batch.report.truncated_tail ? verdicts.back().first : kRecords;
        size_t holes = 0;
        for (uint64_t i = 0; i < reachable; ++i) {
          if (std::any_of(verdicts.begin(), verdicts.end(),
                          [&](const auto& v) { return v.first == i; })) {
            if (policy == ChunkErrorPolicy::kSkip) ++holes;
            continue;
          }
          const size_t begin = i * chunk_bytes;
          const size_t bytes = std::min(chunk_bytes, plaintext.size() - begin);
          const size_t at = (i - holes) * chunk_bytes;
          ASSERT_LE(at + bytes, batch.out.size()) << "chunk " << i;
          EXPECT_TRUE(std::equal(plaintext.begin() + begin,
                                 plaintext.begin() + begin + bytes,
                                 batch.out.begin() + at))
              << "chunk " << i;
        }

        // (a) Where the total is known, damage never resizes the output and
        // a whole-container range read matches the zero-filled decode.
        IsobarStreamReader probe(mutated, Options(policy, nullptr));
        ASSERT_TRUE(probe.Init().ok());
        if (probe.header().element_count != container::kUnknownCount) {
          const Read zero_filled = decompress(ChunkErrorPolicy::kZeroFill, 1);
          EXPECT_EQ(zero_filled.out.size(), plaintext.size());
          const Read range = RunBatch(policy, [&](DecompressOptions options) {
            return IsobarCompressor::DecompressRange(mutated, 0,
                                                     kTotalElements, options);
          });
          ASSERT_TRUE(range.status.ok()) << range.status.ToString();
          EXPECT_EQ(range.out, zero_filled.out);
          EXPECT_EQ(VerdictsOf(range.report), verdicts);
        }

        // (b) The chunk-at-a-time reader returns what Decompress returns.
        const Read reader = RunReader(mutated, policy);
        ASSERT_TRUE(reader.status.ok()) << reader.status.ToString();
        EXPECT_EQ(VerdictsOf(reader.report), verdicts);
        if (!batch.report.truncated_tail) {
          EXPECT_EQ(reader.out, batch.out);
        }

        // (d) Column reads name the same damage.
        const Read columns = RunBatch(policy, [&](DecompressOptions options) {
          return IsobarCompressor::DecompressColumns(mutated, FullMask(width),
                                                     options);
        });
        ASSERT_TRUE(columns.status.ok()) << columns.status.ToString();
        EXPECT_EQ(VerdictsOf(columns.report), verdicts);
      }
    }
  }
}

// A footer-less counted header must describe whole chunks plus one
// remainder; otherwise no record range can be trusted and every reader
// rejects the container under every policy.
TEST(ReaderAgreementTest, InconsistentCountedTotalsFailEveryReader) {
  size_t width = 0;
  const Bytes plaintext = Plaintext(&width);
  Bytes mutated = MakeContainer(kFlavors[2], plaintext, width);  // batch-v1
  StoreLE64(mutated.data() + 16, kTotalElements + kChunkElements);
  for (ChunkErrorPolicy policy :
       {ChunkErrorPolicy::kFail, ChunkErrorPolicy::kSkip,
        ChunkErrorPolicy::kZeroFill}) {
    const Read reads[] = {
        RunBatch(policy,
                 [&](DecompressOptions options) {
                   return IsobarCompressor::Decompress(mutated, options);
                 }),
        RunBatch(policy,
                 [&](DecompressOptions options) {
                   return IsobarCompressor::DecompressRange(mutated, 0, 1,
                                                            options);
                 }),
        RunBatch(policy,
                 [&](DecompressOptions options) {
                   return IsobarCompressor::DecompressColumns(mutated, 0x1,
                                                              options);
                 }),
        RunReader(mutated, policy)};
    for (const Read& read : reads) {
      EXPECT_EQ(read.status.code(), StatusCode::kCorruption);
    }
  }
}

// Under kFail the report still names the chunk that aborted the read, on
// every reader, with the index footer and without it.
TEST(ReaderAgreementTest, FailPolicyReportNamesTheAbortingChunk) {
  size_t width = 0;
  const Bytes plaintext = Plaintext(&width);
  struct FailCase {
    Flavor flavor;
    Case mutation;
    uint64_t aborting_chunk;
  };
  for (const FailCase& f :
       {FailCase{kFlavors[0], kCases[3], 2},    // batch-v2, count-above-last
        FailCase{kFlavors[2], kCases[3], 2},    // batch-v1, count-above-last
        FailCase{kFlavors[2], kCases[7], 1}}) {  // batch-v1, truncation
    SCOPED_TRACE(std::string(f.flavor.name) + " / " + f.mutation.name);
    const Bytes mutated =
        Mutate(MakeContainer(f.flavor, plaintext, width), f.mutation);
    const ChunkErrorPolicy fail = ChunkErrorPolicy::kFail;
    const Read reads[] = {
        RunBatch(fail,
                 [&](DecompressOptions options) {
                   return IsobarCompressor::Decompress(mutated, options);
                 }),
        RunBatch(fail,
                 [&](DecompressOptions options) {
                   return IsobarCompressor::DecompressRange(
                       mutated, 0, kTotalElements, options);
                 }),
        RunBatch(fail,
                 [&](DecompressOptions options) {
                   return IsobarCompressor::DecompressColumns(
                       mutated, FullMask(width), options);
                 }),
        RunReader(mutated, fail)};
    for (const Read& read : reads) {
      EXPECT_EQ(read.status.code(), StatusCode::kCorruption);
      ASSERT_EQ(read.report.damaged.size(), 1u);
      EXPECT_EQ(read.report.damaged[0].chunk_index, f.aborting_chunk);
      EXPECT_EQ(read.report.damaged[0].action, ChunkErrorPolicy::kFail);
    }
  }
}

}  // namespace
}  // namespace isobar
