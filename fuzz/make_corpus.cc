// Seed-corpus generator for decompress_fuzzer: writes a handful of small,
// structurally diverse containers (batch, streamed, and deliberately
// damaged variants) into the directory given as argv[1]. Seeding with
// real containers lets the fuzzer start past the magic/header checks
// instead of rediscovering the format one byte at a time.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "compressors/registry.h"
#include "core/isobar.h"
#include "core/stream.h"
#include "datagen/registry.h"
#include "io/fault_injection.h"
#include "io/sink.h"
#include "util/bytes.h"

namespace isobar {
namespace {

bool WriteFile(const std::filesystem::path& dir, const std::string& name,
               const Bytes& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::cerr << "cannot write " << (dir / name) << "\n";
    return false;
  }
  return true;
}

Result<Bytes> BatchContainer(uint16_t container_version) {
  ISOBAR_ASSIGN_OR_RETURN(const DatasetSpec* spec,
                          FindDatasetSpec("s3d_vmag"));
  ISOBAR_ASSIGN_OR_RETURN(auto dataset, GenerateDataset(*spec, 3000));
  CompressOptions options;
  options.chunk_elements = 1000;
  options.eupa.sample_elements = 512;
  options.container_version = container_version;
  const IsobarCompressor compressor(options);
  return compressor.Compress(dataset.bytes(), dataset.width());
}

// Container offset of record `index`'s chunk header.
size_t RecordOffset(const Bytes& container, size_t index) {
  size_t offset = container::kHeaderSize;
  for (size_t i = 0; i < index; ++i) {
    auto chunk = container::ParseChunkHeader(container, &offset);
    if (!chunk.ok()) return offset;
    offset += chunk->compressed_size + chunk->raw_size;
  }
  return offset;
}

Result<Bytes> StreamedContainer() {
  ISOBAR_ASSIGN_OR_RETURN(const DatasetSpec* spec,
                          FindDatasetSpec("msg_sweep3d"));
  ISOBAR_ASSIGN_OR_RETURN(auto dataset, GenerateDataset(*spec, 2500));
  CompressOptions options;
  options.chunk_elements = 1000;
  options.eupa.sample_elements = 512;
  options.num_threads = 1;
  Bytes container;
  MemorySink sink(&container);
  IsobarStreamWriter writer(options, dataset.width(), &sink);
  ISOBAR_RETURN_NOT_OK(writer.Append(dataset.bytes()));
  ISOBAR_RETURN_NOT_OK(writer.Finish());
  return container;
}

// Codec-stream seeds for codec_roundtrip_fuzzer: real Huffman/LZSS/RLE/
// LZ+ANS streams prefixed with the fuzzer's selector byte (codec in the
// low two bits, decode mode), so exploration starts from well-formed
// bitstreams instead of rediscovering the framing.
Status WriteCodecSeeds(const std::filesystem::path& dir) {
  ISOBAR_ASSIGN_OR_RETURN(const DatasetSpec* spec,
                          FindDatasetSpec("msg_sppm"));
  ISOBAR_ASSIGN_OR_RETURN(auto dataset, GenerateDataset(*spec, 2048));
  struct CodecSeed {
    CodecId id;
    uint8_t selector;
    const char* name;
  };
  for (const CodecSeed& seed :
       {CodecSeed{CodecId::kHuffman, 0, "huffman-stream.bin"},
        CodecSeed{CodecId::kLzss, 1, "lzss-stream.bin"},
        CodecSeed{CodecId::kRle, 2, "rle-stream.bin"},
        CodecSeed{CodecId::kLzans, 3, "lzans-stream.bin"}}) {
    ISOBAR_ASSIGN_OR_RETURN(const Codec* codec, GetCodec(seed.id));
    Bytes stream(1, seed.selector);
    Bytes compressed;
    ISOBAR_RETURN_NOT_OK(codec->Compress(dataset.bytes(), &compressed));
    stream.insert(stream.end(), compressed.begin(), compressed.end());
    if (!WriteFile(dir, seed.name, stream)) {
      return Status::IOError("cannot write codec seed");
    }
  }

  // Damaged lzans decode seeds: a corrupt tANS table header (counts no
  // longer sum to the table size), a truncated ANS bit-stream, and an
  // impossible match offset (block type smashed onto garbage). All must
  // fail closed in the fuzzer's decode mode; none should ever overread.
  ISOBAR_ASSIGN_OR_RETURN(const Codec* lzans, GetCodec(CodecId::kLzans));
  Bytes lz_stream;
  ISOBAR_RETURN_NOT_OK(lzans->Compress(dataset.bytes(), &lz_stream));

  Bytes table_smash(1, 3);  // selector 3, decode mode
  table_smash.insert(table_smash.end(), lz_stream.begin(), lz_stream.end());
  // Byte 0 is the block type, 1-4 raw_size; histogram headers follow the
  // literal section, so smear a window in the middle of the payload.
  SmashBytes(&table_smash, 1 + lz_stream.size() / 2, 6, 0xFF);
  if (!WriteFile(dir, "lzans-table-smash.bin", table_smash)) {
    return Status::IOError("cannot write codec seed");
  }

  Bytes lz_truncated(1, 3);
  lz_truncated.insert(lz_truncated.end(), lz_stream.begin(),
                      lz_stream.begin() + lz_stream.size() / 2);
  if (!WriteFile(dir, "lzans-truncated.bin", lz_truncated)) {
    return Status::IOError("cannot write codec seed");
  }

  Bytes lz_offsets(1, 3);
  lz_offsets.insert(lz_offsets.end(), lz_stream.begin(), lz_stream.end());
  // Flipping high bits late in the stream turns small offsets into
  // references before the start of output — the decoder must reject them.
  for (size_t i = lz_offsets.size() * 3 / 4; i < lz_offsets.size(); i += 7) {
    lz_offsets[i] ^= 0xE0;
  }
  if (!WriteFile(dir, "lzans-bad-offsets.bin", lz_offsets)) {
    return Status::IOError("cannot write codec seed");
  }
  return Status::OK();
}

int Run(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);

  auto batch = BatchContainer(container::kVersion);
  auto batch_v1 = BatchContainer(container::kVersionV1);
  auto streamed = StreamedContainer();
  if (!batch.ok() || !batch_v1.ok() || !streamed.ok()) {
    std::cerr << "corpus generation failed: "
              << (!batch.ok()
                      ? batch.status()
                      : (!batch_v1.ok() ? batch_v1.status() : streamed.status()))
                     .ToString()
              << "\n";
    return 1;
  }

  bool ok = WriteFile(dir, "batch.isbr", *batch) &&
            WriteFile(dir, "batch-v1.isbr", *batch_v1) &&
            WriteFile(dir, "streamed.isbr", *streamed);

  // Damaged variants exercising each salvage path: a flipped payload bit
  // (checksum stage), a smashed chunk header (header stage), and a
  // truncated tail (framing destroyed).
  Bytes flipped = *batch;
  FlipBits(&flipped, flipped.size() / 2, 0x20);
  ok = ok && WriteFile(dir, "payload-bitflip.isbr", flipped);

  Bytes smashed = *batch;
  SmashBytes(&smashed, 40, 8, 0xFF);  // First chunk header's element count.
  ok = ok && WriteFile(dir, "header-smash.isbr", smashed);

  Bytes truncated = *batch;
  TruncateBytes(&truncated, truncated.size() * 3 / 4);
  ok = ok && WriteFile(dir, "truncated.isbr", truncated);

  Bytes tiny;
  ok = ok && WriteFile(dir, "empty.isbr", tiny);

  // v2 index-footer damage, the two CRC domains separately: a smashed
  // trailer (footer rejected wholesale) and a smashed entry table (trailer
  // parses, entry CRC mismatch) — both must fall back to the sequential
  // walk under salvage and fail cleanly under kFail.
  Bytes trailer_smash = *batch;
  SmashBytes(&trailer_smash, trailer_smash.size() - container::kFooterTrailerSize,
             8, 0xA5);
  ok = ok && WriteFile(dir, "footer-trailer-smash.isbr", trailer_smash);

  Bytes entry_smash = *batch;
  SmashBytes(&entry_smash,
             entry_smash.size() - container::FooterBytes(3) +
                 container::kIndexEntrySize,
             8, 0x5A);
  ok = ok && WriteFile(dir, "footer-entry-smash.isbr", entry_smash);

  // Record-count damage that must neither resize the output nor shift the
  // records after it: the short last record of the streamed container
  // claiming more than a chunk, and a middle record one element short.
  Bytes count_above = *streamed;
  SmashBytes(&count_above, RecordOffset(count_above, 2), 8, 0xEE);
  ok = ok && WriteFile(dir, "count-above-last.isbr", count_above);

  Bytes count_below = *batch;
  uint8_t* middle_count = count_below.data() + RecordOffset(count_below, 1);
  StoreLE64(middle_count, LoadLE64(middle_count) - 1);
  ok = ok && WriteFile(dir, "count-minus-one-middle.isbr", count_below);

  Status codec_seeds = WriteCodecSeeds(dir);
  if (!codec_seeds.ok()) {
    std::cerr << "codec seed generation failed: " << codec_seeds.ToString()
              << "\n";
    return 1;
  }

  if (ok) std::cout << "wrote 18 corpus seeds to " << dir << "\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace isobar

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: " << argv[0] << " <output-dir>\n";
    return 2;
  }
  return isobar::Run(argv[1]);
}
