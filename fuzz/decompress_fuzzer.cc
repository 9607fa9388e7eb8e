// Fuzz entry point for the container decode path: every input is fed to
// IsobarCompressor::Decompress, DecompressRange, DecompressColumns, and
// IsobarStreamReader (sequential and SeekToChunk-driven) under all three
// ChunkErrorPolicy values — so v2 index-footer parsing and its sequential
// fallback are both explored. The invariants are bounded, crash-free
// behaviour for arbitrary bytes — any failure must surface as a clean
// Status — and reader agreement, which traps when broken: (a) where the
// element total is known, a whole-container DecompressRange under a
// salvage policy equals Decompress under kZeroFill; (b) unless the tail
// framing is lost, the concatenated NextChunk output equals Decompress
// under the same policy.
//
// With clang the target links against libFuzzer (-fsanitize=fuzzer, see
// fuzz/CMakeLists.txt). Other toolchains build the same source as a
// standalone replay driver: each argument is a corpus file or directory,
// and every file runs through the fuzz body once — the CI smoke mode for
// containers without clang.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/container.h"
#include "core/isobar.h"
#include "core/read_plan.h"
#include "core/stream.h"
#include "util/bytes.h"

namespace {

// Large inputs only slow exploration down, and a small container can
// legally declare huge chunks (or a huge element total, which salvage
// paths zero-fill to) — cap what one iteration may allocate.
constexpr size_t kMaxInputBytes = 1 << 16;
constexpr uint64_t kMaxDeclaredChunkBytes = 1 << 20;
constexpr uint64_t kMaxOutputBytes = 1 << 22;

using isobar::Bytes;
using isobar::ChunkErrorPolicy;
using isobar::IsobarCompressor;

isobar::DecompressOptions Options(ChunkErrorPolicy policy,
                                  isobar::SalvageReport* report) {
  isobar::DecompressOptions options;
  options.num_threads = 1;
  options.on_chunk_error = policy;
  options.salvage_report = report;
  return options;
}

void DecodeEveryPolicy(isobar::ByteSpan container, uint64_t total) {
  const auto zero_filled = IsobarCompressor::Decompress(
      container, Options(ChunkErrorPolicy::kZeroFill, nullptr));
  for (ChunkErrorPolicy policy : {ChunkErrorPolicy::kFail,
                                  ChunkErrorPolicy::kSkip,
                                  ChunkErrorPolicy::kZeroFill}) {
    isobar::SalvageReport report;
    const isobar::DecompressOptions options = Options(policy, &report);
    const auto batch = IsobarCompressor::Decompress(container, options);
    const bool tail_lost = report.truncated_tail;

    // Range and column reads: the index-footer planner when the input
    // carries a valid v2 footer, the sequential-walk fallback otherwise.
    (void)IsobarCompressor::DecompressRange(container, 0, 1, options);
    (void)IsobarCompressor::DecompressRange(container, 500, 1700, options);
    (void)IsobarCompressor::DecompressRange(container, 7, 7, options);
    (void)IsobarCompressor::DecompressColumns(container, 0x5, options);
    if (policy != ChunkErrorPolicy::kFail &&
        total != isobar::container::kUnknownCount) {
      const auto range =
          IsobarCompressor::DecompressRange(container, 0, total, options);
      if (range.ok() != zero_filled.ok() ||
          (range.ok() && *range != *zero_filled)) {
        __builtin_trap();  // (a)
      }
    }

    isobar::IsobarStreamReader reader(container, options);
    isobar::Status status = reader.Init();
    Bytes streamed;
    Bytes chunk;
    while (status.ok()) {
      auto more = reader.NextChunk(&chunk);
      status = more.status();
      if (!more.ok() || !*more) break;
      streamed.insert(streamed.end(), chunk.begin(), chunk.end());
    }
    if (!tail_lost &&
        (batch.ok() != status.ok() || (batch.ok() && *batch != streamed))) {
      __builtin_trap();  // (b)
    }

    // Seek-driven access: forward past a record, decode, rewind to the
    // start — O(1) through the index, SkipChunk-driven without one.
    isobar::IsobarStreamReader seeker(container, options);
    if (seeker.Init().ok()) {
      if (seeker.SeekToChunk(1).ok()) (void)seeker.NextChunk(&chunk);
      if (seeker.SeekToChunk(0).ok()) (void)seeker.NextChunk(&chunk);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) return 0;
  const isobar::ByteSpan container(data, size);
  // Skip inputs whose record ranges, as the read plan resolves them,
  // would turn one iteration into an allocation benchmark: every reader
  // sizes its output from those ranges (or the declared total).
  uint64_t total = isobar::container::kUnknownCount;
  auto plan = isobar::ReadPlan::Open(
      container, Options(ChunkErrorPolicy::kZeroFill, nullptr));
  if (plan.ok()) {
    const isobar::container::Header& header = plan->header();
    const std::vector<isobar::PlannedRecord> records = plan->LocateAll();
    uint64_t elements = records.empty() ? 0 : records.back().element_end();
    if (plan->counted()) {
      total = header.element_count;
      elements = std::max(elements, total);
    }
    uint64_t chunk_bytes = 0, output_bytes = 0;
    if (!isobar::container::CheckedMul64(header.chunk_elements, header.width,
                                         &chunk_bytes) ||
        chunk_bytes > kMaxDeclaredChunkBytes ||
        !isobar::container::CheckedMul64(elements, header.width,
                                         &output_bytes) ||
        output_bytes > kMaxOutputBytes) {
      return 0;
    }
  }
  DecodeEveryPolicy(container, total);
  return 0;
}

#ifndef ISOBAR_HAVE_LIBFUZZER

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace {

int RunOne(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 1;
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: " << argv[0] << " <corpus-file-or-dir>...\n";
    return 2;
  }
  int failures = 0;
  size_t cases = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path arg(argv[i]);
    if (std::filesystem::is_directory(arg)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(arg)) {
        if (!entry.is_regular_file()) continue;
        failures += RunOne(entry.path());
        ++cases;
      }
    } else {
      failures += RunOne(arg);
      ++cases;
    }
  }
  std::cout << "replayed " << cases << " corpus case(s)\n";
  return failures == 0 ? 0 : 1;
}

#endif  // ISOBAR_HAVE_LIBFUZZER
