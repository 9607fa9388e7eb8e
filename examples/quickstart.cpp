// Quickstart: compress an array of doubles with the ISOBAR-compress
// preconditioner, decompress it, and inspect what the pipeline decided.
//
//   ./quickstart
//
// This is the 60-second tour of the public API: GenerateDataset (or your
// own buffer), IsobarCompressor::Compress/Decompress, CompressionStats.
#include <cstdio>

#include "core/isobar.h"
#include "datagen/registry.h"
#include "linearize/transpose.h"

int main() {
  using namespace isobar;

  // 1. Get some hard-to-compress doubles. Any contiguous buffer works;
  //    here we synthesize 1M elements of the GTS potential-fluctuation
  //    profile (75% of each element's bytes are noise).
  auto spec = FindDatasetSpec("gts_phi_l");
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto dataset = GenerateDataset(**spec, 1'000'000);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("input: %s, %llu doubles (%zu bytes)\n",
              dataset->name.c_str(),
              static_cast<unsigned long long>(dataset->element_count()),
              dataset->data.size());

  // 2. Compress. Options default to the paper's configuration: tau = 1.42,
  //    375k-element chunks, EUPA choosing between zlib and bzip2 with the
  //    speed preference.
  CompressOptions options;
  options.eupa.preference = Preference::kSpeed;
  const IsobarCompressor compressor(options);

  CompressionStats stats;
  auto compressed = compressor.Compress(dataset->bytes(), /*width=*/8, &stats);
  if (!compressed.ok()) {
    std::fprintf(stderr, "%s\n", compressed.status().ToString().c_str());
    return 1;
  }

  std::printf("compressed: %zu bytes (ratio %.3f) at %.1f MB/s\n",
              compressed->size(), stats.ratio(), stats.compression_mbps());
  std::printf("pipeline: improvable=%s  htc_bytes=%.1f%%  solver=%s  "
              "linearization=%s\n",
              stats.improvable ? "yes" : "no",
              stats.mean_htc_fraction * 100.0,
              std::string(CodecIdToString(stats.decision.codec)).c_str(),
              std::string(
                  LinearizationToString(stats.decision.linearization))
                  .c_str());
  std::printf("time split: eupa %.1f%%  analysis %.1f%%  partition %.1f%%  "
              "solver %.1f%%\n",
              100.0 * stats.eupa_seconds / stats.total_seconds,
              100.0 * stats.analysis_seconds / stats.total_seconds,
              100.0 * stats.partition_seconds / stats.total_seconds,
              100.0 * stats.codec_seconds / stats.total_seconds);

  // 3. Decompress. The container is self-describing — no options or side
  //    information needed — and every chunk is CRC-verified.
  DecompressionStats dstats;
  auto restored =
      IsobarCompressor::Decompress(*compressed, DecompressOptions{}, &dstats);
  if (!restored.ok()) {
    std::fprintf(stderr, "%s\n", restored.status().ToString().c_str());
    return 1;
  }
  std::printf("decompressed: %zu bytes at %.1f MB/s — %s\n",
              restored->size(), dstats.decompression_mbps(),
              *restored == dataset->data ? "bit-exact" : "MISMATCH!");
  return *restored == dataset->data ? 0 : 1;
}
