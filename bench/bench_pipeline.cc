// End-to-end pipeline scenario benchmarks (google-benchmark): whole
// container compress + decompress runs over the synthetic datagen
// workload, swept across worker-thread counts and solver configurations
// (EUPA auto-selection under both preferences, plus each solver forced).
//
// Rows appear as BM_E2eCompress/solver:auto-speed/threads:4 and the
// matching BM_E2eDecompress rows. scripts/update_bench_baseline.sh
// snapshots them into BENCH_e2e.json; scripts/ci.sh compares that file
// warn-only, since end-to-end numbers swing with machine load far more
// than the kernel rows of BENCH_baseline.json.
//
// Harness flags (consumed before google-benchmark parses argv):
//   --threads=N              run only the N-worker scenarios
//   --trace-timeline=<path>  record the cross-thread event timeline for
//                            the whole run and write it as Chrome
//                            trace-event JSON at exit (the rings keep the
//                            most recent window; size with
//                            --timeline-capacity)
//   --timeline-capacity=N    events per thread ring (default 8192)
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/isobar.h"
#include "datagen/registry.h"
#include "telemetry/metrics.h"
#include "telemetry/timeline.h"
#include "telemetry/trace_export.h"

namespace isobar {
namespace {

// ~4 MB of the mostly-noise phi profile: small enough that the bzip2
// rows stay interactive, and chunked finely enough (below) that the
// multi-thread rows still fan chunks out across workers.
constexpr size_t kElements = 500'000;
constexpr uint64_t kChunkElements = 125'000;

const Dataset& Workload() {
  static const Dataset dataset = [] {
    auto spec = FindDatasetSpec("gts_phi_l");
    return std::move(*GenerateDataset(**spec, kElements));
  }();
  return dataset;
}

struct Solver {
  const char* name;
  Preference preference;
  std::optional<CodecId> forced;
};

constexpr Solver kSolvers[] = {
    {"auto-speed", Preference::kSpeed, std::nullopt},
    {"auto-ratio", Preference::kRatio, std::nullopt},
    {"zlib", Preference::kSpeed, CodecId::kZlib},
    {"bzip2", Preference::kSpeed, CodecId::kBzip2},
    {"lzss", Preference::kSpeed, CodecId::kLzss},
    {"huffman", Preference::kSpeed, CodecId::kHuffman},
    {"lzans", Preference::kSpeed, CodecId::kLzans},
};

CompressOptions MakeOptions(const Solver& solver, uint32_t threads) {
  CompressOptions options;
  options.eupa.preference = solver.preference;
  options.eupa.forced_codec = solver.forced;
  options.chunk_elements = kChunkElements;
  options.num_threads = threads;
  return options;
}

void BM_E2eCompress(benchmark::State& state, const Solver& solver,
                    uint32_t threads) {
  const Dataset& dataset = Workload();
  const IsobarCompressor compressor(MakeOptions(solver, threads));
  for (auto _ : state) {
    auto container = compressor.Compress(dataset.bytes(), dataset.width());
    if (!container.ok()) {
      state.SkipWithError(std::string(container.status().message()).c_str());
      return;
    }
    benchmark::DoNotOptimize(container->data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
}

void BM_E2eDecompress(benchmark::State& state, const Solver& solver,
                      uint32_t threads) {
  const Dataset& dataset = Workload();
  const IsobarCompressor compressor(MakeOptions(solver, 0));
  auto container = compressor.Compress(dataset.bytes(), dataset.width());
  if (!container.ok()) {
    state.SkipWithError(std::string(container.status().message()).c_str());
    return;
  }
  DecompressOptions options;
  options.num_threads = threads;
  for (auto _ : state) {
    auto out = IsobarCompressor::Decompress(*container, options);
    if (!out.ok()) {
      state.SkipWithError(std::string(out.status().message()).c_str());
      return;
    }
    benchmark::DoNotOptimize(out->data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
}

void RegisterScenarios(uint32_t only_threads) {
  for (const Solver& solver : kSolvers) {
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      if (only_threads != 0 && threads != only_threads) continue;
      const std::string suffix = "/solver:" + std::string(solver.name) +
                                 "/threads:" + std::to_string(threads);
      // Wall-clock timing: the worker pool runs outside the bench thread,
      // so CPU-time rows would overstate multi-threaded throughput.
      benchmark::RegisterBenchmark(
          ("BM_E2eCompress" + suffix).c_str(),
          [&solver, threads](benchmark::State& state) {
            BM_E2eCompress(state, solver, threads);
          })
          ->UseRealTime();
      benchmark::RegisterBenchmark(
          ("BM_E2eDecompress" + suffix).c_str(),
          [&solver, threads](benchmark::State& state) {
            BM_E2eDecompress(state, solver, threads);
          })
          ->UseRealTime();
    }
  }
}

}  // namespace
}  // namespace isobar

int main(int argc, char** argv) {
  // Strip the harness flags before benchmark::Initialize consumes argv.
  std::string timeline_path;
  uint32_t only_threads = 0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-timeline=", 17) == 0) {
      timeline_path = arg + 17;
      if (timeline_path.empty()) {
        std::fprintf(stderr, "--trace-timeline needs a path\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--timeline-capacity=", 20) == 0) {
      isobar::telemetry::Timeline::Global().set_capacity_per_thread(
          static_cast<size_t>(std::strtoull(arg + 20, nullptr, 10)));
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      only_threads =
          static_cast<uint32_t>(std::strtoul(arg + 10, nullptr, 10));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!timeline_path.empty()) {
    isobar::telemetry::SetEnabled(true);
    isobar::telemetry::Timeline::Global().SetEnabled(true);
  }

  isobar::RegisterScenarios(only_threads);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!timeline_path.empty()) {
    const std::string json = isobar::telemetry::TimelineToJson(
        isobar::telemetry::Timeline::Global().Snapshot());
    std::ofstream file(timeline_path, std::ios::binary | std::ios::trunc);
    file << json;
    if (!file.good()) {
      std::fprintf(stderr, "cannot write timeline to '%s'\n",
                   timeline_path.c_str());
      return 1;
    }
  }
  return 0;
}
