// Component microbenchmarks (google-benchmark): the per-stage throughputs
// behind the end-to-end numbers of Tables II/V/IX — analyzer, transposes,
// CRC, solvers, and the FPC/fpzip baselines.
//
// A thread-sweep mode measures the parallel chunk pipeline: pass
// --threads=1,2,4,8 (the default sweep) to emit one
// BM_IsobarCompressMT/BM_IsobarDecompressMT/BM_IsobarDecompressBigMT row
// per thread count, each labeled "threads=N". The flag is consumed here,
// before google-benchmark parses the remaining arguments.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "compressors/registry.h"
#include "compressors/tans.h"
#include "core/analyzer.h"
#include "core/eupa_selector.h"
#include "core/isobar.h"
#include "core/partitioner.h"
#include "datagen/registry.h"
#include "fpc/fpc_codec.h"
#include "fpzip/fpzip_codec.h"
#include "pfor/pfor_codec.h"
#include "linearize/transpose.h"
#include "simd/dispatch.h"
#include "stats/byte_histogram.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace isobar {
namespace {

Dataset HardDataset(size_t elements) {
  auto spec = FindDatasetSpec("gts_phi_l");
  auto dataset = GenerateDataset(**spec, elements);
  return std::move(*dataset);
}

void BM_AnalyzerThroughput(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  const Analyzer analyzer;
  for (auto _ : state) {
    auto result = analyzer.Analyze(dataset.bytes(), 8);
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
}
BENCHMARK(BM_AnalyzerThroughput);

void BM_GatherColumns(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  const Linearization lin = static_cast<Linearization>(state.range(0));
  Bytes packed;
  for (auto _ : state) {
    Status status = GatherColumns(dataset.bytes(), 8, 0xC0, lin, &packed);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
}
BENCHMARK(BM_GatherColumns)->Arg(0)->Arg(1);

void BM_ScatterColumns(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  Bytes packed;
  (void)GatherColumns(dataset.bytes(), 8, 0xC0, Linearization::kColumn,
                      &packed);
  Bytes dest(dataset.data.size());
  for (auto _ : state) {
    Status status = ScatterColumns(packed, 8, 0xC0, Linearization::kColumn,
                                   MutableByteSpan(dest));
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dest.size()));
}
BENCHMARK(BM_ScatterColumns);

// The decoder's merge of one v2 record (both sections column-major): one
// pass over the destination rows, each plane read from the section that
// holds it.
void BM_MergePartition(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  Bytes compressible, incompressible;
  (void)PartitionDataInto(dataset.bytes(), 8, 0xC0, Linearization::kColumn,
                          &compressible, &incompressible,
                          Linearization::kColumn);
  Bytes dest(dataset.data.size());
  for (auto _ : state) {
    Status status = MergePartitionInto(
        compressible, incompressible, 8, 0xC0, Linearization::kColumn,
        Linearization::kColumn, MutableByteSpan(dest));
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dest.size()));
}
BENCHMARK(BM_MergePartition);

void BM_Crc32c(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(dataset.bytes()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
}
BENCHMARK(BM_Crc32c);

void BM_Crc32cPortable(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::internal::ExtendPortable(
        0, dataset.data.data(), dataset.data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
}
BENCHMARK(BM_Crc32cPortable);

// The paper's BWT solver on its pathological input shape: a maximally
// repetitive block used to cost O(n^2 log n) comparator time in the
// rotation sort; the radix prefix-doubling sort makes it ordinary.
void BM_BwtCompressRepetitive(benchmark::State& state) {
  const Bytes data(1 << 20, 0xAB);
  auto codec = GetCodec(CodecId::kBwt);
  Bytes out;
  for (auto _ : state) {
    Status status = (*codec)->Compress(data, &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_BwtCompressRepetitive);

void BM_SolverCompress(benchmark::State& state) {
  const Dataset dataset = HardDataset(131072);
  auto codec = GetCodec(static_cast<CodecId>(state.range(0)));
  Bytes out;
  for (auto _ : state) {
    Status status = (*codec)->Compress(dataset.bytes(), &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
  state.SetLabel(std::string(CodecIdToString((*codec)->id())));
}
BENCHMARK(BM_SolverCompress)
    ->Arg(static_cast<int>(CodecId::kStored))
    ->Arg(static_cast<int>(CodecId::kZlib))
    ->Arg(static_cast<int>(CodecId::kBzip2))
    ->Arg(static_cast<int>(CodecId::kRle))
    ->Arg(static_cast<int>(CodecId::kLzss))
    ->Arg(static_cast<int>(CodecId::kHuffman))
    ->Arg(static_cast<int>(CodecId::kBwt))
    ->Arg(static_cast<int>(CodecId::kLzans));

void BM_SolverDecompress(benchmark::State& state) {
  const Dataset dataset = HardDataset(131072);
  auto codec = GetCodec(static_cast<CodecId>(state.range(0)));
  Bytes compressed, out;
  (void)(*codec)->Compress(dataset.bytes(), &compressed);
  for (auto _ : state) {
    Status status =
        (*codec)->Decompress(compressed, dataset.data.size(), &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
  state.SetLabel(std::string(CodecIdToString((*codec)->id())));
}
BENCHMARK(BM_SolverDecompress)
    ->Arg(static_cast<int>(CodecId::kStored))
    ->Arg(static_cast<int>(CodecId::kZlib))
    ->Arg(static_cast<int>(CodecId::kBzip2))
    ->Arg(static_cast<int>(CodecId::kRle))
    ->Arg(static_cast<int>(CodecId::kLzss))
    ->Arg(static_cast<int>(CodecId::kHuffman))
    ->Arg(static_cast<int>(CodecId::kBwt))
    ->Arg(static_cast<int>(CodecId::kLzans));

// Compressible solver input: the structured, repetitive byte-planes the
// partitioner actually hands the homegrown solvers (noise columns are
// stored raw and never reach them).
Bytes CompressibleBytes(size_t elements) {
  auto spec = FindDatasetSpec("msg_sppm");
  auto dataset = GenerateDataset(**spec, elements);
  return std::move(dataset->data);
}

void BM_HuffmanEncode(benchmark::State& state) {
  const Bytes data = CompressibleBytes(131072);
  auto codec = GetCodec(CodecId::kHuffman);
  Bytes out;
  for (auto _ : state) {
    Status status = (*codec)->Compress(data, &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_HuffmanEncode);

void BM_HuffmanDecode(benchmark::State& state) {
  const Bytes data = CompressibleBytes(131072);
  auto codec = GetCodec(CodecId::kHuffman);
  Bytes compressed, out;
  (void)(*codec)->Compress(data, &compressed);
  for (auto _ : state) {
    Status status = (*codec)->Decompress(compressed, data.size(), &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_HuffmanDecode);

void BM_LzssEncode(benchmark::State& state) {
  const Bytes data = CompressibleBytes(131072);
  auto codec = GetCodec(CodecId::kLzss);
  Bytes out;
  for (auto _ : state) {
    Status status = (*codec)->Compress(data, &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_LzssEncode);

void BM_LzssDecode(benchmark::State& state) {
  const Bytes data = CompressibleBytes(131072);
  auto codec = GetCodec(CodecId::kLzss);
  Bytes compressed, out;
  (void)(*codec)->Compress(data, &compressed);
  for (auto _ : state) {
    Status status = (*codec)->Decompress(compressed, data.size(), &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_LzssDecode);

void BM_LzAnsCompress(benchmark::State& state) {
  const Bytes data = CompressibleBytes(131072);
  auto codec = GetCodec(CodecId::kLzans);
  Bytes out;
  for (auto _ : state) {
    Status status = (*codec)->Compress(data, &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
  state.SetLabel("ratio=" + std::to_string(static_cast<double>(data.size()) /
                                           static_cast<double>(out.size())));
}
BENCHMARK(BM_LzAnsCompress);

void BM_LzAnsDecompress(benchmark::State& state) {
  const Bytes data = CompressibleBytes(131072);
  auto codec = GetCodec(CodecId::kLzans);
  Bytes compressed, out;
  (void)(*codec)->Compress(data, &compressed);
  for (auto _ : state) {
    Status status = (*codec)->Decompress(compressed, data.size(), &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_LzAnsDecompress);

// The tANS entropy-coder core in isolation (no LZ parse): the 4-way
// interleaved stream over the literal distribution of the compressible
// corpus, same shape the lzans literal section uses.
tans::NormalizedHistogram TansLiteralHistogram(const Bytes& data) {
  std::array<uint64_t, 256> counts{};
  for (uint8_t b : data) ++counts[b];
  size_t alphabet = 0;
  for (size_t s = 0; s < 256; ++s) {
    if (counts[s] != 0) alphabet = s + 1;
  }
  tans::NormalizedHistogram hist;
  Status st = tans::Normalize(counts.data(), alphabet, 11, &hist);
  if (!st.ok()) std::abort();
  return hist;
}

void BM_TansEncode(benchmark::State& state) {
  const Bytes data = CompressibleBytes(131072);
  const tans::NormalizedHistogram hist = TansLiteralHistogram(data);
  tans::EncodeTable table;
  if (!table.Init(hist).ok()) std::abort();
  Bytes stream;
  for (auto _ : state) {
    Status status =
        tans::EncodeInterleaved(data.data(), data.size(), table, 4, &stream);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_TansEncode);

void BM_TansDecode(benchmark::State& state) {
  const Bytes data = CompressibleBytes(131072);
  const tans::NormalizedHistogram hist = TansLiteralHistogram(data);
  tans::EncodeTable enc;
  tans::DecodeTable dec;
  if (!enc.Init(hist).ok() || !dec.Init(hist).ok()) std::abort();
  Bytes stream;
  if (!tans::EncodeInterleaved(data.data(), data.size(), enc, 4, &stream)
           .ok()) {
    std::abort();
  }
  Bytes out(data.size());
  for (auto _ : state) {
    Status status =
        tans::DecodeInterleaved(stream, dec, 4, data.size(), out.data());
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_TansDecode);

// Literal-table normalization: a 256-symbol histogram of 30 K literals
// (the first 30,000 bytes of gts_phi_l, whose noise planes use every byte
// value), at lzans's literal table log of 11.
void BM_TansNormalize(benchmark::State& state) {
  const Dataset dataset = HardDataset(30000 / 8 + 1);
  std::array<uint64_t, 256> counts{};
  for (size_t i = 0; i < 30000; ++i) ++counts[dataset.data[i]];
  tans::NormalizedHistogram hist;
  for (auto _ : state) {
    Status status = tans::Normalize(counts.data(), counts.size(), 11, &hist);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(hist);
  }
}
BENCHMARK(BM_TansNormalize);

// EUPA selection cost on a mixed dataset (6 noise + 2 structured byte
// columns) under the ratio preference, which trials every candidate.
void BM_EupaSelect(benchmark::State& state) {
  Bytes data;
  data.reserve(375000 * 8);
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < 375000; ++i) {
    for (int b = 0; b < 6; ++b) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      data.push_back(static_cast<uint8_t>(rng));
    }
    data.push_back(static_cast<uint8_t>((i / 64) % 16));
    data.push_back(0x3F);
  }
  EupaOptions options;
  options.preference = Preference::kRatio;
  const EupaSelector selector(options);
  for (auto _ : state) {
    auto decision = selector.Select(data, 8, 0xC0);
    benchmark::DoNotOptimize(decision);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_EupaSelect);

void BM_PforCompress(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  const PforCodec codec(static_cast<PforMode>(state.range(0)));
  Bytes out;
  for (auto _ : state) {
    Status status = codec.Compress(dataset.bytes(), &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
  state.SetLabel(state.range(0) == 0 ? "for" : "delta");
}
BENCHMARK(BM_PforCompress)->Arg(0)->Arg(1);

void BM_IsobarCompress(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  CompressOptions options;
  options.eupa.preference = Preference::kSpeed;
  const IsobarCompressor compressor(options);
  for (auto _ : state) {
    auto out = compressor.Compress(dataset.bytes(), 8);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
}
BENCHMARK(BM_IsobarCompress);

// One service-size request: a 32 KiB Compress on one thread, EUPA
// selection included. The input is below sample_elements, so the training
// sample is the whole input.
void BM_IsobarCompressSmall(benchmark::State& state, const char* profile) {
  auto spec = FindDatasetSpec(profile);
  auto dataset = GenerateDataset(**spec, 32 << 10);
  const size_t width = dataset->width();
  const ByteSpan data = dataset->bytes().first(32 << 10);
  CompressOptions options;
  options.num_threads = 1;
  const IsobarCompressor compressor(options);
  for (auto _ : state) {
    auto out = compressor.Compress(data, width);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK_CAPTURE(BM_IsobarCompressSmall, xgc_igid, "xgc_igid");
BENCHMARK_CAPTURE(BM_IsobarCompressSmall, gts_phi_l, "gts_phi_l");

void BM_IsobarDecompress(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  CompressOptions options;
  options.eupa.preference = Preference::kSpeed;
  const IsobarCompressor compressor(options);
  auto compressed = compressor.Compress(dataset.bytes(), 8);
  for (auto _ : state) {
    auto out = IsobarCompressor::Decompress(*compressed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
}
BENCHMARK(BM_IsobarDecompress);

void BM_FpcCompress(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  const FpcCodec codec(static_cast<int>(state.range(0)));
  Bytes out;
  for (auto _ : state) {
    Status status = codec.Compress(dataset.bytes(), &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
}
BENCHMARK(BM_FpcCompress)->Arg(16)->Arg(20);

void BM_FpzipCompress(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  const FpzipCodec codec(8);
  Bytes out;
  for (auto _ : state) {
    Status status = codec.Compress(dataset.bytes(), &out);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
}
BENCHMARK(BM_FpzipCompress);

void BM_HistogramUpdate(benchmark::State& state) {
  const Dataset dataset = HardDataset(375000);
  ColumnHistogramSet set(8);
  for (auto _ : state) {
    set.Reset();
    Status status = set.Update(dataset.bytes());
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
}
BENCHMARK(BM_HistogramUpdate);

void BM_MtfEncode(benchmark::State& state) {
  // BWT-shaped input: long runs over a small alphabet, where the rank-0
  // fast path dominates, mixed with noise that exercises the rank search.
  Bytes data(1 << 20);
  Xoshiro256 rng(0x317F);
  size_t i = 0;
  while (i < data.size()) {
    const uint8_t value = static_cast<uint8_t>(rng.Next() % 16);
    const size_t run = std::min<size_t>(1 + rng.Next() % 64, data.size() - i);
    std::fill_n(data.begin() + i, run, value);
    i += run;
  }
  Bytes work(data.size());
  std::array<uint8_t, 256> order;
  for (auto _ : state) {
    work = data;
    std::iota(order.begin(), order.end(), 0);
    simd::Kernels().mtf_encode(work.data(), work.size(), order.data());
    benchmark::DoNotOptimize(work.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_MtfEncode);

void BM_RunScan(benchmark::State& state) {
  // RLE-shaped input scanned run by run with the codec's 130-byte cap.
  Bytes data(1 << 20);
  Xoshiro256 rng(0x52AB);
  size_t i = 0;
  while (i < data.size()) {
    const uint8_t value = static_cast<uint8_t>(rng.Next());
    const size_t run = std::min<size_t>(1 + rng.Next() % 200, data.size() - i);
    std::fill_n(data.begin() + i, run, value);
    i += run;
  }
  const auto& kernels = simd::Kernels();
  for (auto _ : state) {
    size_t pos = 0;
    uint64_t runs = 0;
    while (pos < data.size()) {
      pos += kernels.run_scan(data.data() + pos,
                              std::min<size_t>(130, data.size() - pos));
      ++runs;
    }
    benchmark::DoNotOptimize(runs);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RunScan);

// --- Thread sweep: end-to-end pipeline throughput vs worker count, on a
// dataset wide enough (4 chunks) that the chunk fan-out keeps several
// workers busy at once.

constexpr size_t kSweepElements = 1'500'000;
// One 48 MB checkpoint variable: an output past the reader's huge-page
// threshold.
constexpr size_t kBigSweepElements = 6'000'000;

void BM_IsobarCompressMT(benchmark::State& state, uint32_t threads) {
  const Dataset dataset = HardDataset(kSweepElements);
  CompressOptions options;
  options.eupa.preference = Preference::kSpeed;
  options.num_threads = threads;
  const IsobarCompressor compressor(options);
  for (auto _ : state) {
    auto out = compressor.Compress(dataset.bytes(), 8);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
  state.SetLabel("threads=" + std::to_string(threads));
}

void BM_IsobarDecompressMT(benchmark::State& state, uint32_t threads,
                           size_t elements) {
  const Dataset dataset = HardDataset(elements);
  CompressOptions options;
  options.eupa.preference = Preference::kSpeed;
  const IsobarCompressor compressor(options);
  auto compressed = compressor.Compress(dataset.bytes(), 8);
  DecompressOptions decompress_options;
  decompress_options.num_threads = threads;
  for (auto _ : state) {
    auto out = IsobarCompressor::Decompress(*compressed, decompress_options);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.data.size()));
  state.SetLabel("threads=" + std::to_string(threads));
}

// --- Per-tier kernel benchmarks: the same kernel table entry measured
// once per dispatch tier the host supports, so a run records the scalar
// baseline next to the vector speedup (rows: BM_<Kernel>/tier:<name>).

// Two workload shapes: the mostly-noise phi dataset (few histogram-counter
// collisions, cost dominated by raw increment throughput) and the highly
// repetitive sppm dataset, where near-constant byte-columns hammer one
// counter and the scalar loop serializes on store-to-load forwarding —
// the case the interleaved lanes exist for.
void BM_HistogramUpdateKernel(benchmark::State& state, simd::Tier tier,
                              const char* profile) {
  auto spec = FindDatasetSpec(profile);
  const Dataset dataset = std::move(*GenerateDataset(**spec, 375000));
  const simd::KernelTable& kernels = simd::KernelsForTier(tier);
  const size_t n = dataset.data.size() / 8;
  std::vector<ByteHistogram> hists(8);
  for (auto _ : state) {
    for (auto& h : hists) h.fill(0);
    kernels.histogram_update(dataset.data.data(), n, 8,
                             hists.data()->data());
    benchmark::DoNotOptimize(hists.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * 8));
}

void BM_TransposeKernel(benchmark::State& state, simd::Tier tier,
                        size_t width, bool scatter) {
  const Dataset dataset = HardDataset(375000);
  const simd::KernelTable& kernels = simd::KernelsForTier(tier);
  const size_t n = dataset.data.size() / width;
  Bytes out(n * width);
  // A scatter reads the dataset as `width` consecutive n-byte planes.
  const uint8_t* planes[8];
  for (size_t c = 0; c < width; ++c) planes[c] = dataset.data.data() + c * n;
  const auto gather =
      width == 8 ? kernels.gather_col_w8 : kernels.gather_col_w4;
  const auto scatter_planes =
      width == 8 ? kernels.scatter_col_w8 : kernels.scatter_col_w4;
  for (auto _ : state) {
    if (scatter) {
      scatter_planes(planes, n, out.data());
    } else {
      gather(dataset.data.data(), n, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * width));
}

}  // namespace

/// Registers the per-kernel benchmarks once per dispatch tier this machine
/// supports. Rows appear as e.g. BM_HistogramUpdateKernel/tier:avx2.
void RegisterSimdTierBenches() {
  for (simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kSse42, simd::Tier::kAvx2}) {
    if (!simd::TierSupported(tier)) continue;
    const std::string suffix =
        "/tier:" + std::string(simd::TierToString(tier));
    benchmark::RegisterBenchmark(
        ("BM_HistogramUpdateKernel" + suffix).c_str(),
        [tier](benchmark::State& state) {
          BM_HistogramUpdateKernel(state, tier, "gts_phi_l");
        });
    benchmark::RegisterBenchmark(
        ("BM_HistogramUpdateKernelHtc" + suffix).c_str(),
        [tier](benchmark::State& state) {
          BM_HistogramUpdateKernel(state, tier, "msg_sppm");
        });
    struct Shape {
      const char* name;
      size_t width;
      bool scatter;
    };
    for (const Shape& shape :
         {Shape{"BM_GatherW8ColumnKernel", 8, false},
          Shape{"BM_ScatterW8ColumnKernel", 8, true},
          Shape{"BM_GatherW4ColumnKernel", 4, false},
          Shape{"BM_ScatterW4ColumnKernel", 4, true}}) {
      benchmark::RegisterBenchmark(
          (shape.name + suffix).c_str(),
          [tier, shape](benchmark::State& state) {
            BM_TransposeKernel(state, tier, shape.width, shape.scatter);
          });
    }
  }
}

/// Registers one compress and two decompress benchmarks (1.5 M and 6 M
/// elements) per swept thread count; rows appear as
/// BM_IsobarCompressMT/threads:N.
void RegisterThreadSweep(const std::vector<uint32_t>& sweep) {
  for (uint32_t threads : sweep) {
    benchmark::RegisterBenchmark(
        ("BM_IsobarCompressMT/threads:" + std::to_string(threads)).c_str(),
        [threads](benchmark::State& state) {
          BM_IsobarCompressMT(state, threads);
        });
    benchmark::RegisterBenchmark(
        ("BM_IsobarDecompressMT/threads:" + std::to_string(threads)).c_str(),
        [threads](benchmark::State& state) {
          BM_IsobarDecompressMT(state, threads, kSweepElements);
        });
    benchmark::RegisterBenchmark(
        ("BM_IsobarDecompressBigMT/threads:" + std::to_string(threads))
            .c_str(),
        [threads](benchmark::State& state) {
          BM_IsobarDecompressMT(state, threads, kBigSweepElements);
        });
  }
}

}  // namespace isobar

int main(int argc, char** argv) {
  // Consume --threads=<comma list> before google-benchmark rejects it as
  // an unknown flag.
  std::vector<uint32_t> sweep = {1, 2, 4, 8};
  int kept = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      sweep.clear();
      const char* cursor = argv[i] + 10;
      while (*cursor != '\0') {
        char* end = nullptr;
        const unsigned long value = std::strtoul(cursor, &end, 10);
        if (end == cursor || value == 0) {
          std::fprintf(stderr,
                       "--threads expects a comma-separated list of "
                       "positive thread counts, e.g. --threads=1,2,4,8\n");
          return 1;
        }
        sweep.push_back(static_cast<uint32_t>(value));
        cursor = (*end == ',') ? end + 1 : end;
      }
      if (sweep.empty()) {
        std::fprintf(stderr, "--threads list must not be empty\n");
        return 1;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  isobar::RegisterSimdTierBenches();
  isobar::RegisterThreadSweep(sweep);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
