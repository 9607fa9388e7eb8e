#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "compressors/registry.h"
#include "core/isobar.h"
#include "core/partitioner.h"
#include "datagen/registry.h"
#include "linearize/transpose.h"
#include "simd/dispatch.h"
#include "stats/byte_histogram.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/scratch_arena.h"

namespace isobar {
namespace {

Bytes RandomBytes(size_t n, uint64_t seed) {
  Bytes out(n);
  Xoshiro256 rng(seed);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

std::vector<simd::Tier> SupportedTiers() {
  std::vector<simd::Tier> tiers;
  for (simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kSse42, simd::Tier::kAvx2}) {
    if (simd::TierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

// Every test that forces the dispatch tier restores the default afterwards
// so later tests (and other test binaries' processes) see the real host
// resolution again.
class SimdTierTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ResetActiveTierForTesting(); }
};

// ---------------------------------------------------------------------------
// Dispatch plumbing.

TEST(SimdDispatchTest, ScalarTierAlwaysSupported) {
  EXPECT_TRUE(simd::TierSupported(simd::Tier::kScalar));
  // The active tier must be one the host can execute.
  EXPECT_TRUE(simd::TierSupported(simd::ActiveTier()));
}

TEST(SimdDispatchTest, TiersAreOrdered) {
  // A supported tier implies every lower tier is supported too.
  if (simd::TierSupported(simd::Tier::kAvx2)) {
    EXPECT_TRUE(simd::TierSupported(simd::Tier::kSse42));
  }
  if (simd::TierSupported(simd::Tier::kSse42)) {
    EXPECT_TRUE(simd::TierSupported(simd::Tier::kScalar));
  }
}

TEST(SimdDispatchTest, TierNamesRoundTrip) {
  EXPECT_EQ(simd::TierToString(simd::Tier::kScalar), "scalar");
  EXPECT_EQ(simd::TierToString(simd::Tier::kSse42), "sse42");
  EXPECT_EQ(simd::TierToString(simd::Tier::kAvx2), "avx2");
}

TEST_F(SimdTierTest, ForcedTierIsClampedToHostSupport) {
  const simd::Tier got = simd::SetActiveTierForTesting(simd::Tier::kAvx2);
  EXPECT_TRUE(simd::TierSupported(got));
  EXPECT_EQ(got, simd::ActiveTier());
  // Forcing scalar always succeeds exactly.
  EXPECT_EQ(simd::SetActiveTierForTesting(simd::Tier::kScalar),
            simd::Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
}

TEST(SimdDispatchTest, EveryTableEntryIsPopulated) {
  for (simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kSse42, simd::Tier::kAvx2}) {
    const simd::KernelTable& k = simd::KernelsForTier(t);
    EXPECT_NE(k.histogram_update, nullptr);
    EXPECT_NE(k.gather_col_w4, nullptr);
    EXPECT_NE(k.gather_col_w8, nullptr);
    EXPECT_NE(k.scatter_col_w4, nullptr);
    EXPECT_NE(k.scatter_col_w8, nullptr);
    EXPECT_NE(k.run_scan, nullptr);
    EXPECT_NE(k.mtf_encode, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Histogram kernel parity: every tier must produce bit-identical counts to
// the scalar reference, across random widths and sizes (including tails
// shorter than one unrolled iteration and the width-4/8 fast paths).

TEST(SimdHistogramTest, KernelMatchesScalarAcrossWidths) {
  const simd::KernelTable& scalar =
      simd::KernelsForTier(simd::Tier::kScalar);
  Xoshiro256 rng(0x5eed);
  for (simd::Tier tier : SupportedTiers()) {
    const simd::KernelTable& k = simd::KernelsForTier(tier);
    for (size_t width = 1; width <= 64; ++width) {
      const size_t n = 1 + rng.Next() % 3000;
      const Bytes data = RandomBytes(n * width, width * 977 + n);
      std::vector<uint64_t> expect(width * 256, 0);
      std::vector<uint64_t> got(width * 256, 7);  // nonzero: Update adds
      scalar.histogram_update(data.data(), n, width, expect.data());
      for (auto& v : got) v = 0;
      k.histogram_update(data.data(), n, width, got.data());
      ASSERT_EQ(got, expect) << "tier " << simd::TierToString(tier)
                             << " width " << width << " n " << n;
    }
  }
}

TEST(SimdHistogramTest, KernelAccumulatesIntoExistingCounts) {
  // hists is += semantics: pre-existing counts must be preserved.
  const Bytes data = RandomBytes(8 * 100, 42);
  for (simd::Tier tier : SupportedTiers()) {
    std::vector<uint64_t> hists(8 * 256, 3);
    simd::KernelsForTier(tier).histogram_update(data.data(), 100, 8,
                                                hists.data());
    uint64_t total = 0;
    for (uint64_t v : hists) total += v;
    EXPECT_EQ(total, 8u * 256u * 3u + 8u * 100u)
        << "tier " << simd::TierToString(tier);
  }
}

// ---------------------------------------------------------------------------
// Scan kernel parity: run_scan and mtf_encode back the RLE/BWT codec hot
// loops, so every tier must match the scalar reference bit for bit.

TEST(SimdScanTest, RunScanMatchesScalar) {
  const simd::KernelTable& scalar = simd::KernelsForTier(simd::Tier::kScalar);
  // Mismatch positions straddling the 16/32-byte vector strides, plus a
  // run covering the whole buffer (the kernel must not read past n).
  const size_t kBreaks[] = {1,  2,  15, 16, 17, 31,  32,
                            33, 63, 64, 65, 130, 256, 1000};
  Bytes data(1024, 0xAB);
  for (simd::Tier tier : SupportedTiers()) {
    const simd::KernelTable& k = simd::KernelsForTier(tier);
    for (size_t brk : kBreaks) {
      std::fill(data.begin(), data.end(), 0xAB);
      if (brk < data.size()) data[brk] = 0xCD;
      for (size_t n : {size_t{1}, brk, brk + 1, brk + 7, data.size()}) {
        if (n == 0 || n > data.size()) continue;
        ASSERT_EQ(k.run_scan(data.data(), n), scalar.run_scan(data.data(), n))
            << "tier " << simd::TierToString(tier) << " break " << brk
            << " n " << n;
      }
    }
  }
}

TEST(SimdScanTest, RunScanOnRandomRuns) {
  const simd::KernelTable& scalar = simd::KernelsForTier(simd::Tier::kScalar);
  Xoshiro256 rng(0xAB5C15);
  // Concatenated random-length runs of random bytes, scanned from every
  // run boundary with the RLE codec's cap.
  Bytes data;
  std::vector<size_t> starts;
  while (data.size() < 8192) {
    starts.push_back(data.size());
    data.insert(data.end(), 1 + rng.Next() % 300,
                static_cast<uint8_t>(rng.Next()));
  }
  for (simd::Tier tier : SupportedTiers()) {
    const simd::KernelTable& k = simd::KernelsForTier(tier);
    for (size_t s : starts) {
      const size_t cap = std::min<size_t>(130, data.size() - s);
      ASSERT_EQ(k.run_scan(data.data() + s, cap),
                scalar.run_scan(data.data() + s, cap))
          << "tier " << simd::TierToString(tier) << " start " << s;
    }
  }
}

TEST(SimdScanTest, MtfEncodeMatchesScalar) {
  const simd::KernelTable& scalar = simd::KernelsForTier(simd::Tier::kScalar);
  Xoshiro256 rng(0x4711);
  for (simd::Tier tier : SupportedTiers()) {
    const simd::KernelTable& k = simd::KernelsForTier(tier);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{255},
                     size_t{4096}}) {
      // Two regimes: full-range noise, and BWT-like low-entropy data where
      // the rank-0 fast path dominates.
      for (int mode = 0; mode < 2; ++mode) {
        Bytes expect(n);
        for (auto& b : expect) {
          b = static_cast<uint8_t>(mode == 0 ? rng.Next() : rng.Next() % 4);
        }
        Bytes got = expect;
        std::array<uint8_t, 256> order_expect;
        std::array<uint8_t, 256> order_got;
        std::iota(order_expect.begin(), order_expect.end(), 0);
        order_got = order_expect;
        scalar.mtf_encode(expect.data(), n, order_expect.data());
        k.mtf_encode(got.data(), n, order_got.data());
        ASSERT_EQ(got, expect) << "tier " << simd::TierToString(tier)
                               << " n " << n << " mode " << mode;
        ASSERT_EQ(order_got, order_expect)
            << "tier " << simd::TierToString(tier) << " n " << n;
      }
    }
  }
}

TEST_F(SimdTierTest, ColumnHistogramSetIdenticalAcrossTiers) {
  // Stream the same data through ColumnHistogramSet under every tier,
  // split into uneven Update calls, and require identical histograms.
  const size_t width = 8;
  const size_t elements = 5000;
  const Bytes data = RandomBytes(elements * width, 99);

  std::vector<std::vector<uint64_t>> per_tier;
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetActiveTierForTesting(tier);
    ColumnHistogramSet set(width);
    // Three uneven slices exercise the streaming path.
    const size_t a = 1234 * width;
    const size_t b = 3777 * width;
    ASSERT_TRUE(set.Update(ByteSpan(data.data(), a)).ok());
    ASSERT_TRUE(set.Update(ByteSpan(data.data() + a, b - a)).ok());
    ASSERT_TRUE(
        set.Update(ByteSpan(data.data() + b, data.size() - b)).ok());
    EXPECT_EQ(set.element_count(), elements);
    std::vector<uint64_t> flat;
    for (size_t c = 0; c < width; ++c) {
      const ByteHistogram& h = set.column(c);
      flat.insert(flat.end(), h.begin(), h.end());
    }
    per_tier.push_back(std::move(flat));
  }
  for (size_t i = 1; i < per_tier.size(); ++i) {
    EXPECT_EQ(per_tier[i], per_tier[0]);
  }
}

// ---------------------------------------------------------------------------
// Transpose kernel parity and round trips.

TEST(SimdTransposeTest, GatherScatterKernelsMatchScalar) {
  const simd::KernelTable& scalar =
      simd::KernelsForTier(simd::Tier::kScalar);
  // Sizes straddle every vector-width boundary plus ragged tails.
  const size_t sizes[] = {0,  1,  2,  3,   4,   5,   7,    8,    15,  16, 17,
                          31, 32, 33, 63,  64,  65,  127,  128,  129, 255,
                          256, 1000, 4097};
  for (simd::Tier tier : SupportedTiers()) {
    const simd::KernelTable& k = simd::KernelsForTier(tier);
    for (size_t n : sizes) {
      for (size_t width : {size_t{4}, size_t{8}}) {
        const Bytes in = RandomBytes(n * width, n * 13 + width);
        Bytes expect(n * width, 0xEE), got(n * width, 0x11);
        auto gather = width == 4 ? scalar.gather_col_w4 : scalar.gather_col_w8;
        auto gather_t = width == 4 ? k.gather_col_w4 : k.gather_col_w8;
        gather(in.data(), n, expect.data());
        gather_t(in.data(), n, got.data());
        ASSERT_EQ(got, expect)
            << "gather tier " << simd::TierToString(tier) << " w" << width
            << " n " << n;

        // Scatter parity on the gathered (column-major) layout, one plane
        // pointer per column, and the round trip must reproduce the
        // original element-major bytes.
        const uint8_t* planes[8];
        for (size_t c = 0; c < width; ++c) planes[c] = got.data() + c * n;
        Bytes back(n * width, 0x22);
        auto scatter_t = width == 4 ? k.scatter_col_w4 : k.scatter_col_w8;
        scatter_t(planes, n, back.data());
        ASSERT_EQ(back, in) << "round trip tier " << simd::TierToString(tier)
                            << " w" << width << " n " << n;
      }
    }
  }
}

// Property test over the public API: random widths 1..64, random masks,
// both linearizations — every tier must produce byte-identical gather
// output and a lossless gather -> scatter round trip.
TEST_F(SimdTierTest, GatherColumnsParityAcrossTiersRandomized) {
  Xoshiro256 rng(0xBEEF);
  const std::vector<simd::Tier> tiers = SupportedTiers();
  for (int iter = 0; iter < 60; ++iter) {
    const size_t width = 1 + rng.Next() % 64;
    const size_t n = 1 + rng.Next() % 600;
    const uint64_t full = width >= 64 ? ~0ull : ((1ull << width) - 1);
    // Mix of random masks and the full mask (the kernel-accelerated case).
    const uint64_t mask = iter % 4 == 0 ? full : (rng.Next() & full);
    if (mask == 0) continue;
    const Linearization lin =
        iter % 2 == 0 ? Linearization::kColumn : Linearization::kRow;
    const Bytes data = RandomBytes(n * width, rng.Next());

    Bytes reference;
    for (size_t t = 0; t < tiers.size(); ++t) {
      simd::SetActiveTierForTesting(tiers[t]);
      Bytes packed;
      ASSERT_TRUE(GatherColumns(data, width, mask, lin, &packed).ok());
      if (t == 0) {
        reference = packed;
      } else {
        ASSERT_EQ(packed, reference)
            << "tier " << simd::TierToString(tiers[t]) << " width " << width
            << " n " << n << " mask " << std::hex << mask;
      }

      Bytes dest(data.size(), 0);
      ASSERT_TRUE(
          ScatterColumns(packed, width, mask, lin, MutableByteSpan(dest))
              .ok());
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < width; ++j) {
          const uint8_t expected =
              (mask & (1ull << j)) ? data[i * width + j] : 0;
          ASSERT_EQ(dest[i * width + j], expected)
              << "tier " << simd::TierToString(tiers[t]) << " elem " << i
              << " col " << j;
        }
      }
    }
  }
}

// The decoder's merge against its two-pass reference: for every mask of
// the two kernel widths, both section layouts and both linearizations, on
// every tier, MergePartitionInto writes every destination byte exactly as
// two ScatterColumns calls do, and inverts PartitionDataInto.
TEST_F(SimdTierTest, MergePartitionIntoMatchesTwoScatters) {
  const Linearization layouts[] = {Linearization::kRow,
                                   Linearization::kColumn};
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetActiveTierForTesting(tier);
    for (size_t width : {size_t{4}, size_t{8}}) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                       size_t{17}, size_t{4097}}) {
        const Bytes data = RandomBytes(n * width, n * 31 + width);
        for (uint64_t mask = 0; mask <= FullMask(width); ++mask) {
          for (Linearization lin : layouts) {
            for (Linearization raw_lin : layouts) {
              Bytes compressible, incompressible;
              ASSERT_TRUE(PartitionDataInto(data, width, mask, lin,
                                            &compressible, &incompressible,
                                            raw_lin)
                              .ok());
              Bytes expect(data.size(), 0);
              ASSERT_TRUE(ScatterColumns(compressible, width, mask, lin,
                                         MutableByteSpan(expect))
                              .ok());
              ASSERT_TRUE(ScatterColumns(incompressible, width,
                                         FullMask(width) & ~mask, raw_lin,
                                         MutableByteSpan(expect))
                              .ok());
              Bytes merged(data.size(), 0xA5);
              ASSERT_TRUE(MergePartitionInto(compressible, incompressible,
                                             width, mask, lin, raw_lin,
                                             MutableByteSpan(merged))
                              .ok());
              ASSERT_EQ(merged, expect)
                  << "tier " << simd::TierToString(tier) << " w" << width
                  << " n " << n << " mask " << mask << " lin "
                  << LinearizationToString(lin) << " raw "
                  << LinearizationToString(raw_lin);
              ASSERT_EQ(merged, data);
            }
          }
        }
      }
    }
  }
}

// A section whose size disagrees with N and the mask fails the merge
// before any byte moves: each section below is exactly as long as it
// claims, so a read past a short one is a heap overflow under ASan, and
// the destination keeps its sentinel bytes.
TEST_F(SimdTierTest, MergePartitionIntoRejectsMisSizedSections) {
  const size_t n = 17;
  const Linearization layouts[] = {Linearization::kRow,
                                   Linearization::kColumn};
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetActiveTierForTesting(tier);
    for (size_t width : {size_t{4}, size_t{8}, size_t{16}}) {
      const uint64_t mask = 0x6;
      const size_t selected = 2;
      for (Linearization layout : layouts) {
        for (const auto& [packed_size, raw_size] :
             {std::pair{n * selected - 1, n * (width - selected)},
              std::pair{n * selected + 1, n * (width - selected)},
              std::pair{n * selected, n * (width - selected) - 1},
              std::pair{n * selected, n * (width - selected) + 1},
              std::pair{size_t{0}, size_t{0}}}) {
          const Bytes compressible = RandomBytes(packed_size, packed_size);
          const Bytes incompressible = RandomBytes(raw_size, raw_size + 1);
          Bytes dest(n * width, 0x5A);
          const Status status = MergePartitionInto(
              compressible, incompressible, width, mask, layout, layout,
              MutableByteSpan(dest));
          EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
              << "tier " << simd::TierToString(tier) << " w" << width
              << " packed " << packed_size << " raw " << raw_size;
          EXPECT_EQ(dest, Bytes(n * width, 0x5A));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the container must be byte-identical no matter which kernel
// tier encoded it (and no matter the thread count — chunks are assembled
// in order), under the default speed-preference EUPA selection.

TEST_F(SimdTierTest, ContainerBytesIdenticalAcrossTiersAndThreads) {
  auto spec = FindDatasetSpec("gts_phi_l");
  ASSERT_TRUE(spec.ok());
  auto dataset = GenerateDataset(**spec, 120000);
  ASSERT_TRUE(dataset.ok());

  Bytes reference;
  bool have_reference = false;
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetActiveTierForTesting(tier);
    for (uint32_t threads : {1u, 4u}) {
      CompressOptions options;
      options.chunk_elements = 40000;  // several chunks
      options.num_threads = threads;
      options.eupa.sample_elements = 4096;
      IsobarCompressor compressor(options);
      auto container = compressor.Compress(dataset->bytes(), dataset->width());
      ASSERT_TRUE(container.ok())
          << "tier " << simd::TierToString(tier) << " threads " << threads;
      if (!have_reference) {
        reference = *container;
        have_reference = true;
      } else {
        ASSERT_EQ(*container, reference)
            << "tier " << simd::TierToString(tier) << " threads " << threads;
      }
      // And the container decodes back to the input regardless of the
      // tier doing the decoding.
      auto round = IsobarCompressor::Decompress(*container);
      ASSERT_TRUE(round.ok());
      EXPECT_EQ(*round, dataset->data);
    }
  }
}

// ---------------------------------------------------------------------------
// ScratchArena.

TEST(ScratchArenaTest, BuffersPersistAndTrimReleases) {
  ScratchArena arena;
  EXPECT_EQ(arena.TotalCapacityBytes(), 0u);
  arena.buffer(ScratchArena::kGathered).resize(1 << 16);
  arena.buffer(ScratchArena::kRaw).resize(1 << 10);
  EXPECT_GE(arena.TotalCapacityBytes(), (1u << 16) + (1u << 10));

  // Shrinking the size keeps the capacity (that is the point: steady-state
  // chunks stop allocating).
  arena.buffer(ScratchArena::kGathered).clear();
  EXPECT_GE(arena.TotalCapacityBytes(), 1u << 16);

  arena.Trim();
  EXPECT_EQ(arena.TotalCapacityBytes(), 0u);
}

TEST(ScratchArenaTest, ThreadLocalIsPerThread) {
  ScratchArena* main_arena = &ScratchArena::ThreadLocal();
  EXPECT_EQ(main_arena, &ScratchArena::ThreadLocal());  // stable per thread
  ScratchArena* worker_arena = nullptr;
  std::thread t([&] { worker_arena = &ScratchArena::ThreadLocal(); });
  t.join();
  EXPECT_NE(worker_arena, nullptr);
  EXPECT_NE(worker_arena, main_arena);
}

// ---------------------------------------------------------------------------
// BWT worst case. The previous comparator-based suffix sort degraded to
// quadratic-or-worse behaviour on highly repetitive input; a 1 MiB
// constant block took minutes. The prefix-doubling sort finishes this in
// well under a second (see BM_BwtCompressRepetitive), so the test merely
// completing inside the suite's normal budget is the regression check.

TEST(SimdBwtTest, RepetitiveMegabyteChunkRoundTrips) {
  auto codec = GetCodec(CodecId::kBwt);
  ASSERT_TRUE(codec.ok());

  // All-equal bytes: every rotation ties on every round.
  const Bytes constant(1 << 20, 0xAB);
  Bytes compressed;
  ASSERT_TRUE((*codec)->Compress(constant, &compressed).ok());
  Bytes restored;
  ASSERT_TRUE(
      (*codec)->Decompress(compressed, constant.size(), &restored).ok());
  EXPECT_EQ(restored, constant);

  // Short period: ranks collapse into p classes and stay there.
  Bytes periodic(1 << 20);
  for (size_t i = 0; i < periodic.size(); ++i) {
    periodic[i] = static_cast<uint8_t>("abcabd"[i % 6]);
  }
  compressed.clear();
  ASSERT_TRUE((*codec)->Compress(periodic, &compressed).ok());
  ASSERT_TRUE(
      (*codec)->Decompress(compressed, periodic.size(), &restored).ok());
  EXPECT_EQ(restored, periodic);
}

// ---------------------------------------------------------------------------
// CRC32C: the 3-way interleaved hardware path must agree with the
// table-driven portable implementation on every size around the 3x4096-byte
// interleave threshold, at unaligned offsets, and under incremental use.

TEST(SimdCrc32cTest, HardwareMatchesPortable) {
  const Bytes data = RandomBytes(64 * 1024 + 19, 0xC4C);
  const size_t sizes[] = {0,     1,     7,     8,     9,     4095,  4096,
                          4097,  8192,  12287, 12288, 12289, 12296, 16384,
                          24576, 36864, 65536};
  for (size_t n : sizes) {
    ASSERT_LE(n, data.size());
    EXPECT_EQ(crc32c::Extend(0, data.data(), n),
              crc32c::internal::ExtendPortable(0, data.data(), n))
        << "n " << n;
    // Unaligned start, nonzero seed.
    const size_t m = n < 13 ? n : n - 13;
    EXPECT_EQ(crc32c::Extend(0xDEADBEEF, data.data() + 13, m),
              crc32c::internal::ExtendPortable(0xDEADBEEF, data.data() + 13,
                                               m))
        << "n " << n;
  }
}

TEST(SimdCrc32cTest, IncrementalSplitsCrossInterleaveThreshold) {
  const Bytes data = RandomBytes(50000, 7);
  const uint32_t whole = crc32c::Extend(0, data.data(), data.size());
  for (size_t split : {1u, 4096u, 12288u, 12289u, 30000u, 49999u}) {
    uint32_t crc = crc32c::Extend(0, data.data(), split);
    crc = crc32c::Extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split " << split;
  }
}

TEST(SimdCrc32cTest, PortableMatchesKnownVectors) {
  const char* digits = "123456789";
  EXPECT_EQ(crc32c::internal::ExtendPortable(
                0, reinterpret_cast<const uint8_t*>(digits), 9),
            0xE3069283u);
  const uint8_t zeros[32] = {};
  EXPECT_EQ(crc32c::internal::ExtendPortable(0, zeros, 32), 0x8A9136AAu);
}

}  // namespace
}  // namespace isobar
