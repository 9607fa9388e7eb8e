#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

#include "compressors/codec.h"
#include "compressors/lzans_codec.h"
#include "compressors/lzss_codec.h"
#include "compressors/registry.h"
#include "compressors/rle_codec.h"
#include "compressors/zlib_codec.h"
#include "compressors/bzip2_codec.h"
#include "datagen/registry.h"
#include "util/random.h"

namespace isobar {
namespace {

Bytes RandomBytes(size_t n, uint64_t seed) {
  Bytes out(n);
  Xoshiro256 rng(seed);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

Bytes RepetitiveBytes(size_t n) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>((i / 97) % 7);
  }
  return out;
}

Bytes TextLikeBytes(size_t n) {
  const std::string phrase =
      "the isobar preconditioner separates signal from noise; ";
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    const size_t take = std::min(phrase.size(), n - out.size());
    out.insert(out.end(), phrase.begin(), phrase.begin() + take);
  }
  return out;
}

// Noise runs, long enough for an LZ parse to start skip-striding, mixed
// with copies of earlier fragments (some with the last byte flipped), so
// short and slightly longer matches sit at neighbouring positions: the
// parse's lazy probe defers while it strides.
Bytes NoiseAndCopiesBytes(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes out;
  out.reserve(n + 64);
  while (out.size() < n) {
    const uint64_t kind = rng.NextBounded(4);
    if (kind < 2 || out.size() < 64) {
      const size_t run = 1 + rng.NextBounded(kind == 0 ? 300 : 8);
      for (size_t i = 0; i < run; ++i) {
        out.push_back(static_cast<uint8_t>(rng.Next()));
      }
    } else {
      const size_t src = rng.NextBounded(out.size() - 8);
      const size_t len =
          4 + rng.NextBounded(std::min<size_t>(60, out.size() - src - 4));
      for (size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
      if (rng.NextBounded(2) != 0) out.back() ^= 1;
    }
  }
  out.resize(n);
  return out;
}

// ---------------------------------------------------------------------------
// Round-trip property over every registered codec and several data shapes.

struct RoundTripCase {
  CodecId id;
  const char* shape;
};

class CodecRoundTripTest
    : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CodecRoundTripTest, CompressThenDecompressIsIdentity) {
  const RoundTripCase& param = GetParam();
  auto codec_result = GetCodec(param.id);
  ASSERT_TRUE(codec_result.ok());
  const Codec* codec = *codec_result;

  Bytes input;
  const std::string shape = param.shape;
  if (shape == "empty") {
    input = {};
  } else if (shape == "single") {
    input = {0x5A};
  } else if (shape == "random") {
    input = RandomBytes(10000, 17);
  } else if (shape == "repetitive") {
    input = RepetitiveBytes(10000);
  } else if (shape == "text") {
    input = TextLikeBytes(10000);
  } else if (shape == "allzero") {
    input = Bytes(10000, 0);
  } else if (shape == "noise_and_copies") {
    input = NoiseAndCopiesBytes(60000, 29);
  }

  Bytes compressed;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  Bytes output;
  ASSERT_TRUE(codec->Decompress(compressed, input.size(), &output).ok());
  EXPECT_EQ(input, output);
}

std::string CaseName(const ::testing::TestParamInfo<RoundTripCase>& info) {
  return std::string(CodecIdToString(info.param.id)) + "_" + info.param.shape;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllShapes, CodecRoundTripTest,
    ::testing::Values(
        RoundTripCase{CodecId::kStored, "empty"},
        RoundTripCase{CodecId::kStored, "single"},
        RoundTripCase{CodecId::kStored, "random"},
        RoundTripCase{CodecId::kZlib, "empty"},
        RoundTripCase{CodecId::kZlib, "single"},
        RoundTripCase{CodecId::kZlib, "random"},
        RoundTripCase{CodecId::kZlib, "repetitive"},
        RoundTripCase{CodecId::kZlib, "text"},
        RoundTripCase{CodecId::kZlib, "allzero"},
        RoundTripCase{CodecId::kBzip2, "single"},
        RoundTripCase{CodecId::kBzip2, "random"},
        RoundTripCase{CodecId::kBzip2, "repetitive"},
        RoundTripCase{CodecId::kBzip2, "text"},
        RoundTripCase{CodecId::kBzip2, "allzero"},
        RoundTripCase{CodecId::kRle, "empty"},
        RoundTripCase{CodecId::kRle, "single"},
        RoundTripCase{CodecId::kRle, "random"},
        RoundTripCase{CodecId::kRle, "repetitive"},
        RoundTripCase{CodecId::kRle, "text"},
        RoundTripCase{CodecId::kRle, "allzero"},
        RoundTripCase{CodecId::kLzss, "empty"},
        RoundTripCase{CodecId::kLzss, "single"},
        RoundTripCase{CodecId::kLzss, "random"},
        RoundTripCase{CodecId::kLzss, "repetitive"},
        RoundTripCase{CodecId::kLzss, "text"},
        RoundTripCase{CodecId::kLzss, "allzero"},
        RoundTripCase{CodecId::kLzss, "noise_and_copies"},
        RoundTripCase{CodecId::kHuffman, "empty"},
        RoundTripCase{CodecId::kHuffman, "single"},
        RoundTripCase{CodecId::kHuffman, "random"},
        RoundTripCase{CodecId::kHuffman, "repetitive"},
        RoundTripCase{CodecId::kHuffman, "text"},
        RoundTripCase{CodecId::kHuffman, "allzero"},
        RoundTripCase{CodecId::kBwt, "empty"},
        RoundTripCase{CodecId::kBwt, "single"},
        RoundTripCase{CodecId::kBwt, "random"},
        RoundTripCase{CodecId::kBwt, "repetitive"},
        RoundTripCase{CodecId::kBwt, "text"},
        RoundTripCase{CodecId::kBwt, "allzero"},
        RoundTripCase{CodecId::kLzans, "empty"},
        RoundTripCase{CodecId::kLzans, "single"},
        RoundTripCase{CodecId::kLzans, "random"},
        RoundTripCase{CodecId::kLzans, "repetitive"},
        RoundTripCase{CodecId::kLzans, "text"},
        RoundTripCase{CodecId::kLzans, "allzero"},
        RoundTripCase{CodecId::kLzans, "noise_and_copies"}),
    CaseName);

// ---------------------------------------------------------------------------
// Compression effectiveness sanity: structured data must actually shrink.

class CodecShrinkTest : public ::testing::TestWithParam<CodecId> {};

TEST_P(CodecShrinkTest, StructuredDataShrinks) {
  auto codec = GetCodec(GetParam());
  ASSERT_TRUE(codec.ok());
  const Bytes input = RepetitiveBytes(64 * 1024);
  Bytes compressed;
  ASSERT_TRUE((*codec)->Compress(input, &compressed).ok());
  EXPECT_LT(compressed.size(), input.size() / 2)
      << CodecIdToString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(RealCodecs, CodecShrinkTest,
                         ::testing::Values(CodecId::kZlib, CodecId::kBzip2,
                                           CodecId::kRle, CodecId::kLzss,
                                           CodecId::kHuffman, CodecId::kBwt,
                                           CodecId::kLzans),
                         [](const auto& info) {
                           return std::string(CodecIdToString(info.param));
                         });

// ---------------------------------------------------------------------------
// Error paths.

TEST(StoredCodecTest, SizeMismatchIsCorruption) {
  StoredCodec codec;
  Bytes out;
  Bytes data = {1, 2, 3};
  EXPECT_EQ(codec.Decompress(data, 4, &out).code(), StatusCode::kCorruption);
}

TEST(ZlibCodecTest, GarbageInputIsCorruption) {
  ZlibCodec codec;
  Bytes garbage = RandomBytes(100, 3);
  Bytes out;
  EXPECT_EQ(codec.Decompress(garbage, 1000, &out).code(),
            StatusCode::kCorruption);
}

TEST(ZlibCodecTest, WrongOriginalSizeIsCorruption) {
  ZlibCodec codec;
  Bytes input = TextLikeBytes(1000);
  Bytes compressed;
  ASSERT_TRUE(codec.Compress(input, &compressed).ok());
  Bytes out;
  EXPECT_FALSE(codec.Decompress(compressed, 999, &out).ok());
  EXPECT_FALSE(codec.Decompress(compressed, 1001, &out).ok());
}

TEST(LzAnsCodecTest, MultiBlockRoundTripWithCrossBlockMatches) {
  // > 2 blocks of text keeps matches flowing across the 128 KiB block
  // boundary (the window spans blocks even though sequences do not).
  const Bytes input = TextLikeBytes(300 * 1024);
  auto codec = GetCodec(CodecId::kLzans);
  ASSERT_TRUE(codec.ok());
  Bytes compressed;
  ASSERT_TRUE((*codec)->Compress(input, &compressed).ok());
  EXPECT_LT(compressed.size(), input.size() / 8);
  Bytes output;
  ASSERT_TRUE((*codec)->Decompress(compressed, input.size(), &output).ok());
  EXPECT_EQ(input, output);
}

TEST(LzAnsCodecTest, MixedNoiseAndStructureRoundTrips) {
  Bytes input = RandomBytes(150 * 1024, 21);  // raw-escape blocks
  const Bytes text = TextLikeBytes(150 * 1024);
  input.insert(input.end(), text.begin(), text.end());
  input.insert(input.end(), size_t{150} * 1024, uint8_t{7});  // RLE blocks
  auto codec = GetCodec(CodecId::kLzans);
  ASSERT_TRUE(codec.ok());
  Bytes compressed;
  ASSERT_TRUE((*codec)->Compress(input, &compressed).ok());
  Bytes output;
  ASSERT_TRUE((*codec)->Decompress(compressed, input.size(), &output).ok());
  EXPECT_EQ(input, output);
}

TEST(LzAnsCodecTest, FullyMatchedBlockHasNoLiterals) {
  // A second block that exactly repeats the first (matches may reach back
  // across the block boundary) compresses to a single zero-literal
  // sequence, i.e. a kLitNone block: random bytes keep the hash chains
  // shallow so the whole-block match is found immediately. The decoder
  // used to leave its literal source pointer null in that mode and read
  // through it.
  constexpr size_t kBlock = 128 * 1024;
  const Bytes first = RandomBytes(kBlock, 17);
  Bytes input = first;
  input.insert(input.end(), first.begin(), first.end());
  auto codec = GetCodec(CodecId::kLzans);
  ASSERT_TRUE(codec.ok());
  Bytes compressed;
  ASSERT_TRUE((*codec)->Compress(input, &compressed).ok());
  Bytes output;
  ASSERT_TRUE((*codec)->Decompress(compressed, input.size(), &output).ok());
  EXPECT_EQ(input, output);
}

// Feeds constant inputs (RLE blocks, which insert nothing into the match
// tables) until a call of `next_size` bytes would push the thread's lzans
// position base, now `base`, past 32 bits and restart it.
void DriveLzAnsBaseToReset(const Codec& codec, uint64_t base,
                           size_t next_size) {
  const uint64_t limit = UINT32_MAX;
  const Bytes constant(size_t{32} << 20, 0x5A);
  Bytes out;
  while (limit - base > constant.size() + next_size / 2) {
    ASSERT_TRUE(codec.Compress(constant, &out).ok());
    base += constant.size();
  }
  const size_t last = static_cast<size_t>(limit - base - next_size / 2);
  ASSERT_TRUE(codec.Compress(ByteSpan(constant).first(last), &out).ok());
}

TEST(LzAnsCodecTest, CallsOnOneThreadMatchAFreshThread) {
  // lzans keeps its match tables per thread, offsetting each call's
  // positions past the last call's (the base grows by each call's size).
  // Whatever a thread compressed before, a call must give what a fresh
  // thread gives: A (over one 128 KiB block) and B interleaved, then again
  // once the position base has passed 32 bits and restarted.
  auto spec = FindDatasetSpec("msg_sppm");
  ASSERT_TRUE(spec.ok());
  auto a_data = GenerateDataset(**spec, 300000 / 8);
  ASSERT_TRUE(a_data.ok());
  const Bytes a = a_data->data;
  auto b_spec = FindDatasetSpec("gts_phi_l");
  ASSERT_TRUE(b_spec.ok());
  auto b_data = GenerateDataset(**b_spec, 32 << 10);
  ASSERT_TRUE(b_data.ok());
  const Bytes b(b_data->data.begin(), b_data->data.begin() + (32 << 10));
  ASSERT_GT(a.size(), size_t{128} << 10);

  // The restart must forget positions from before it. X (a zero run, then
  // the 4 bytes P at 33) leaves P's hash pointing at 33. Y is noise with P
  // at 33, where the parse strides past without inserting it, and P again
  // (with what follows it) after a 32-byte match, where the parse probes.
  // Run at the restarted base 0, a leftover entry would hand Y a match at
  // 33 that a fresh thread never sees.
  Xoshiro256 rng(41);
  Bytes y(33);
  for (auto& byte : y) byte = static_cast<uint8_t>(rng.Next() | 1);
  const uint32_t p = static_cast<uint32_t>(rng.Next()) | 0x01010101u;
  for (int k = 0; k < 4; ++k) y.push_back(static_cast<uint8_t>(p >> (8 * k)));
  while (y.size() < 200) y.push_back(static_cast<uint8_t>(rng.Next() | 1));
  const Bytes head(y.begin(), y.begin() + 32);
  const Bytes from_p(y.begin() + 33, y.begin() + 53);
  y.insert(y.end(), head.begin(), head.end());
  y.insert(y.end(), from_p.begin(), from_p.end());
  while (y.size() < 400) y.push_back(static_cast<uint8_t>(rng.Next() | 1));
  Bytes x(33 + 4 + 16, 0);
  std::copy(y.begin() + 33, y.begin() + 37, x.begin() + 33);

  const LzAnsCodec codec;
  const auto fresh_thread = [&codec](const Bytes& input) {
    Bytes out;
    Status status;
    std::thread([&] { status = codec.Compress(input, &out); }).join();
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out;
  };
  const Bytes want_a = fresh_thread(a);
  const Bytes want_b = fresh_thread(b);
  const Bytes want_y = fresh_thread(y);

  std::thread([&] {
    const auto check_abab = [&](const char* phase) {
      for (const Bytes* input : {&a, &b, &a, &b}) {
        Bytes out;
        ASSERT_TRUE(codec.Compress(*input, &out).ok());
        EXPECT_EQ(out, input == &a ? want_a : want_b) << phase;
      }
    };
    check_abab("first calls");
    // A restarts the base with the chain table still holding the earlier
    // calls' positions.
    DriveLzAnsBaseToReset(codec, 2 * (a.size() + b.size()), a.size());
    check_abab("after the base restarted");
  }).join();

  std::thread([&] {
    Bytes out;
    ASSERT_TRUE(codec.Compress(x, &out).ok());
    DriveLzAnsBaseToReset(codec, x.size(), y.size());
    ASSERT_TRUE(codec.Compress(y, &out).ok());
    EXPECT_EQ(out, want_y);
  }).join();
}

TEST(LzAnsCodecTest, GarbageInputIsCorruption) {
  auto codec = GetCodec(CodecId::kLzans);
  ASSERT_TRUE(codec.ok());
  Bytes garbage = RandomBytes(200, 5);
  Bytes out;
  // Whatever the garbage parses as, it must fail closed, not crash.
  EXPECT_FALSE((*codec)->Decompress(garbage, 100000, &out).ok());
}

TEST(LzAnsCodecTest, WrongOriginalSizeIsCorruption) {
  auto codec = GetCodec(CodecId::kLzans);
  ASSERT_TRUE(codec.ok());
  const Bytes input = TextLikeBytes(5000);
  Bytes compressed;
  ASSERT_TRUE((*codec)->Compress(input, &compressed).ok());
  Bytes out;
  EXPECT_FALSE((*codec)->Decompress(compressed, 4999, &out).ok());
  EXPECT_FALSE((*codec)->Decompress(compressed, 5001, &out).ok());
}

TEST(LzAnsCodecTest, TruncatedStreamIsCorruption) {
  auto codec = GetCodec(CodecId::kLzans);
  ASSERT_TRUE(codec.ok());
  const Bytes input = TextLikeBytes(20000);
  Bytes compressed;
  ASSERT_TRUE((*codec)->Compress(input, &compressed).ok());
  Bytes out;
  for (size_t cut : {size_t{0}, size_t{3}, compressed.size() / 2,
                     compressed.size() - 1}) {
    Bytes truncated(compressed.begin(), compressed.begin() + cut);
    EXPECT_FALSE((*codec)->Decompress(truncated, input.size(), &out).ok())
        << "cut=" << cut;
  }
}

TEST(Bzip2CodecTest, GarbageInputIsCorruption) {
  Bzip2Codec codec;
  Bytes garbage = RandomBytes(100, 4);
  Bytes out;
  EXPECT_EQ(codec.Decompress(garbage, 1000, &out).code(),
            StatusCode::kCorruption);
}

TEST(ZlibCodecTest, LevelIsClamped) {
  EXPECT_EQ(ZlibCodec(0).level(), 1);
  EXPECT_EQ(ZlibCodec(99).level(), 9);
  EXPECT_EQ(ZlibCodec(6).level(), 6);
}

TEST(Bzip2CodecTest, BlockSizeIsClamped) {
  EXPECT_EQ(Bzip2Codec(0).block_size_100k(), 1);
  EXPECT_EQ(Bzip2Codec(42).block_size_100k(), 9);
}

TEST(ZlibCodecTest, HigherLevelNoWorseOnText) {
  const Bytes input = TextLikeBytes(256 * 1024);
  Bytes fast, best;
  ASSERT_TRUE(ZlibCodec(1).Compress(input, &fast).ok());
  ASSERT_TRUE(ZlibCodec(9).Compress(input, &best).ok());
  EXPECT_LE(best.size(), fast.size());
}

// ---------------------------------------------------------------------------
// RLE stream format specifics.

TEST(RleCodecTest, EncodesLongRunsCompactly) {
  RleCodec codec;
  Bytes input(130, 0xAB);  // exactly the maximum repeat run
  Bytes compressed;
  ASSERT_TRUE(codec.Compress(input, &compressed).ok());
  EXPECT_EQ(compressed.size(), 2u);
  Bytes out;
  ASSERT_TRUE(codec.Decompress(compressed, input.size(), &out).ok());
  EXPECT_EQ(out, input);
}

TEST(RleCodecTest, RunJustOverMaxSplits) {
  RleCodec codec;
  Bytes input(131, 0xCD);
  Bytes compressed;
  ASSERT_TRUE(codec.Compress(input, &compressed).ok());
  Bytes out;
  ASSERT_TRUE(codec.Decompress(compressed, input.size(), &out).ok());
  EXPECT_EQ(out, input);
}

TEST(RleCodecTest, TwoByteRunsStayLiteral) {
  RleCodec codec;
  Bytes input = {1, 1, 2, 2, 3, 3};  // runs below the repeat threshold
  Bytes compressed;
  ASSERT_TRUE(codec.Compress(input, &compressed).ok());
  EXPECT_EQ(compressed.size(), input.size() + 1);  // one literal header
  Bytes out;
  ASSERT_TRUE(codec.Decompress(compressed, input.size(), &out).ok());
  EXPECT_EQ(out, input);
}

TEST(RleCodecTest, TruncatedStreamIsCorruption) {
  RleCodec codec;
  Bytes input(100, 0x11);
  Bytes compressed;
  ASSERT_TRUE(codec.Compress(input, &compressed).ok());
  compressed.pop_back();
  Bytes out;
  EXPECT_EQ(codec.Decompress(compressed, input.size(), &out).code(),
            StatusCode::kCorruption);
}

TEST(RleCodecTest, OverlongStreamIsCorruption) {
  RleCodec codec;
  Bytes input(100, 0x22);
  Bytes compressed;
  ASSERT_TRUE(codec.Compress(input, &compressed).ok());
  Bytes out;
  EXPECT_EQ(codec.Decompress(compressed, 50, &out).code(),
            StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// LZSS stream format specifics.

TEST(LzssCodecTest, OverlappingMatchDecodesByteAtATime) {
  // "abcabcabc..." forces matches whose source overlaps their destination.
  LzssCodec codec;
  Bytes input;
  for (int i = 0; i < 1000; ++i) input.push_back(static_cast<uint8_t>('a' + i % 3));
  Bytes compressed;
  ASSERT_TRUE(codec.Compress(input, &compressed).ok());
  EXPECT_LT(compressed.size(), input.size() / 3);
  Bytes out;
  ASSERT_TRUE(codec.Decompress(compressed, input.size(), &out).ok());
  EXPECT_EQ(out, input);
}

TEST(LzssCodecTest, MatchBeyondWindowNotUsed) {
  // A repeated block separated by > 4 KiB of noise: the second copy cannot
  // reference the first, but the stream must still round-trip.
  LzssCodec codec;
  Bytes block = TextLikeBytes(512);
  Bytes input = block;
  Bytes noise = RandomBytes(8192, 5);
  input.insert(input.end(), noise.begin(), noise.end());
  input.insert(input.end(), block.begin(), block.end());
  Bytes compressed, out;
  ASSERT_TRUE(codec.Compress(input, &compressed).ok());
  ASSERT_TRUE(codec.Decompress(compressed, input.size(), &out).ok());
  EXPECT_EQ(out, input);
}

TEST(LzssCodecTest, CorruptMatchDistanceDetected) {
  // Hand-craft a stream whose match points before the start of output.
  Bytes stream = {0x00, 0xFF, 0x0F};  // 8 match tokens; first: dist 4096
  LzssCodec codec;
  Bytes out;
  EXPECT_EQ(codec.Decompress(stream, 100, &out).code(),
            StatusCode::kCorruption);
}

TEST(LzssCodecTest, TruncatedLiteralDetected) {
  Bytes stream = {0xFF};  // flags promise 8 literals, none present
  LzssCodec codec;
  Bytes out;
  EXPECT_EQ(codec.Decompress(stream, 8, &out).code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(RegistryTest, LooksUpEveryIdAndName) {
  for (CodecId id : AllCodecIds()) {
    auto by_id = GetCodec(id);
    ASSERT_TRUE(by_id.ok());
    EXPECT_EQ((*by_id)->id(), id);
    auto by_name = GetCodecByName(CodecIdToString(id));
    ASSERT_TRUE(by_name.ok());
    EXPECT_EQ(*by_id, *by_name);  // singletons
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  EXPECT_EQ(GetCodecByName("lz4").status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, UnknownIdIsNotFound) {
  EXPECT_EQ(GetCodec(static_cast<CodecId>(250)).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace isobar
