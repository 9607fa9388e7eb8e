#include "compressors/tans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "util/random.h"

namespace isobar::tans {
namespace {

NormalizedHistogram NormalizeOrDie(const uint64_t* counts, size_t alphabet,
                                   uint32_t max_log = kMaxTableLog) {
  NormalizedHistogram hist;
  Status st = Normalize(counts, alphabet, max_log, &hist);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return hist;
}

uint32_t SumCounts(const NormalizedHistogram& hist) {
  uint32_t sum = 0;
  for (uint32_t s = 0; s < hist.alphabet_size; ++s) sum += hist.counts[s];
  return sum;
}

// ---------------------------------------------------------------------------
// Normalization edge cases.

TEST(TansNormalizeTest, SingleSymbolGetsWholeTable) {
  std::array<uint64_t, 8> counts{};
  counts[5] = 12345;
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), 8);
  EXPECT_EQ(hist.table_log, kMinTableLog);
  EXPECT_EQ(hist.counts[5], 1u << kMinTableLog);
  EXPECT_EQ(SumCounts(hist), 1u << hist.table_log);
}

TEST(TansNormalizeTest, SkewedHistogramKeepsRareSymbols) {
  std::array<uint64_t, 4> counts = {1000000, 1, 1, 1};
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), 4);
  EXPECT_EQ(SumCounts(hist), 1u << hist.table_log);
  // Every present symbol keeps at least one state, no matter how rare.
  for (int s = 1; s < 4; ++s) EXPECT_GE(hist.counts[s], 1u);
  EXPECT_GT(hist.counts[0], hist.counts[1]);
}

TEST(TansNormalizeTest, FullAlphabetUniform) {
  std::array<uint64_t, 256> counts;
  counts.fill(37);
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), 256);
  EXPECT_EQ(SumCounts(hist), 1u << hist.table_log);
  // 256 symbols need at least 256 states.
  EXPECT_GE(hist.table_log, 8u);
  const uint16_t share = hist.counts[0];
  for (int s = 0; s < 256; ++s) EXPECT_EQ(hist.counts[s], share);
}

TEST(TansNormalizeTest, TinyTotalTakesMinimumTable) {
  // total == 2 used to wrap bit_width(total - 1) - 2 below zero and clamp
  // the table log to max_log, inflating headers for 2-symbol inputs.
  std::array<uint64_t, 2> counts = {1, 1};
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), 2);
  EXPECT_EQ(hist.table_log, kMinTableLog);
  EXPECT_EQ(SumCounts(hist), 1u << hist.table_log);
}

TEST(TansNormalizeTest, EmptyHistogramFails) {
  std::array<uint64_t, 16> counts{};
  NormalizedHistogram hist;
  EXPECT_FALSE(Normalize(counts.data(), 16, kMaxTableLog, &hist).ok());
}

TEST(TansNormalizeTest, RespectsMaxTableLog) {
  std::array<uint64_t, 8> counts = {100, 200, 300, 400, 10, 20, 30, 40};
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), 8, 6);
  EXPECT_LE(hist.table_log, 6u);
  EXPECT_EQ(SumCounts(hist), 1u << hist.table_log);
}

// ---------------------------------------------------------------------------
// Table header serialization.

TEST(TansHistogramTest, SerializeParseRoundTrip) {
  std::array<uint64_t, 40> counts{};
  counts[0] = 500;
  counts[3] = 100;
  counts[17] = 7;  // zero runs on both sides
  counts[39] = 90;
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), 40);

  Bytes serialized;
  AppendHistogram(hist, &serialized);
  NormalizedHistogram parsed;
  size_t offset = 0;
  Status st = ParseHistogram(serialized, &offset, &parsed);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(offset, serialized.size());
  EXPECT_EQ(parsed.table_log, hist.table_log);
  EXPECT_EQ(parsed.alphabet_size, hist.alphabet_size);
  EXPECT_EQ(parsed.counts, hist.counts);
}

TEST(TansHistogramTest, CorruptHeadersFailClosed) {
  std::array<uint64_t, 8> counts = {10, 20, 30, 40, 50, 60, 70, 80};
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), 8);
  Bytes good;
  AppendHistogram(hist, &good);

  NormalizedHistogram parsed;
  size_t offset;

  // Truncations at every prefix length must fail, never crash.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    Bytes truncated(good.begin(), good.begin() + cut);
    offset = 0;
    EXPECT_FALSE(ParseHistogram(truncated, &offset, &parsed).ok())
        << "cut=" << cut;
  }

  // Table log out of range.
  Bytes bad = good;
  bad[0] = kMaxTableLog + 1;
  offset = 0;
  EXPECT_FALSE(ParseHistogram(bad, &offset, &parsed).ok());
  bad[0] = kMinTableLog - 1;
  offset = 0;
  EXPECT_FALSE(ParseHistogram(bad, &offset, &parsed).ok());

  // Counts that no longer sum to the table size.
  bad = good;
  bad[2] = static_cast<uint8_t>(bad[2] ^ 1);
  offset = 0;
  EXPECT_FALSE(ParseHistogram(bad, &offset, &parsed).ok());
}

// ---------------------------------------------------------------------------
// Encode/decode round trips.

Bytes MakeSymbols(size_t n, uint64_t seed, int alphabet) {
  Bytes out(n);
  Xoshiro256 rng(seed);
  for (auto& b : out) {
    // Skewed distribution: low symbols are much more common.
    const uint64_t r = rng.Next();
    b = static_cast<uint8_t>((r % alphabet) * (r % 3 == 0 ? 1 : 0) +
                             (r % 5) * (r % 3 != 0 ? 1 : 0));
  }
  return out;
}

void RoundTrip(const Bytes& symbols, uint32_t num_states) {
  std::array<uint64_t, 256> counts{};
  for (uint8_t s : symbols) ++counts[s];
  size_t alphabet = 0;
  for (size_t s = 0; s < 256; ++s) {
    if (counts[s] != 0) alphabet = s + 1;
  }
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), alphabet);

  EncodeTable enc;
  ASSERT_TRUE(enc.Init(hist).ok());
  DecodeTable dec;
  ASSERT_TRUE(dec.Init(hist).ok());

  Bytes stream;
  ASSERT_TRUE(EncodeInterleaved(symbols.data(), symbols.size(), enc,
                                num_states, &stream)
                  .ok());
  Bytes decoded(symbols.size());
  Status st = DecodeInterleaved(stream, dec, num_states, symbols.size(),
                                decoded.data());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoded, symbols) << "num_states=" << num_states;
}

TEST(TansStreamTest, RoundTripAllInterleaveFactors) {
  const Bytes symbols = MakeSymbols(50000, 99, 41);
  for (uint32_t n = 1; n <= 4; ++n) RoundTrip(symbols, n);
}

TEST(TansStreamTest, RoundTripShortInputs) {
  for (size_t len : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 63u}) {
    RoundTrip(MakeSymbols(len, len, 17), 4);
    RoundTrip(MakeSymbols(len, len, 17), 2);
  }
}

TEST(TansStreamTest, RoundTripSingleSymbolInput) {
  RoundTrip(Bytes(1000, 42), 4);
}

TEST(TansStreamTest, InterleavedParityWithSingleStream) {
  // The same table must decode its own 1-way and 4-way streams to the
  // same symbols: interleaving changes the bit schedule, not the message.
  const Bytes symbols = MakeSymbols(10000, 7, 29);
  std::array<uint64_t, 256> counts{};
  for (uint8_t s : symbols) ++counts[s];
  size_t alphabet = 0;
  for (size_t s = 0; s < 256; ++s) {
    if (counts[s] != 0) alphabet = s + 1;
  }
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), alphabet);
  EncodeTable enc;
  ASSERT_TRUE(enc.Init(hist).ok());
  DecodeTable dec;
  ASSERT_TRUE(dec.Init(hist).ok());

  Bytes single;
  Bytes interleaved;
  ASSERT_TRUE(
      EncodeInterleaved(symbols.data(), symbols.size(), enc, 1, &single)
          .ok());
  ASSERT_TRUE(EncodeInterleaved(symbols.data(), symbols.size(), enc, 4,
                                &interleaved)
                  .ok());

  Bytes from_single(symbols.size());
  Bytes from_interleaved(symbols.size());
  ASSERT_TRUE(DecodeInterleaved(single, dec, 1, symbols.size(),
                                from_single.data())
                  .ok());
  ASSERT_TRUE(DecodeInterleaved(interleaved, dec, 4, symbols.size(),
                                from_interleaved.data())
                  .ok());
  EXPECT_EQ(from_single, symbols);
  EXPECT_EQ(from_interleaved, symbols);
  // The interleaved stream pays only the extra state flushes.
  EXPECT_NEAR(static_cast<double>(single.size()),
              static_cast<double>(interleaved.size()), 8.0);
}

TEST(TansStreamTest, EmptyInputProducesEmptyStream) {
  std::array<uint64_t, 4> counts = {5, 3, 2, 1};
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), 4);
  EncodeTable enc;
  ASSERT_TRUE(enc.Init(hist).ok());
  DecodeTable dec;
  ASSERT_TRUE(dec.Init(hist).ok());

  Bytes stream;
  ASSERT_TRUE(EncodeInterleaved(nullptr, 0, enc, 2, &stream).ok());
  EXPECT_TRUE(stream.empty());
  EXPECT_TRUE(DecodeInterleaved(stream, dec, 2, 0, nullptr).ok());
  // Decoding zero symbols from a non-empty stream is trailing garbage.
  Bytes junk = {0x80};
  EXPECT_FALSE(DecodeInterleaved(junk, dec, 2, 0, nullptr).ok());
}

TEST(TansStreamTest, TruncatedStreamsFailClosed) {
  const Bytes symbols = MakeSymbols(5000, 3, 23);
  std::array<uint64_t, 256> counts{};
  for (uint8_t s : symbols) ++counts[s];
  size_t alphabet = 0;
  for (size_t s = 0; s < 256; ++s) {
    if (counts[s] != 0) alphabet = s + 1;
  }
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), alphabet);
  EncodeTable enc;
  ASSERT_TRUE(enc.Init(hist).ok());
  DecodeTable dec;
  ASSERT_TRUE(dec.Init(hist).ok());

  Bytes stream;
  ASSERT_TRUE(
      EncodeInterleaved(symbols.data(), symbols.size(), enc, 2, &stream)
          .ok());
  Bytes decoded(symbols.size());
  // An empty stream and every severe truncation must fail; mild
  // truncations may decode garbage symbols but must never succeed in
  // producing the requested count from insufficient bits... they either
  // fail or the overflow flag trips. All must return non-OK.
  EXPECT_FALSE(
      DecodeInterleaved(ByteSpan(), dec, 2, symbols.size(), decoded.data())
          .ok());
  for (size_t keep : {size_t{1}, stream.size() / 4, stream.size() / 2,
                      stream.size() - 1}) {
    Bytes truncated(stream.begin(), stream.begin() + keep);
    if (!truncated.empty() && truncated.back() == 0) {
      truncated.back() = 1;  // keep a sentinel so Init succeeds
    }
    EXPECT_FALSE(DecodeInterleaved(truncated, dec, 2, symbols.size(),
                                   decoded.data())
                     .ok())
        << "keep=" << keep;
  }
}

TEST(TansStreamTest, ExtraLeadingBytesFailClosed) {
  // Bytes prepended to an otherwise valid stream never trip the overflow
  // flag — the reader simply stops before reaching them — so only the
  // full-consumption check can reject this well-formed corruption.
  const Bytes symbols = MakeSymbols(5000, 11, 23);
  std::array<uint64_t, 256> counts{};
  for (uint8_t s : symbols) ++counts[s];
  size_t alphabet = 0;
  for (size_t s = 0; s < 256; ++s) {
    if (counts[s] != 0) alphabet = s + 1;
  }
  const NormalizedHistogram hist = NormalizeOrDie(counts.data(), alphabet);
  EncodeTable enc;
  ASSERT_TRUE(enc.Init(hist).ok());
  DecodeTable dec;
  ASSERT_TRUE(dec.Init(hist).ok());

  Bytes stream;
  ASSERT_TRUE(
      EncodeInterleaved(symbols.data(), symbols.size(), enc, 2, &stream)
          .ok());
  Bytes decoded(symbols.size());
  for (size_t extra : {size_t{1}, size_t{7}, size_t{64}}) {
    Bytes padded(extra, 0xAB);
    padded.insert(padded.end(), stream.begin(), stream.end());
    EXPECT_FALSE(DecodeInterleaved(padded, dec, 2, symbols.size(),
                                   decoded.data())
                     .ok())
        << "extra=" << extra;
  }
}

// ---------------------------------------------------------------------------
// Pinning tests. The normalized counts are serialized into every lzans
// table header and drive every tANS stream, and BitWriter lays out those
// streams, so both are part of the lzans format: their outputs are pinned
// to simple references.

// Normalize as a linear scan per correction step: the lowest-index most
// under-represented symbol gains a slot (deficit), or the lowest-index most
// over-represented symbol above 1 gives one up (surplus).
Status ReferenceNormalize(const uint64_t* counts, size_t alphabet_size,
                          uint32_t max_table_log, NormalizedHistogram* out,
                          bool* surplus) {
  *surplus = false;
  if (alphabet_size == 0 || alphabet_size > kMaxAlphabet) {
    return Status::InvalidArgument("tans: bad alphabet size");
  }
  uint64_t total = 0;
  size_t used = 0;
  size_t last_used = 0;
  for (size_t s = 0; s < alphabet_size; ++s) {
    total += counts[s];
    if (counts[s] != 0) {
      ++used;
      last_used = s;
    }
  }
  if (used == 0) return Status::InvalidArgument("tans: empty histogram");
  out->alphabet_size = static_cast<uint32_t>(alphabet_size);
  out->counts.fill(0);
  if (used == 1) {
    out->table_log = kMinTableLog;
    out->counts[last_used] = static_cast<uint16_t>(1u << kMinTableLog);
    return Status::OK();
  }
  out->table_log = OptimalTableLog(total, used, max_table_log);
  const int64_t table_size = int64_t{1} << out->table_log;
  int64_t assigned = 0;
  for (size_t s = 0; s < alphabet_size; ++s) {
    if (counts[s] == 0) continue;
    uint64_t n = (counts[s] * static_cast<uint64_t>(table_size)) / total;
    if (n == 0) n = 1;
    out->counts[s] = static_cast<uint16_t>(n);
    assigned += static_cast<int64_t>(n);
  }
  *surplus = assigned > table_size;
  while (assigned != table_size) {
    size_t pick = alphabet_size;
    if (assigned < table_size) {
      for (size_t s = 0; s < alphabet_size; ++s) {
        if (counts[s] == 0) continue;
        if (pick == alphabet_size ||
            counts[s] * out->counts[pick] > counts[pick] * out->counts[s]) {
          pick = s;
        }
      }
      out->counts[pick] += 1;
      assigned += 1;
    } else {
      for (size_t s = 0; s < alphabet_size; ++s) {
        if (out->counts[s] <= 1) continue;
        if (pick == alphabet_size ||
            counts[s] * out->counts[pick] < counts[pick] * out->counts[s]) {
          pick = s;
        }
      }
      if (pick == alphabet_size) {
        return Status::Internal("tans: normalization cannot converge");
      }
      out->counts[pick] -= 1;
      assigned -= 1;
    }
  }
  return Status::OK();
}

// A random histogram over `alphabet` symbols totalling about `total`:
// uniform, geometric (a few dominant symbols and a long rare tail, the
// shape that over-assigns and forces a surplus) or sparse weights.
std::vector<uint64_t> RandomHistogram(size_t alphabet, uint64_t total,
                                      Xoshiro256* rng) {
  std::vector<double> weights(alphabet);
  const uint64_t shape = rng->NextBounded(3);
  for (size_t s = 0; s < alphabet; ++s) {
    double w = 0.05 + rng->NextDouble();
    if (shape == 1) w *= std::pow(0.7, static_cast<double>(s % 40));
    if (shape == 2 && rng->NextBounded(4) != 0) w = 0.0;
    weights[s] = w;
  }
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<uint64_t> counts(alphabet);
  for (size_t s = 0; s < alphabet; ++s) {
    counts[s] = sum > 0.0 ? static_cast<uint64_t>(
                                static_cast<double>(total) * weights[s] / sum)
                          : 0;
  }
  if (rng->NextBounded(2) == 0) {
    counts[rng->NextBounded(alphabet)] += 1;  // at least one symbol present
  }
  return counts;
}

TEST(TansNormalizeTest, MatchesLinearScanReference) {
  Xoshiro256 rng(0x7A45);
  size_t surpluses = 0;
  size_t deficits = 0;
  size_t failures = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const size_t alphabet = 2 + rng.NextBounded(kMaxAlphabet - 1);
    // Totals log-uniform over [2, 2^20].
    const uint64_t total = std::max<uint64_t>(
        2, static_cast<uint64_t>(std::exp2(1.0 + 19.0 * rng.NextDouble())));
    const uint32_t max_log = trial % 2 == 0 ? 9 : 11;
    const std::vector<uint64_t> counts =
        RandomHistogram(alphabet, total, &rng);
    NormalizedHistogram want;
    bool surplus = false;
    const Status want_status =
        ReferenceNormalize(counts.data(), alphabet, max_log, &want, &surplus);
    NormalizedHistogram got;
    const Status got_status = Normalize(counts.data(), alphabet, max_log, &got);
    ASSERT_EQ(got_status.code(), want_status.code()) << "trial " << trial;
    if (!want_status.ok()) {
      ++failures;
      continue;
    }
    (surplus ? surpluses : deficits) += 1;
    ASSERT_EQ(got.table_log, want.table_log) << "trial " << trial;
    ASSERT_EQ(got.alphabet_size, want.alphabet_size) << "trial " << trial;
    ASSERT_EQ(got.counts, want.counts) << "trial " << trial;
  }
  // Both correction directions, and the empty-histogram refusal, ran.
  EXPECT_GT(surpluses, 100u);
  EXPECT_GT(deficits, 100u);
  EXPECT_GT(failures, 0u);
}

// BitWriter's stream built one bit at a time: bit k of the pushed bits is
// bit k % 8 of byte k / 8, then a 1-bit sentinel and zero padding.
class ReferenceBitWriter {
 public:
  void AddBits(uint64_t value, uint32_t nb_bits) {
    for (uint32_t i = 0; i < nb_bits; ++i) bits_.push_back((value >> i) & 1);
  }

  void Finish(Bytes* out) {
    bits_.push_back(true);
    Bytes stream((bits_.size() + 7) / 8, 0);
    for (size_t k = 0; k < bits_.size(); ++k) {
      if (bits_[k]) stream[k / 8] |= static_cast<uint8_t>(1u << (k % 8));
    }
    out->insert(out->end(), stream.begin(), stream.end());
  }

 private:
  std::vector<bool> bits_;
};

TEST(TansBitWriterTest, MatchesBitAtATimeReference) {
  Xoshiro256 rng(0xB17);
  for (int trial = 0; trial < 400; ++trial) {
    // Half the trials append to a buffer that already holds bytes.
    const Bytes prefix = trial % 2 == 0 ? Bytes{}
                                        : Bytes(rng.NextBounded(300), 0xC3);
    Bytes got = prefix;
    Bytes want = prefix;
    BitWriter writer(&got);
    ReferenceBitWriter reference;
    const size_t ops = rng.NextBounded(trial < 20 ? 4 : 3000);
    uint32_t pending = 0;
    for (size_t op = 0; op < ops; ++op) {
      // Values carry junk above nb_bits, which both writers must drop.
      const uint64_t value = rng.Next();
      const uint32_t nb_bits = static_cast<uint32_t>(rng.NextBounded(33));
      // The writer's contract: flush before more than 56 bits pend.
      if (pending + nb_bits > 56) {
        writer.FlushIfNeeded();
        pending &= 7;
      }
      writer.AddBits(value, nb_bits);
      reference.AddBits(value, nb_bits);
      pending += nb_bits;
      if (rng.NextBounded(3) == 0) {
        writer.FlushIfNeeded();
        if (pending >= 8) pending &= 7;
      }
    }
    writer.Finish();
    reference.Finish(&want);
    ASSERT_EQ(got, want) << "trial " << trial << ", " << ops << " pushes";
  }
}

}  // namespace
}  // namespace isobar::tans
