#ifndef ISOBAR_COMPRESSORS_TANS_H_
#define ISOBAR_COMPRESSORS_TANS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace isobar::tans {

/// Table-based asymmetric numeral system (tANS/FSE) entropy coder: the
/// entropy stage of the lzans codec, exposed on its own so the tables,
/// the bitstream, and the interleaved decode loop are testable (and
/// benchmarkable) in isolation.
///
/// The scheme is Duda's tANS as popularized by FSE/zstd: symbol
/// frequencies are normalized to a power-of-two total (the table size),
/// encoding walks a state machine backward through the input pushing
/// `tableLog - floor(log2(freq))`-ish bits per symbol, and decoding walks
/// forward reading the bitstream back to front. Decode states live in
/// `[0, table_size)` and every transition lands back inside the table, so
/// even a corrupt bitstream can only ever produce wrong symbols — never
/// an out-of-bounds table access.
///
/// Streams produced by Encode* are self-delimiting: the encoder appends a
/// single 1-bit sentinel and zero-pads to a byte boundary, and the
/// decoder locates the sentinel in the last byte. Decoders fail closed:
/// reading past the start of the stream sets an overflow flag that turns
/// into Corruption, it never reads out of bounds. DecodeInterleaved
/// additionally rejects streams that do not drain exactly (extra leading
/// bytes or leftover bits) or whose states do not return to the encoder's
/// initial values, so well-formed-but-corrupt streams are detected too.

inline constexpr uint32_t kMinTableLog = 5;
inline constexpr uint32_t kMaxTableLog = 12;
inline constexpr size_t kMaxAlphabet = 256;

/// Symbol counts normalized to sum exactly 1 << table_log, every symbol
/// that appeared keeping a count of at least 1.
struct NormalizedHistogram {
  uint32_t table_log = 0;
  uint32_t alphabet_size = 0;  ///< symbols are [0, alphabet_size)
  std::array<uint16_t, kMaxAlphabet> counts{};
};

/// Largest table log worth paying for `total` input symbols: roughly
/// total/4 states, clamped to [kMinTableLog, max_log] and to at least
/// enough states to give every used symbol one.
uint32_t OptimalTableLog(uint64_t total, size_t used_symbols,
                         uint32_t max_log);

/// Normalizes raw counts over [0, alphabet_size) to sum 1 << table_log
/// (table_log chosen by OptimalTableLog, capped at max_table_log).
/// Deterministic: correction steps always pick the lowest-index
/// most-misrepresented symbol (a heap keeps that order, so a correction
/// step costs O(log alphabet)). Fails on an all-zero histogram.
Status Normalize(const uint64_t* counts, size_t alphabet_size,
                 uint32_t max_table_log, NormalizedHistogram* out);

/// Serialized table header: table_log byte, max-symbol byte, then the
/// nonzero counts as LEB128 varints with zero-runs escaped as
/// 0 <run length>. A few dozen bytes for the lzans length/offset
/// alphabets, ~100-300 bytes for a 256-symbol literal table.
void AppendHistogram(const NormalizedHistogram& hist, Bytes* out);

/// Parses a serialized histogram, advancing *offset past it. Validates
/// everything it reads (table_log range, alphabet bound, counts summing
/// exactly to 1 << table_log) and fails closed on any violation.
Status ParseHistogram(ByteSpan data, size_t* offset,
                      NormalizedHistogram* out);

/// Encoding tables (FSE-style): per-symbol bit-count thresholds plus the
/// state transition table.
class EncodeTable {
 public:
  Status Init(const NormalizedHistogram& hist);

  uint32_t table_log() const { return table_log_; }
  uint32_t table_size() const { return 1u << table_log_; }

  /// Maximum bits one EncodeSymbol can push for `symbol`.
  uint32_t MaxBits(uint8_t symbol) const {
    return static_cast<uint32_t>(delta_nb_bits_[symbol] >> 16) + 1;
  }

  // Encode step, inlined into the hot loops. `state` must be in
  // [table_size, 2*table_size). Pushes the low bits of the old state,
  // returns the successor state.
  template <typename Writer>
  uint32_t EncodeSymbol(uint32_t state, uint8_t symbol,
                        Writer* writer) const {
    const uint32_t nb_bits =
        (state + delta_nb_bits_[symbol]) >> 16;
    writer->AddBits(state, nb_bits);
    return state_table_[(state >> nb_bits) +
                        static_cast<uint32_t>(delta_find_state_[symbol])];
  }

 private:
  uint32_t table_log_ = 0;
  std::vector<uint16_t> state_table_;
  std::array<uint32_t, kMaxAlphabet> delta_nb_bits_{};
  std::array<int32_t, kMaxAlphabet> delta_find_state_{};
};

/// Decoding table: one {symbol, nb_bits, next-state base} entry per
/// state. Transitions provably stay inside the table for any bit input.
class DecodeTable {
 public:
  Status Init(const NormalizedHistogram& hist);

  uint32_t table_log() const { return table_log_; }
  uint32_t table_size() const { return 1u << table_log_; }

  struct Entry {
    uint16_t new_state;  ///< successor base; add the nb_bits read bits
    uint8_t symbol;
    uint8_t nb_bits;
  };
  const Entry& entry(uint32_t state) const { return entries_[state]; }

 private:
  uint32_t table_log_ = 0;
  std::vector<Entry> entries_;
};

/// Forward bit writer: bits accumulate low-to-high in a 64-bit container
/// and flush to the output byte stream little-endian, one 8-byte store at
/// a write cursor that starts at the end of whatever `*out` already holds.
/// Between flushes `*out` carries slack bytes past the cursor; Finish()
/// trims them, so the stream is complete only after it. Callers must
/// FlushIfNeeded often enough that fewer than 64 bits are pending (every
/// AddBits call site in this codebase flushes at least once per ~58
/// pushed bits).
class BitWriter {
 public:
  explicit BitWriter(Bytes* out)
      : out_(out), start_(out->size()), cursor_(out->size()) {}

  void AddBits(uint64_t value, uint32_t nb_bits) {
    // nb_bits == 0 must be a no-op; (1<<0)-1 masks everything away.
    acc_ |= (value & ((uint64_t{1} << nb_bits) - 1)) << filled_;
    filled_ += nb_bits;
  }

  void FlushIfNeeded() {
    if (filled_ < 8) return;
    if (out_->size() - cursor_ < 8) Grow();
    // All 8 bytes are stored; only the whole ones advance the cursor, and
    // the next store overwrites the rest.
    StoreLE64(out_->data() + cursor_, acc_);
    const uint32_t whole = filled_ >> 3;
    cursor_ += whole;
    acc_ >>= 8 * whole;
    filled_ &= 7;
  }

  /// Appends the 1-bit end-of-stream sentinel, pads to a byte and trims
  /// `*out` to the stream's end.
  void Finish() {
    AddBits(1, 1);
    FlushIfNeeded();
    if (filled_ > 0) {
      if (out_->size() == cursor_) Grow();
      (*out_)[cursor_++] = static_cast<uint8_t>(acc_);
      acc_ = 0;
      filled_ = 0;
    }
    out_->resize(cursor_);
  }

 private:
  /// Makes room for an 8-byte store at the cursor, growing by the
  /// stream's own length so the resizes stay amortized O(1) per byte.
  void Grow() {
    out_->resize(cursor_ + 8 + std::max<size_t>(cursor_ - start_, 56));
  }

  Bytes* out_;
  size_t start_;
  size_t cursor_;
  uint64_t acc_ = 0;
  uint32_t filled_ = 0;
};

/// Backward bit reader (FSE BIT_DStream shape): initialized at the end
/// of the stream, it returns bits in the reverse order they were
/// written. All loads stay inside [stream.begin(), stream.end()];
/// exhausting the stream sets overflowed() instead of reading past it.
class BitReader {
 public:
  Status Init(ByteSpan stream);

  uint64_t ReadBits(uint32_t nb_bits) {
    // Branchless: an over-consume latches overflowed_ (the decode result
    // is discarded once it trips), `& 63` keeps the shift defined however
    // far past the end a corrupt stream pushes us, and the two-step right
    // shift makes nb_bits == 0 yield 0 without a special case.
    overflowed_ |= bits_consumed_ + nb_bits > 64;
    const uint64_t value =
        ((container_ << (bits_consumed_ & 63)) >> 1) >> (63 - nb_bits);
    bits_consumed_ += nb_bits;
    return value;
  }

  /// Rewinds the load pointer to refill the container. Call at least once
  /// per ~56 consumed bits.
  void Reload();

  bool overflowed() const { return overflowed_; }

  /// True once every stream bit has been consumed: the load pointer is
  /// back at the first byte and the container is drained to its limit.
  /// Only meaningful after the final Reload() of a decode loop; an intact
  /// stream drains exactly, so anything less means corruption.
  bool fully_consumed() const {
    return ptr_ == start_ && bits_consumed_ == bits_limit_;
  }

 private:
  const uint8_t* start_ = nullptr;
  const uint8_t* ptr_ = nullptr;
  uint64_t container_ = 0;
  uint32_t bits_consumed_ = 0;
  uint32_t bits_limit_ = 64;  ///< valid bits in container when ptr == start
  bool overflowed_ = false;
};

/// Encodes `count` symbols with `num_states` round-robin interleaved ANS
/// states over one bit-buffer, appending the stream to *out. The
/// interleave factor is baked into the stream: decode with the same one.
Status EncodeInterleaved(const uint8_t* symbols, size_t count,
                         const EncodeTable& table, uint32_t num_states,
                         Bytes* out);

/// Decodes exactly `count` symbols into `out`. Fails closed (Corruption)
/// on a truncated or trailing-garbage stream, on a stream that does not
/// drain exactly, and on final states that do not return to the
/// encoder's initial values.
Status DecodeInterleaved(ByteSpan stream, const DecodeTable& table,
                         uint32_t num_states, size_t count, uint8_t* out);

}  // namespace isobar::tans

#endif  // ISOBAR_COMPRESSORS_TANS_H_
