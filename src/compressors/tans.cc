#include "compressors/tans.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace isobar::tans {
namespace {

// Symbol spread step: odd for every power-of-two table size, so the walk
// visits each slot exactly once before wrapping (same constant as FSE).
uint32_t SpreadStep(uint32_t table_size) {
  return (table_size >> 1) + (table_size >> 3) + 3;
}

// Scatters each symbol `count` times over the table in the canonical
// FSE order. Encoder and decoder must agree on this placement exactly.
void SpreadSymbols(const NormalizedHistogram& hist, uint8_t* spread) {
  const uint32_t table_size = 1u << hist.table_log;
  const uint32_t step = SpreadStep(table_size);
  const uint32_t mask = table_size - 1;
  uint32_t pos = 0;
  for (uint32_t s = 0; s < hist.alphabet_size; ++s) {
    for (uint32_t n = 0; n < hist.counts[s]; ++n) {
      spread[pos] = static_cast<uint8_t>(s);
      pos = (pos + step) & mask;
    }
  }
  // step is coprime with table_size, so the walk ends where it started.
}

void AppendVarint(uint32_t v, Bytes* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

bool ParseVarint(ByteSpan data, size_t* offset, uint32_t* v) {
  uint32_t result = 0;
  for (uint32_t shift = 0; shift < 35; shift += 7) {
    if (*offset >= data.size()) return false;
    const uint8_t byte = data[(*offset)++];
    result |= static_cast<uint32_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

}  // namespace

uint32_t OptimalTableLog(uint64_t total, size_t used_symbols,
                         uint32_t max_log) {
  // total <= 4 would drive bit_width(total - 1) - 2 to (or below) zero —
  // unsigned wrap for total == 2 — so tiny inputs take the minimum table.
  uint32_t log = total > 4
                     ? static_cast<uint32_t>(std::bit_width(total - 1)) - 2
                     : kMinTableLog;
  // Every used symbol needs at least one state.
  const uint32_t min_log = static_cast<uint32_t>(
      std::bit_width(used_symbols > 1 ? used_symbols - 1 : size_t{1}));
  log = std::max(log, min_log);
  log = std::max(log, kMinTableLog);
  log = std::min(log, std::min(max_log, kMaxTableLog));
  return log;
}

Status Normalize(const uint64_t* counts, size_t alphabet_size,
                 uint32_t max_table_log, NormalizedHistogram* out) {
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
  if (used == 0) {
    return Status::InvalidArgument("tans: empty histogram");
  }

  out->alphabet_size = static_cast<uint32_t>(alphabet_size);
  out->counts.fill(0);

  if (used == 1) {
    // Degenerate single-symbol alphabet: the smallest table keeps the
    // header tiny and each symbol costs 0 bits.
    out->table_log = kMinTableLog;
    out->counts[last_used] = static_cast<uint16_t>(1u << kMinTableLog);
    return Status::OK();
  }

  out->table_log = OptimalTableLog(total, used, max_table_log);
  const uint32_t table_size = 1u << out->table_log;

  // First pass: scaled floor, bumped to 1 for every present symbol.
  int64_t assigned = 0;
  for (size_t s = 0; s < alphabet_size; ++s) {
    if (counts[s] == 0) continue;
    uint64_t n = (counts[s] * table_size) / total;
    if (n == 0) n = 1;
    out->counts[s] = static_cast<uint16_t>(n);
    assigned += static_cast<int64_t>(n);
  }

  // Correction: move the remaining slots to (or reclaim excess from) the
  // most misrepresented symbol, one slot at a time. Cross-multiplied
  // integer comparisons keep the choice exact and deterministic; ties
  // break on the lowest index. A deficit picks the largest
  // counts[s] / normalized[s] among present symbols, a surplus the
  // smallest among those above 1. Only the picked symbol's ratio moves,
  // so a heap in that order re-sifts one entry per step.
  const int64_t target = static_cast<int64_t>(table_size);
  const bool deficit = assigned < target;
  // True when `b` is picked before `a` (std heaps keep the greatest on top).
  const auto picked_after = [&](uint16_t a, uint16_t b) {
    // Both ratios scaled by normalized[a] * normalized[b].
    const uint64_t ratio_a = counts[a] * out->counts[b];
    const uint64_t ratio_b = counts[b] * out->counts[a];
    if (ratio_a != ratio_b) {
      return deficit ? ratio_a < ratio_b : ratio_a > ratio_b;
    }
    return a > b;
  };
  std::array<uint16_t, kMaxAlphabet> heap;
  size_t heap_size = 0;
  for (size_t s = 0; s < alphabet_size; ++s) {
    if (deficit ? counts[s] != 0 : out->counts[s] > 1) {
      heap[heap_size++] = static_cast<uint16_t>(s);
    }
  }
  std::make_heap(heap.begin(), heap.begin() + heap_size, picked_after);
  while (assigned != target) {
    if (heap_size == 0) {
      return Status::Internal("tans: normalization cannot converge");
    }
    std::pop_heap(heap.begin(), heap.begin() + heap_size, picked_after);
    const uint16_t pick = heap[heap_size - 1];
    if (deficit) {
      out->counts[pick] += 1;
      assigned += 1;
    } else {
      out->counts[pick] -= 1;
      assigned -= 1;
    }
    if (!deficit && out->counts[pick] <= 1) {
      --heap_size;  // No slack left to reclaim.
    } else {
      std::push_heap(heap.begin(), heap.begin() + heap_size, picked_after);
    }
  }
  return Status::OK();
}

void AppendHistogram(const NormalizedHistogram& hist, Bytes* out) {
  out->push_back(static_cast<uint8_t>(hist.table_log));
  out->push_back(static_cast<uint8_t>(hist.alphabet_size - 1));
  uint32_t s = 0;
  while (s < hist.alphabet_size) {
    if (hist.counts[s] == 0) {
      uint32_t run = 1;
      while (s + run < hist.alphabet_size && hist.counts[s + run] == 0) {
        ++run;
      }
      AppendVarint(0, out);
      AppendVarint(run, out);
      s += run;
    } else {
      AppendVarint(hist.counts[s], out);
      ++s;
    }
  }
}

Status ParseHistogram(ByteSpan data, size_t* offset,
                      NormalizedHistogram* out) {
  if (*offset + 2 > data.size()) {
    return Status::Corruption("tans: truncated table header");
  }
  out->table_log = data[(*offset)++];
  out->alphabet_size = static_cast<uint32_t>(data[(*offset)++]) + 1;
  if (out->table_log < kMinTableLog || out->table_log > kMaxTableLog) {
    return Status::Corruption("tans: table log out of range");
  }
  out->counts.fill(0);
  const uint32_t table_size = 1u << out->table_log;
  uint64_t sum = 0;
  uint32_t s = 0;
  while (s < out->alphabet_size) {
    uint32_t v = 0;
    if (!ParseVarint(data, offset, &v)) {
      return Status::Corruption("tans: truncated table counts");
    }
    if (v == 0) {
      uint32_t run = 0;
      if (!ParseVarint(data, offset, &run)) {
        return Status::Corruption("tans: truncated zero run");
      }
      if (run == 0 || s + run > out->alphabet_size) {
        return Status::Corruption("tans: bad zero run");
      }
      s += run;
    } else {
      if (v > table_size) {
        return Status::Corruption("tans: count exceeds table");
      }
      out->counts[s] = static_cast<uint16_t>(v);
      sum += v;
      if (sum > table_size) {
        return Status::Corruption("tans: counts overflow table");
      }
      ++s;
    }
  }
  if (sum != table_size) {
    return Status::Corruption("tans: counts do not fill table");
  }
  return Status::OK();
}

Status EncodeTable::Init(const NormalizedHistogram& hist) {
  if (hist.table_log < kMinTableLog || hist.table_log > kMaxTableLog ||
      hist.alphabet_size == 0 || hist.alphabet_size > kMaxAlphabet) {
    return Status::InvalidArgument("tans: bad histogram");
  }
  table_log_ = hist.table_log;
  const uint32_t table_size = 1u << table_log_;

  std::vector<uint8_t> spread(table_size);
  SpreadSymbols(hist, spread.data());

  // cumul[s] = index of symbol s's first slot in its sorted state range.
  std::array<uint32_t, kMaxAlphabet + 1> cumul{};
  uint32_t running = 0;
  for (uint32_t s = 0; s < hist.alphabet_size; ++s) {
    cumul[s] = running;
    running += hist.counts[s];
  }

  state_table_.assign(table_size, 0);
  for (uint32_t i = 0; i < table_size; ++i) {
    const uint8_t s = spread[i];
    state_table_[cumul[s]++] = static_cast<uint16_t>(table_size + i);
  }

  uint32_t total = 0;
  for (uint32_t s = 0; s < hist.alphabet_size; ++s) {
    const uint32_t freq = hist.counts[s];
    if (freq == 0) {
      // Never encodable; poison so a bug trips the 64-bit add guard.
      delta_nb_bits_[s] = ((table_log_ + 1) << 16);
      delta_find_state_[s] = 0;
      continue;
    }
    const uint32_t max_bits =
        table_log_ - (static_cast<uint32_t>(std::bit_width(freq)) - 1);
    delta_nb_bits_[s] = (max_bits << 16) - (freq << max_bits);
    delta_find_state_[s] = static_cast<int32_t>(total) -
                           static_cast<int32_t>(freq);
    total += freq;
  }
  return Status::OK();
}

Status DecodeTable::Init(const NormalizedHistogram& hist) {
  if (hist.table_log < kMinTableLog || hist.table_log > kMaxTableLog ||
      hist.alphabet_size == 0 || hist.alphabet_size > kMaxAlphabet) {
    return Status::Corruption("tans: bad histogram");
  }
  table_log_ = hist.table_log;
  const uint32_t table_size = 1u << table_log_;

  std::vector<uint8_t> spread(table_size);
  SpreadSymbols(hist, spread.data());

  std::array<uint32_t, kMaxAlphabet> symbol_next{};
  for (uint32_t s = 0; s < hist.alphabet_size; ++s) {
    symbol_next[s] = hist.counts[s];
  }

  entries_.assign(table_size, Entry{});
  for (uint32_t i = 0; i < table_size; ++i) {
    const uint8_t s = spread[i];
    const uint32_t x = symbol_next[s]++;
    const uint32_t nb_bits =
        table_log_ - (static_cast<uint32_t>(std::bit_width(x)) - 1);
    Entry& e = entries_[i];
    e.symbol = s;
    e.nb_bits = static_cast<uint8_t>(nb_bits);
    // (x << nb_bits) lands in [table_size, 2*table_size); rebased to
    // [0, table_size) so state + read bits always stays in-table.
    e.new_state = static_cast<uint16_t>((x << nb_bits) - table_size);
  }
  return Status::OK();
}

Status BitReader::Init(ByteSpan stream) {
  if (stream.empty()) {
    return Status::Corruption("tans: empty bitstream");
  }
  start_ = stream.data();
  const size_t len = stream.size();
  const uint8_t last = stream[len - 1];
  if (last == 0) {
    return Status::Corruption("tans: missing stream sentinel");
  }
  overflowed_ = false;
  if (len >= 8) {
    ptr_ = start_ + len - 8;
    std::memcpy(&container_, ptr_, 8);
    if constexpr (std::endian::native == std::endian::big) {
      container_ = __builtin_bswap64(container_);
    }
    bits_limit_ = 64;
  } else {
    // Short stream: left-align the bytes at the top of the container so
    // the read expression is uniform; only the top 8*len bits are valid.
    ptr_ = start_;
    container_ = 0;
    for (size_t i = 0; i < len; ++i) {
      container_ |= static_cast<uint64_t>(start_[i]) << (8 * i);
    }
    container_ <<= 8 * (8 - len);
    bits_limit_ = static_cast<uint32_t>(8 * len);
  }
  // Skip the last byte's padding zeros plus the sentinel bit itself.
  bits_consumed_ =
      (8 - static_cast<uint32_t>(std::bit_width(last))) + 1;
  return Status::OK();
}

void BitReader::Reload() {
  if (ptr_ == start_) {
    if (bits_consumed_ > bits_limit_) overflowed_ = true;
    return;
  }
  const size_t whole_bytes = bits_consumed_ >> 3;
  const size_t step = std::min(
      whole_bytes, static_cast<size_t>(ptr_ - start_));
  ptr_ -= step;
  bits_consumed_ -= static_cast<uint32_t>(8 * step);
  std::memcpy(&container_, ptr_, 8);
  if constexpr (std::endian::native == std::endian::big) {
    container_ = __builtin_bswap64(container_);
  }
}

namespace {

// ANS encodes in reverse: walk the symbols backward so the decoder,
// reading the bitstream back-to-front, emits them forward. Item i uses
// state i % N on both sides; templating on N keeps the modulo and the
// group loop fully unrolled. With N <= 4 and table_log <= 12, one group
// pushes at most 48 bits, so one flush per group keeps the 64-bit
// accumulator safe.
template <uint32_t N>
void EncodeLoop(const uint8_t* symbols, size_t count,
                const EncodeTable& table, BitWriter* writer) {
  std::array<uint32_t, N> state;
  state.fill(table.table_size());

  // Peel the tail so the main loop sees whole groups of N.
  size_t i = count;
  while (i % N != 0) {
    --i;
    state[i % N] = table.EncodeSymbol(state[i % N], symbols[i], writer);
    writer->FlushIfNeeded();
  }
  while (i > 0) {
    for (uint32_t k = N; k-- > 0;) {
      --i;
      state[k] = table.EncodeSymbol(state[k], symbols[i], writer);
    }
    writer->FlushIfNeeded();
  }
  // Flush states high-to-low: the decoder reads most-recently-written
  // bits first, so it recovers state 0, 1, ... in order.
  for (uint32_t k = N; k-- > 0;) {
    writer->AddBits(state[k] - table.table_size(), table.table_log());
    writer->FlushIfNeeded();
  }
  writer->Finish();
}

template <uint32_t N>
Status DecodeLoop(ByteSpan stream, const DecodeTable& table, size_t count,
                  uint8_t* out) {
  BitReader reader;
  Status st = reader.Init(stream);
  if (!st.ok()) return st;

  std::array<uint32_t, N> state{};
  for (uint32_t k = 0; k < N; ++k) {
    state[k] = static_cast<uint32_t>(reader.ReadBits(table.table_log()));
    reader.Reload();
  }

  size_t i = 0;
  const size_t main_end = count - count % N;
  while (i < main_end) {
    for (uint32_t k = 0; k < N; ++k) {
      const DecodeTable::Entry& e = table.entry(state[k]);
      out[i + k] = e.symbol;
      state[k] =
          e.new_state + static_cast<uint32_t>(reader.ReadBits(e.nb_bits));
    }
    i += N;
    reader.Reload();
  }
  for (; i < count; ++i) {
    const DecodeTable::Entry& e = table.entry(state[i % N]);
    out[i] = e.symbol;
    state[i % N] =
        e.new_state + static_cast<uint32_t>(reader.ReadBits(e.nb_bits));
    reader.Reload();
  }
  if (reader.overflowed()) {
    return Status::Corruption("tans: truncated bitstream");
  }
  // An intact stream drains exactly and walks every state back to the
  // encoder's initial value (table_size, rebased to 0). Leftover bits,
  // extra leading bytes, or a stray final state all mean corruption even
  // when no read overflowed.
  if (!reader.fully_consumed()) {
    return Status::Corruption("tans: bitstream not fully consumed");
  }
  for (uint32_t k = 0; k < N; ++k) {
    if (state[k] != 0) {
      return Status::Corruption("tans: bad final decoder state");
    }
  }
  return Status::OK();
}

}  // namespace

Status EncodeInterleaved(const uint8_t* symbols, size_t count,
                         const EncodeTable& table, uint32_t num_states,
                         Bytes* out) {
  if (num_states < 1 || num_states > 4) {
    return Status::InvalidArgument("tans: bad interleave factor");
  }
  if (count == 0) return Status::OK();

  BitWriter writer(out);
  switch (num_states) {
    case 1: EncodeLoop<1>(symbols, count, table, &writer); break;
    case 2: EncodeLoop<2>(symbols, count, table, &writer); break;
    case 3: EncodeLoop<3>(symbols, count, table, &writer); break;
    default: EncodeLoop<4>(symbols, count, table, &writer); break;
  }
  return Status::OK();
}

Status DecodeInterleaved(ByteSpan stream, const DecodeTable& table,
                         uint32_t num_states, size_t count, uint8_t* out) {
  if (num_states < 1 || num_states > 4) {
    return Status::InvalidArgument("tans: bad interleave factor");
  }
  if (count == 0) {
    return stream.empty()
               ? Status::OK()
               : Status::Corruption("tans: trailing stream bytes");
  }
  switch (num_states) {
    case 1: return DecodeLoop<1>(stream, table, count, out);
    case 2: return DecodeLoop<2>(stream, table, count, out);
    case 3: return DecodeLoop<3>(stream, table, count, out);
    default: return DecodeLoop<4>(stream, table, count, out);
  }
}

}  // namespace isobar::tans
