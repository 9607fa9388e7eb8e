#include "compressors/lzans_codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "compressors/match_finder.h"
#include "compressors/tans.h"

namespace isobar {
namespace {

constexpr size_t kBlockSize = 1u << 17;  // sequences never cross blocks
constexpr size_t kWindow = 1u << 17;     // but matches may reach back across
constexpr size_t kMinMatch = 4;
constexpr uint32_t kHashBits = 16;
constexpr size_t kHashSize = 1u << kHashBits;
constexpr int kMaxChain = 48;

// Matches at least this long are taken immediately; the lazy probe of the
// next position only runs for shorter ones.
constexpr size_t kLazyThreshold = 32;

// Literal-run skip acceleration: after 2^kSkipStrength consecutive probe
// misses the parse starts striding, so incompressible planes cost far
// fewer chain walks (they end up as raw blocks anyway).
constexpr uint32_t kSkipStrength = 5;

constexpr uint8_t kBlockRaw = 0;
constexpr uint8_t kBlockRle = 1;
constexpr uint8_t kBlockLzans = 2;

constexpr uint8_t kLitNone = 0;
constexpr uint8_t kLitTans = 1;
constexpr uint8_t kLitRaw = 2;

constexpr uint32_t kLitStates = 4;  // interleaved ANS states, literals
constexpr uint32_t kLitMaxLog = 11;
constexpr uint32_t kLenMaxLog = 9;
constexpr uint32_t kOffMaxLog = 9;

// Length codes: values < 16 map to themselves; larger values v map to
// 12 + bit_width(v) with bit_width(v)-1 extra bits. Runs and matches are
// bounded by the block size (2^17), so codes stop at 30.
constexpr uint32_t kLenAlphabet = 31;
// Offset codes: floor(log2(dist)) with that many extra bits; the window
// bounds dist at 2^17, so codes stop at 17.
constexpr uint32_t kOffAlphabet = 18;

struct Seq {
  uint32_t ll;  // literal run before the match
  uint32_t ml;  // match length, >= kMinMatch
  uint32_t of;  // match offset, 1..kWindow
};

struct Match {
  size_t len = 0;
  size_t dist = 0;
};

struct PrefixCode {
  uint8_t code;
  uint8_t nb_bits;
  uint32_t extra;
};

PrefixCode MakeLenCode(uint32_t v) {
  if (v < 16) return {static_cast<uint8_t>(v), 0, 0};
  const uint32_t bw = static_cast<uint32_t>(std::bit_width(v));
  return {static_cast<uint8_t>(12 + bw), static_cast<uint8_t>(bw - 1),
          v - (1u << (bw - 1))};
}

PrefixCode MakeOffCode(uint32_t dist) {
  const uint32_t code = static_cast<uint32_t>(std::bit_width(dist)) - 1;
  return {static_cast<uint8_t>(code), static_cast<uint8_t>(code),
          dist - (1u << code)};
}

void AppendLE32(Bytes* out, uint32_t v) {
  const size_t o = out->size();
  out->resize(o + 4);
  StoreLE32(out->data() + o, v);
}

// Trims trailing zero counts so serialized headers don't pay for the
// unused top of a fixed alphabet.
size_t UsedAlphabet(const uint64_t* counts, size_t alphabet) {
  size_t used = 0;
  for (size_t s = 0; s < alphabet; ++s) {
    if (counts[s] != 0) used = s + 1;
  }
  return used;
}

// Order-0 entropy estimate in bytes, used to skip building literal tables
// for planes that clearly won't compress.
size_t EstimateEntropyBytes(const uint64_t* counts, size_t alphabet,
                            uint64_t total) {
  double bits = 0;
  size_t used = 0;
  for (size_t s = 0; s < alphabet; ++s) {
    if (counts[s] == 0) continue;
    ++used;
    bits += static_cast<double>(counts[s]) *
            std::log2(static_cast<double>(total) /
                      static_cast<double>(counts[s]));
  }
  // Header cost: ~2 bytes per used symbol plus fixed framing.
  return static_cast<size_t>(bits / 8.0) + 2 * used + 16;
}

// The overlap-safe LZ match copy shared with the LZSS decoder's logic:
// non-overlapping memcpy, memset for period 1, period doubling otherwise.
void CopyMatch(uint8_t* dst, size_t dist, size_t len) {
  const uint8_t* src = dst - dist;
  if (dist >= len) {
    std::memcpy(dst, src, len);
  } else if (dist == 1) {
    std::memset(dst, src[0], len);
  } else {
    std::memcpy(dst, src, dist);
    size_t copied = dist;
    while (copied < len) {
      const size_t chunk = std::min(copied, len - copied);
      std::memcpy(dst + copied, dst, chunk);
      copied += chunk;
    }
  }
}

// Hash and chain tables of one thread, kept across its calls (768 KiB,
// held until the thread exits). A call stores position p as base + p + 1,
// and the next call's base is this one's base + its size, so whatever an
// earlier call left reads as empty (<= base) without a zeroing pass: the
// index-offset trick of lz4 and zstd. A call whose positions would pass
// 32 bits zeroes `head` once and restarts at base 0. `prev` never needs
// it: a chain only reaches slots its own call wrote, and what they hold
// came from `head`.
struct MatchTables {
  std::vector<uint32_t> head = std::vector<uint32_t>(kHashSize, 0);
  std::vector<uint32_t> prev = std::vector<uint32_t>(kWindow, 0);
  uint32_t next_base = 0;
};

// Stand-in literal source for kLitNone blocks: keeps lit_src non-null so
// the copy paths in Decompress never dereference (or do arithmetic on) a
// null pointer, with enough slack for the 16-byte fast-path read. Literal
// runs are provably empty then (num_lit == 0), so only zeros are copied.
constexpr uint8_t kEmptyLitPad[16] = {};

}  // namespace

Status LzAnsCodec::Compress(ByteSpan input, Bytes* out) const {
  out->clear();
  const size_t n = input.size();
  if (n == 0) return Status::OK();
  out->reserve(n / 2 + 64);
  const uint8_t* const data = input.data();

  // head[h] = most recent position with hash h; prev[i & (kWindow-1)] =
  // previous position in the same chain. Positions offset by base + 1;
  // anything at or below base is empty (MatchTables).
  thread_local MatchTables tables;
  if (n > UINT32_MAX - tables.next_base) {
    std::fill(tables.head.begin(), tables.head.end(), 0);
    tables.next_base = 0;
  }
  const uint32_t base = tables.next_base;
  tables.next_base =
      base + static_cast<uint32_t>(std::min<size_t>(n, UINT32_MAX - base));
  uint32_t* const head = tables.head.data();
  uint32_t* const prev = tables.prev.data();

  std::vector<Seq> seqs;
  Bytes literals;
  Bytes payload;
  Bytes lit_hdr;
  Bytes lit_stream;
  Bytes len_stream;
  Bytes off_stream;

  auto insert_pos = [&](size_t pos) {
    if (pos + kMinMatch > n) return;
    const uint32_t h = lz::Hash4(data + pos, kHashBits);
    prev[pos & (kWindow - 1)] = head[h];
    head[h] = base + static_cast<uint32_t>(pos + 1);
  };

  auto find_match = [&](size_t pos, size_t limit) {
    Match best;
    uint32_t candidate = head[lz::Hash4(data + pos, kHashBits)];
    int chain = 0;
    while (candidate > base && chain++ < kMaxChain) {
      const size_t cand = candidate - base - 1;
      if (pos - cand > kWindow) break;
      // Cheap reject: a strictly longer match must agree one byte past
      // the current best.
      if (best.len == 0 || data[cand + best.len] == data[pos + best.len]) {
        const size_t len = lz::MatchLength(data + cand, data + pos, limit);
        if (len > best.len) {
          best.len = len;
          best.dist = pos - cand;
          if (len == limit) break;
        }
      }
      candidate = prev[cand & (kWindow - 1)];
    }
    return best;
  };

  for (size_t bs = 0; bs < n; bs += kBlockSize) {
    const size_t be = std::min(bs + kBlockSize, n);
    const size_t raw_size = be - bs;

    // RLE escape: constant blocks cost 6 bytes and skip the parse.
    if (raw_size >= 2 &&
        std::memcmp(data + bs, data + bs + 1, raw_size - 1) == 0) {
      out->push_back(kBlockRle);
      AppendLE32(out, static_cast<uint32_t>(raw_size));
      out->push_back(data[bs]);
      continue;
    }

    // --- Parse: greedy hash-chain LZ77 with one-position lazy deferral.
    seqs.clear();
    literals.clear();
    size_t lit_start = bs;
    size_t i = bs;
    uint32_t misses = 0;
    // The lazy probe's match at i when it deferred to i (len 0 = none):
    // nothing is inserted between the probe and the next position's
    // search, so the search would find exactly this.
    Match deferred;
    while (i < be) {
      if (i + kMinMatch > n) break;  // tail joins the trailing literal run
      Match best = deferred.len != 0 ? deferred : find_match(i, be - i);
      deferred = Match{};
      bool inserted = false;
      if (best.len >= kMinMatch && best.len < kLazyThreshold &&
          i + 1 + kMinMatch <= n && i + 1 < be) {
        // Lazy probe: when the next position holds a strictly longer
        // match, emit input[i] as a literal and take that one instead.
        insert_pos(i);
        inserted = true;
        const Match next = find_match(i + 1, be - i - 1);
        if (next.len > best.len) {
          best.len = 0;
          deferred = next;
        }
      }
      if (best.len >= kMinMatch) {
        seqs.push_back({static_cast<uint32_t>(i - lit_start),
                        static_cast<uint32_t>(best.len),
                        static_cast<uint32_t>(best.dist)});
        literals.insert(literals.end(), data + lit_start, data + i);
        for (size_t k = inserted ? 1 : 0; k < best.len; ++k) {
          insert_pos(i + k);
        }
        i += best.len;
        lit_start = i;
        misses = 0;
      } else {
        if (!inserted) insert_pos(i);
        const size_t step = 1 + (misses++ >> kSkipStrength);
        // A skip stride lands past the deferred match's position.
        if (step > 1) deferred = Match{};
        i += step;
        if (i > be) i = be;
      }
    }
    literals.insert(literals.end(), data + lit_start, data + be);

    // --- Emit: build the lzans payload, fall back to raw if it loses.
    payload.clear();
    const uint32_t num_seq = static_cast<uint32_t>(seqs.size());
    const uint32_t num_lit = static_cast<uint32_t>(literals.size());
    AppendLE32(&payload, num_seq);
    AppendLE32(&payload, num_lit);

    uint8_t lit_mode = kLitNone;
    lit_hdr.clear();
    lit_stream.clear();
    if (num_lit > 0) {
      lit_mode = kLitRaw;
      std::array<uint64_t, 256> counts{};
      for (const uint8_t b : literals) ++counts[b];
      if (EstimateEntropyBytes(counts.data(), 256, num_lit) < num_lit) {
        tans::NormalizedHistogram hist;
        tans::EncodeTable table;
        if (tans::Normalize(counts.data(), UsedAlphabet(counts.data(), 256),
                            kLitMaxLog, &hist)
                .ok() &&
            table.Init(hist).ok()) {
          tans::AppendHistogram(hist, &lit_hdr);
          Status st = tans::EncodeInterleaved(
              literals.data(), num_lit, table, kLitStates, &lit_stream);
          if (st.ok() &&
              lit_hdr.size() + 4 + lit_stream.size() < num_lit) {
            lit_mode = kLitTans;
          }
        }
      }
    }
    payload.push_back(lit_mode);
    if (lit_mode == kLitTans) {
      payload.insert(payload.end(), lit_hdr.begin(), lit_hdr.end());
      AppendLE32(&payload, static_cast<uint32_t>(lit_stream.size()));
      payload.insert(payload.end(), lit_stream.begin(), lit_stream.end());
    } else if (lit_mode == kLitRaw) {
      payload.insert(payload.end(), literals.begin(), literals.end());
    }

    bool seq_ok = true;
    if (num_seq > 0) {
      std::array<uint64_t, kLenAlphabet> len_counts{};
      std::array<uint64_t, kOffAlphabet> off_counts{};
      for (const Seq& s : seqs) {
        ++len_counts[MakeLenCode(s.ll).code];
        ++len_counts[MakeLenCode(s.ml - kMinMatch).code];
        ++off_counts[MakeOffCode(s.of).code];
      }
      tans::NormalizedHistogram len_hist;
      tans::NormalizedHistogram off_hist;
      tans::EncodeTable len_table;
      tans::EncodeTable off_table;
      seq_ok =
          tans::Normalize(len_counts.data(),
                          UsedAlphabet(len_counts.data(), kLenAlphabet),
                          kLenMaxLog, &len_hist)
              .ok() &&
          tans::Normalize(off_counts.data(),
                          UsedAlphabet(off_counts.data(), kOffAlphabet),
                          kOffMaxLog, &off_hist)
              .ok() &&
          len_table.Init(len_hist).ok() && off_table.Init(off_hist).ok();
      if (seq_ok) {
        const uint32_t len_ts = len_table.table_size();
        const uint32_t off_ts = off_table.table_size();

        // Length stream: state 0 carries literal-run codes, state 1 match
        // lengths. Encoding walks the sequences backward and mirrors the
        // decoder's per-sequence read order exactly in reverse:
        // (ll code, ll extra, ml code, ml extra) reads become
        // (ml extra, ml code, ll extra, ll code) writes.
        len_stream.clear();
        tans::BitWriter lw(&len_stream);
        uint32_t l0 = len_ts;
        uint32_t l1 = len_ts;
        for (size_t idx = seqs.size(); idx-- > 0;) {
          const PrefixCode ml = MakeLenCode(seqs[idx].ml -
                                            static_cast<uint32_t>(kMinMatch));
          const PrefixCode ll = MakeLenCode(seqs[idx].ll);
          lw.AddBits(ml.extra, ml.nb_bits);
          l1 = len_table.EncodeSymbol(l1, ml.code, &lw);
          lw.AddBits(ll.extra, ll.nb_bits);
          l0 = len_table.EncodeSymbol(l0, ll.code, &lw);
          lw.FlushIfNeeded();
        }
        lw.AddBits(l1 - len_ts, len_table.table_log());
        lw.FlushIfNeeded();
        lw.AddBits(l0 - len_ts, len_table.table_log());
        lw.Finish();

        // Offset stream: two states round-robin over the sequence index.
        off_stream.clear();
        tans::BitWriter ow(&off_stream);
        std::array<uint32_t, 2> os{off_ts, off_ts};
        for (size_t idx = seqs.size(); idx-- > 0;) {
          const PrefixCode of = MakeOffCode(seqs[idx].of);
          ow.AddBits(of.extra, of.nb_bits);
          os[idx & 1] = off_table.EncodeSymbol(os[idx & 1], of.code, &ow);
          ow.FlushIfNeeded();
        }
        ow.AddBits(os[1] - off_ts, off_table.table_log());
        ow.FlushIfNeeded();
        ow.AddBits(os[0] - off_ts, off_table.table_log());
        ow.Finish();

        tans::AppendHistogram(len_hist, &payload);
        tans::AppendHistogram(off_hist, &payload);
        AppendLE32(&payload, static_cast<uint32_t>(len_stream.size()));
        payload.insert(payload.end(), len_stream.begin(), len_stream.end());
        AppendLE32(&payload, static_cast<uint32_t>(off_stream.size()));
        payload.insert(payload.end(), off_stream.begin(), off_stream.end());
      }
    }

    if (!seq_ok || payload.size() >= raw_size) {
      out->push_back(kBlockRaw);
      AppendLE32(out, static_cast<uint32_t>(raw_size));
      out->insert(out->end(), data + bs, data + be);
    } else {
      out->push_back(kBlockLzans);
      AppendLE32(out, static_cast<uint32_t>(raw_size));
      out->insert(out->end(), payload.begin(), payload.end());
    }
  }
  return Status::OK();
}

Status LzAnsCodec::Decompress(ByteSpan input, size_t original_size,
                              Bytes* out) const {
  out->clear();
  out->resize(original_size);
  uint8_t* const base = out->data();
  const uint8_t* const in = input.data();
  const size_t in_size = input.size();
  size_t ip = 0;
  size_t op = 0;
  Bytes lit_scratch;

  while (op < original_size) {
    if (ip + 5 > in_size) {
      return Status::Corruption("lzans: truncated block header");
    }
    const uint8_t type = in[ip];
    const size_t raw_size = LoadLE32(in + ip + 1);
    ip += 5;
    if (raw_size == 0 || raw_size > original_size - op) {
      return Status::Corruption("lzans: block size exceeds output");
    }

    if (type == kBlockRaw) {
      if (ip + raw_size > in_size) {
        return Status::Corruption("lzans: truncated raw block");
      }
      std::memcpy(base + op, in + ip, raw_size);
      ip += raw_size;
      op += raw_size;
      continue;
    }
    if (type == kBlockRle) {
      if (ip + 1 > in_size) {
        return Status::Corruption("lzans: truncated rle block");
      }
      std::memset(base + op, in[ip], raw_size);
      ip += 1;
      op += raw_size;
      continue;
    }
    if (type != kBlockLzans) {
      return Status::Corruption("lzans: unknown block type");
    }

    // --- lzans block.
    if (ip + 9 > in_size) {
      return Status::Corruption("lzans: truncated block prelude");
    }
    const uint32_t num_seq = LoadLE32(in + ip);
    const uint32_t num_lit = LoadLE32(in + ip + 4);
    const uint8_t lit_mode = in[ip + 8];
    ip += 9;
    if (num_lit > raw_size) {
      return Status::Corruption("lzans: literal count exceeds block");
    }
    if (num_seq > raw_size / kMinMatch) {
      return Status::Corruption("lzans: sequence count exceeds block");
    }

    const uint8_t* lit_src = nullptr;
    // True when reading a fixed 16 bytes from any valid literal position
    // stays inside the source buffer: the tANS scratch and the kLitNone
    // pad carry their own 16-byte slack; raw literals need 16 spare input
    // bytes past the literal section.
    bool lit_fast = true;
    if (lit_mode == kLitNone) {
      if (num_lit != 0) {
        return Status::Corruption("lzans: missing literal stream");
      }
      lit_src = kEmptyLitPad;
    } else if (lit_mode == kLitTans) {
      tans::NormalizedHistogram hist;
      Status st = tans::ParseHistogram(input, &ip, &hist);
      if (!st.ok()) return st;
      tans::DecodeTable table;
      st = table.Init(hist);
      if (!st.ok()) return st;
      if (ip + 4 > in_size) {
        return Status::Corruption("lzans: truncated literal stream size");
      }
      const size_t stream_bytes = LoadLE32(in + ip);
      ip += 4;
      if (stream_bytes > in_size - ip) {
        return Status::Corruption("lzans: truncated literal stream");
      }
      // +16 padding lets the sequence loop's short-copy fast path read a
      // fixed 16 bytes from any literal position without overrunning.
      lit_scratch.resize(num_lit + 16);
      st = tans::DecodeInterleaved(ByteSpan(in + ip, stream_bytes), table,
                                   kLitStates, num_lit, lit_scratch.data());
      if (!st.ok()) return st;
      ip += stream_bytes;
      lit_src = lit_scratch.data();
    } else if (lit_mode == kLitRaw) {
      if (num_lit > in_size - ip) {
        return Status::Corruption("lzans: truncated raw literals");
      }
      lit_src = in + ip;
      lit_fast = in_size - ip >= num_lit + 16;
      ip += num_lit;
    } else {
      return Status::Corruption("lzans: unknown literal mode");
    }

    size_t lit_pos = 0;
    const size_t block_end = op + raw_size;
    if (num_seq > 0) {
      tans::NormalizedHistogram len_hist;
      tans::NormalizedHistogram off_hist;
      Status st = tans::ParseHistogram(input, &ip, &len_hist);
      if (!st.ok()) return st;
      st = tans::ParseHistogram(input, &ip, &off_hist);
      if (!st.ok()) return st;
      // Alphabet caps bound every shift below (len codes <= 30 mean <= 17
      // extra bits; offset codes <= 17 likewise).
      if (len_hist.alphabet_size > kLenAlphabet ||
          off_hist.alphabet_size > kOffAlphabet) {
        return Status::Corruption("lzans: oversized code alphabet");
      }
      tans::DecodeTable len_table;
      tans::DecodeTable off_table;
      st = len_table.Init(len_hist);
      if (!st.ok()) return st;
      st = off_table.Init(off_hist);
      if (!st.ok()) return st;

      if (ip + 4 > in_size) {
        return Status::Corruption("lzans: truncated length stream size");
      }
      const size_t len_bytes = LoadLE32(in + ip);
      ip += 4;
      if (len_bytes > in_size - ip) {
        return Status::Corruption("lzans: truncated length stream");
      }
      const ByteSpan len_span(in + ip, len_bytes);
      ip += len_bytes;
      if (ip + 4 > in_size) {
        return Status::Corruption("lzans: truncated offset stream size");
      }
      const size_t off_bytes = LoadLE32(in + ip);
      ip += 4;
      if (off_bytes > in_size - ip) {
        return Status::Corruption("lzans: truncated offset stream");
      }
      const ByteSpan off_span(in + ip, off_bytes);
      ip += off_bytes;

      tans::BitReader lr;
      tans::BitReader orr;
      st = lr.Init(len_span);
      if (!st.ok()) return st;
      st = orr.Init(off_span);
      if (!st.ok()) return st;

      uint32_t l0 = static_cast<uint32_t>(
          lr.ReadBits(len_table.table_log()));
      lr.Reload();
      uint32_t l1 = static_cast<uint32_t>(
          lr.ReadBits(len_table.table_log()));
      lr.Reload();
      std::array<uint32_t, 2> os{};
      os[0] = static_cast<uint32_t>(orr.ReadBits(off_table.table_log()));
      orr.Reload();
      os[1] = static_cast<uint32_t>(orr.ReadBits(off_table.table_log()));
      orr.Reload();

      auto read_len_value = [&lr](uint32_t code) -> size_t {
        if (code < 16) return code;
        const uint32_t nb = code - 13;
        return (size_t{1} << nb) + static_cast<size_t>(lr.ReadBits(nb));
      };

      for (uint32_t s = 0; s < num_seq; ++s) {
        const tans::DecodeTable::Entry& le = len_table.entry(l0);
        l0 = le.new_state +
             static_cast<uint32_t>(lr.ReadBits(le.nb_bits));
        const size_t ll = read_len_value(le.symbol);
        const tans::DecodeTable::Entry& me = len_table.entry(l1);
        l1 = me.new_state +
             static_cast<uint32_t>(lr.ReadBits(me.nb_bits));
        const size_t ml = read_len_value(me.symbol) + kMinMatch;
        lr.Reload();

        const tans::DecodeTable::Entry& oe = off_table.entry(os[s & 1]);
        os[s & 1] = oe.new_state +
                    static_cast<uint32_t>(orr.ReadBits(oe.nb_bits));
        const size_t dist =
            (size_t{1} << oe.symbol) +
            static_cast<size_t>(orr.ReadBits(oe.symbol));
        orr.Reload();

        if (ll > num_lit - lit_pos) {
          return Status::Corruption("lzans: literal run exceeds stream");
        }
        if (ll > block_end - op || ml > block_end - op - ll) {
          return Status::Corruption("lzans: sequence exceeds block");
        }
        if (dist > op + ll) {
          return Status::Corruption("lzans: match offset exceeds output");
        }
        // Fast path for the common short sequence: two unconditional
        // 16-byte copies beat length-dispatched memcpy/CopyMatch calls.
        // Requires slack on every buffer touched and a non-overlapping
        // match; the bounds checks above already proved validity.
        if (lit_fast && ll <= 16 && ml <= 16 && dist >= 16 &&
            original_size - op >= 48) {
          std::memcpy(base + op, lit_src + lit_pos, 16);
          lit_pos += ll;
          op += ll;
          std::memcpy(base + op, base + op - dist, 16);
          op += ml;
        } else {
          std::memcpy(base + op, lit_src + lit_pos, ll);
          lit_pos += ll;
          op += ll;
          CopyMatch(base + op, dist, ml);
          op += ml;
        }
      }
      if (lr.overflowed() || orr.overflowed()) {
        return Status::Corruption("lzans: truncated sequence stream");
      }
      // Mirror the tANS decode-loop hardening: intact streams drain
      // exactly and every state returns to the encoder's initial value
      // (table_size, rebased to 0).
      if (!lr.fully_consumed() || !orr.fully_consumed() || l0 != 0 ||
          l1 != 0 || os[0] != 0 || os[1] != 0) {
        return Status::Corruption("lzans: corrupt sequence stream");
      }
    }

    const size_t tail = num_lit - lit_pos;
    if (tail != block_end - op) {
      return Status::Corruption("lzans: block does not fill its size");
    }
    std::memcpy(base + op, lit_src + lit_pos, tail);
    op += tail;
  }

  if (ip != in_size) {
    return Status::Corruption("lzans: trailing garbage after stream");
  }
  return Status::OK();
}

}  // namespace isobar
