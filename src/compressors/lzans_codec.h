#ifndef ISOBAR_COMPRESSORS_LZANS_CODEC_H_
#define ISOBAR_COMPRESSORS_LZANS_CODEC_H_

#include "compressors/codec.h"

namespace isobar {

/// Homegrown zstd-class LZ77 + tANS codec: 128 KiB window, lazy hash-chain
/// parse, sequences entropy-coded with interleaved table-based ANS.
///
/// Stream format: a sequence of independent 128 KiB blocks, each
///   u8  block type (0 = raw, 1 = RLE, 2 = lzans)
///   u32 raw_size (decoded size of the block)
/// followed by the type-specific payload:
///   - raw : raw_size verbatim bytes (incompressible escape).
///   - RLE : one byte, repeated raw_size times.
///   - lzans:
///       u32 num_sequences, u32 num_literals, u8 literal mode
///       literal mode 1: tANS table header, u32 stream size, 4-way
///                       interleaved tANS literal stream
///       literal mode 2: num_literals verbatim bytes (high-entropy planes)
///       if num_sequences > 0: length + offset tANS table headers, then a
///       length stream (2 interleaved states: literal-run and match-length
///       codes with their extra bits) and an offset stream (2 interleaved
///       states, one offset code + extra bits per sequence).
///
/// A sequence is (literal_run, match_length ≥ 4, offset); matches never
/// cross a block boundary but may reference the previous block's output
/// (the window spans blocks). Decoding validates every count, offset, and
/// table header and fails closed on corrupt input without overreading.
///
/// This is the "zstd-class solver family" ROADMAP item: a first-class EUPA
/// candidate whose decode throughput comes from N-way interleaved ANS
/// states and long-match copies rather than per-token branching.
///
/// Compress keeps its hash and chain tables per thread (768 KiB, held
/// until the thread exits) instead of allocating and zeroing them per
/// call; each call offsets its positions past the previous call's, so
/// the output never depends on what the thread compressed before.
class LzAnsCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kLzans; }
  Status Compress(ByteSpan input, Bytes* out) const override;
  Status Decompress(ByteSpan input, size_t original_size,
                    Bytes* out) const override;
};

}  // namespace isobar

#endif  // ISOBAR_COMPRESSORS_LZANS_CODEC_H_
