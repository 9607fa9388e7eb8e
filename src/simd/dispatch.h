#ifndef ISOBAR_SIMD_DISPATCH_H_
#define ISOBAR_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace isobar::simd {

/// Instruction-set tier the byte-plane kernels run at. Tiers are ordered:
/// a higher tier implies every capability of the lower ones.
enum class Tier : uint8_t {
  kScalar = 0,  ///< Portable C++, no instruction-set assumptions.
  kSse42 = 1,   ///< SSE2..SSE4.2 (x86-64 baseline + pshufb + crc32).
  kAvx2 = 2,    ///< 256-bit integer SIMD.
};

std::string_view TierToString(Tier tier);

/// Highest tier the host CPU can execute (cpuid probe, cached).
Tier DetectTier();

/// True when the host can execute `tier`'s kernels.
bool TierSupported(Tier tier);

/// The tier the kernels actually dispatch to. Resolved once on first use:
/// DetectTier(), lowered by the ISOBAR_SIMD environment variable
/// ("scalar", "sse42", or "avx2") when set. An override above the host's
/// capability is clamped down, never up.
Tier ActiveTier();

/// Test/bench hook: forces ActiveTier() to `tier` (clamped to what the
/// host supports; the clamped value is returned). Not safe to call while
/// kernels are executing concurrently on other threads.
Tier SetActiveTierForTesting(Tier tier);

/// Test/bench hook: discards a forced tier; the next ActiveTier() call
/// re-resolves from cpuid + ISOBAR_SIMD.
void ResetActiveTierForTesting();

/// Per-tier kernel function table. Every entry is callable on every tier
/// (lower tiers fill in portable implementations), and every tier
/// produces bit-identical results — histogram counts are exact and the
/// transposes are pure data movement. The transpose entries cover the
/// column-linearization layouts of the two dominant element widths: the
/// gathers the full mask, the scatters every mask whose selected and
/// unselected planes are both column-major (one plane pointer per
/// column). Other layouts and widths stay on the callers' generic strided
/// loops.
struct KernelTable {
  /// Accumulates `n` elements of `width` bytes into per-column byte-value
  /// counters: hists[column * 256 + byte_value] += occurrences.
  void (*histogram_update)(const uint8_t* data, size_t n, size_t width,
                           uint64_t* hists);
  /// out[c * n + i] = in[i * 4 + c] for all n elements, c in [0, 4).
  void (*gather_col_w4)(const uint8_t* in, size_t n, uint8_t* out);
  /// out[c * n + i] = in[i * 8 + c] for all n elements, c in [0, 8).
  void (*gather_col_w8)(const uint8_t* in, size_t n, uint8_t* out);
  /// out[i * 4 + c] = planes[c][i]: interleaves four n-byte planes, each
  /// from wherever it lives. With planes[c] = in + c * n this is the
  /// inverse of gather_col_w4.
  void (*scatter_col_w4)(const uint8_t* const* planes, size_t n,
                         uint8_t* out);
  /// out[i * 8 + c] = planes[c][i] (the width-8 scatter_col_w4).
  void (*scatter_col_w8)(const uint8_t* const* planes, size_t n,
                         uint8_t* out);
  /// Length (in [1, n]) of the run of bytes equal to data[0] at the start
  /// of data. Requires n >= 1; callers cap n to their maximum run length.
  size_t (*run_scan)(const uint8_t* data, size_t n);
  /// Move-to-front transform of data[0, n) in place against the 256-entry
  /// recency table `order` (every byte value exactly once; updated in
  /// place so callers can span multiple buffers with one table).
  void (*mtf_encode)(uint8_t* data, size_t n, uint8_t* order);
};

/// Kernel table of the active tier.
const KernelTable& Kernels();

/// Kernel table of a specific tier (parity tests benchmark tiers against
/// each other through this). Requesting a tier the host cannot execute
/// returns the highest supported table at or below it.
const KernelTable& KernelsForTier(Tier tier);

}  // namespace isobar::simd

#endif  // ISOBAR_SIMD_DISPATCH_H_
