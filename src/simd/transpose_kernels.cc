#include "simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace isobar::simd::internal {
namespace {

// Shared scalar tails: the vector kernels hand the last (< block) rows
// here, and the scalar tier uses them for the whole range.
inline void GatherColTail(const uint8_t* in, size_t width, size_t n,
                          size_t first_row, uint8_t* out) {
  for (size_t c = 0; c < width; ++c) {
    const uint8_t* p = in + first_row * width + c;
    uint8_t* dst = out + c * n + first_row;
    for (size_t i = first_row; i < n; ++i, p += width) *dst++ = *p;
  }
}

inline void ScatterColTail(const uint8_t* const* planes, size_t width,
                           size_t n, size_t first_row, uint8_t* out) {
  for (size_t c = 0; c < width; ++c) {
    const uint8_t* p = planes[c] + first_row;
    uint8_t* dst = out + first_row * width + c;
    for (size_t i = first_row; i < n; ++i, dst += width) *dst = *p++;
  }
}

}  // namespace

void GatherColW4Scalar(const uint8_t* in, size_t n, uint8_t* out) {
  GatherColTail(in, 4, n, 0, out);
}

void GatherColW8Scalar(const uint8_t* in, size_t n, uint8_t* out) {
  GatherColTail(in, 8, n, 0, out);
}

void ScatterColW4Scalar(const uint8_t* const* planes, size_t n,
                        uint8_t* out) {
  ScatterColTail(planes, 4, n, 0, out);
}

void ScatterColW8Scalar(const uint8_t* const* planes, size_t n,
                        uint8_t* out) {
  ScatterColTail(planes, 8, n, 0, out);
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

// 8x8 byte-block transpose core: x0..x3 hold 8 rows of 8 bytes (two rows
// per register, contiguous loads). Produces w0..w3 where wk =
// [column 2k (8B) | column 2k+1 (8B)] across those 8 rows.
#define ISOBAR_TRANSPOSE8X8(x0, x1, x2, x3, w0, w1, w2, w3)      \
  do {                                                           \
    const __m128i u0_ = _mm_unpacklo_epi8(x0, x1); /* rows 0,2 */ \
    const __m128i u1_ = _mm_unpackhi_epi8(x0, x1); /* rows 1,3 */ \
    const __m128i u2_ = _mm_unpacklo_epi8(x2, x3); /* rows 4,6 */ \
    const __m128i u3_ = _mm_unpackhi_epi8(x2, x3); /* rows 5,7 */ \
    const __m128i v0_ = _mm_unpacklo_epi8(u0_, u1_);             \
    const __m128i v1_ = _mm_unpackhi_epi8(u0_, u1_);             \
    const __m128i v2_ = _mm_unpacklo_epi8(u2_, u3_);             \
    const __m128i v3_ = _mm_unpackhi_epi8(u2_, u3_);             \
    w0 = _mm_unpacklo_epi32(v0_, v2_); /* cols 0,1 */            \
    w1 = _mm_unpackhi_epi32(v0_, v2_); /* cols 2,3 */            \
    w2 = _mm_unpacklo_epi32(v1_, v3_); /* cols 4,5 */            \
    w3 = _mm_unpackhi_epi32(v1_, v3_); /* cols 6,7 */            \
  } while (0)

}  // namespace

// Width 8, N x 8 -> 8 x N: 16 rows per iteration, full 16-byte column
// stores assembled from two 8x8 block transposes.
__attribute__((target("sse4.2"))) void GatherColW8Sse(const uint8_t* in,
                                                      size_t n,
                                                      uint8_t* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8_t* p = in + i * 8;
    const __m128i x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i x1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    const __m128i x2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
    const __m128i x3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
    const __m128i y0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 64));
    const __m128i y1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 80));
    const __m128i y2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 96));
    const __m128i y3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 112));
    __m128i w0, w1, w2, w3, v0, v1, v2, v3;
    ISOBAR_TRANSPOSE8X8(x0, x1, x2, x3, w0, w1, w2, w3);  // rows 0-7
    ISOBAR_TRANSPOSE8X8(y0, y1, y2, y3, v0, v1, v2, v3);  // rows 8-15
    const __m128i* wv[4][2] = {{&w0, &v0}, {&w1, &v1}, {&w2, &v2}, {&w3, &v3}};
    for (size_t k = 0; k < 4; ++k) {
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(out + (2 * k) * n + i),
          _mm_unpacklo_epi64(*wv[k][0], *wv[k][1]));
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(out + (2 * k + 1) * n + i),
          _mm_unpackhi_epi64(*wv[k][0], *wv[k][1]));
    }
  }
  GatherColTail(in, 8, n, i, out);
}

// Width 4, N x 4 -> 4 x N: pshufb groups each register's four rows into
// per-column dwords, then two unpack stages assemble 16-row column stores.
__attribute__((target("sse4.2"))) void GatherColW4Sse(const uint8_t* in,
                                                      size_t n,
                                                      uint8_t* out) {
  const __m128i mask = _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13,  //
                                     2, 6, 10, 14, 3, 7, 11, 15);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8_t* p = in + i * 4;
    const __m128i s0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), mask);
    const __m128i s1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)), mask);
    const __m128i s2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)), mask);
    const __m128i s3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)), mask);
    const __m128i t0 = _mm_unpacklo_epi32(s0, s1);  // cols 0,1 rows 0-7
    const __m128i t1 = _mm_unpackhi_epi32(s0, s1);  // cols 2,3 rows 0-7
    const __m128i t2 = _mm_unpacklo_epi32(s2, s3);  // cols 0,1 rows 8-15
    const __m128i t3 = _mm_unpackhi_epi32(s2, s3);  // cols 2,3 rows 8-15
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 0 * n + i),
                     _mm_unpacklo_epi64(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 1 * n + i),
                     _mm_unpackhi_epi64(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * n + i),
                     _mm_unpacklo_epi64(t1, t3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 3 * n + i),
                     _mm_unpackhi_epi64(t1, t3));
  }
  GatherColTail(in, 4, n, i, out);
}

// Width 8 inverse, 8 x N -> N x 8: 16 rows per iteration, contiguous
// 128-byte row stores assembled from the 8 column registers.
__attribute__((target("sse4.2"))) void ScatterColW8Sse(
    const uint8_t* const* planes, size_t n, uint8_t* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i c[8];
    for (size_t k = 0; k < 8; ++k) {
      c[k] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(planes[k] + i));
    }
    const __m128i u0 = _mm_unpacklo_epi8(c[0], c[1]);  // rows 0-7, cols 0,1
    const __m128i u1 = _mm_unpackhi_epi8(c[0], c[1]);  // rows 8-15
    const __m128i u2 = _mm_unpacklo_epi8(c[2], c[3]);
    const __m128i u3 = _mm_unpackhi_epi8(c[2], c[3]);
    const __m128i u4 = _mm_unpacklo_epi8(c[4], c[5]);
    const __m128i u5 = _mm_unpackhi_epi8(c[4], c[5]);
    const __m128i u6 = _mm_unpacklo_epi8(c[6], c[7]);
    const __m128i u7 = _mm_unpackhi_epi8(c[6], c[7]);
    const __m128i v0 = _mm_unpacklo_epi16(u0, u2);  // rows 0-3, cols 0-3
    const __m128i v1 = _mm_unpackhi_epi16(u0, u2);  // rows 4-7
    const __m128i v2 = _mm_unpacklo_epi16(u1, u3);  // rows 8-11
    const __m128i v3 = _mm_unpackhi_epi16(u1, u3);  // rows 12-15
    const __m128i w0 = _mm_unpacklo_epi16(u4, u6);  // rows 0-3, cols 4-7
    const __m128i w1 = _mm_unpackhi_epi16(u4, u6);
    const __m128i w2 = _mm_unpacklo_epi16(u5, u7);
    const __m128i w3 = _mm_unpackhi_epi16(u5, u7);
    uint8_t* dst = out + i * 8;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm_unpacklo_epi32(v0, w0));  // rows 0,1
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                     _mm_unpackhi_epi32(v0, w0));  // rows 2,3
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32),
                     _mm_unpacklo_epi32(v1, w1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48),
                     _mm_unpackhi_epi32(v1, w1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 64),
                     _mm_unpacklo_epi32(v2, w2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 80),
                     _mm_unpackhi_epi32(v2, w2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 96),
                     _mm_unpacklo_epi32(v3, w3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 112),
                     _mm_unpackhi_epi32(v3, w3));
  }
  ScatterColTail(planes, 8, n, i, out);
}

// Width 4 inverse, 4 x N -> N x 4: 16 rows per iteration.
__attribute__((target("sse4.2"))) void ScatterColW4Sse(
    const uint8_t* const* planes, size_t n, uint8_t* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i c0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(planes[0] + i));
    const __m128i c1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(planes[1] + i));
    const __m128i c2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(planes[2] + i));
    const __m128i c3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(planes[3] + i));
    const __m128i u0 = _mm_unpacklo_epi8(c0, c1);  // rows 0-7, cols 0,1
    const __m128i u1 = _mm_unpackhi_epi8(c0, c1);  // rows 8-15
    const __m128i u2 = _mm_unpacklo_epi8(c2, c3);
    const __m128i u3 = _mm_unpackhi_epi8(c2, c3);
    uint8_t* dst = out + i * 4;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm_unpacklo_epi16(u0, u2));  // rows 0-3
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                     _mm_unpackhi_epi16(u0, u2));  // rows 4-7
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32),
                     _mm_unpacklo_epi16(u1, u3));  // rows 8-11
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48),
                     _mm_unpackhi_epi16(u1, u3));  // rows 12-15
  }
  ScatterColTail(planes, 4, n, i, out);
}

// Width 8, AVX2: 32 rows per iteration. The two 128-bit lanes carry rows
// [i, i+16) and [i+16, i+32) through the same unpack network, and the
// final 64-bit unpack emits each column as one contiguous 32-byte store.
__attribute__((target("avx2"))) void GatherColW8Avx2(const uint8_t* in,
                                                     size_t n, uint8_t* out) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const uint8_t* p = in + i * 8;
    __m256i x[4], y[4];
    for (size_t k = 0; k < 4; ++k) {
      // Lane 0: rows 2k,2k+1; lane 1: rows 16+2k,16+2k+1.
      x[k] = _mm256_set_m128i(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(p + 128 + 16 * k)),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * k)));
      // Lane 0: rows 8+2k,8+2k+1; lane 1: rows 24+2k,24+2k+1.
      y[k] = _mm256_set_m128i(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(p + 192 + 16 * k)),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 64 + 16 * k)));
    }
    __m256i w[4], v[4];
    {
      const __m256i u0 = _mm256_unpacklo_epi8(x[0], x[1]);
      const __m256i u1 = _mm256_unpackhi_epi8(x[0], x[1]);
      const __m256i u2 = _mm256_unpacklo_epi8(x[2], x[3]);
      const __m256i u3 = _mm256_unpackhi_epi8(x[2], x[3]);
      const __m256i v0 = _mm256_unpacklo_epi8(u0, u1);
      const __m256i v1 = _mm256_unpackhi_epi8(u0, u1);
      const __m256i v2 = _mm256_unpacklo_epi8(u2, u3);
      const __m256i v3 = _mm256_unpackhi_epi8(u2, u3);
      w[0] = _mm256_unpacklo_epi32(v0, v2);
      w[1] = _mm256_unpackhi_epi32(v0, v2);
      w[2] = _mm256_unpacklo_epi32(v1, v3);
      w[3] = _mm256_unpackhi_epi32(v1, v3);
    }
    {
      const __m256i u0 = _mm256_unpacklo_epi8(y[0], y[1]);
      const __m256i u1 = _mm256_unpackhi_epi8(y[0], y[1]);
      const __m256i u2 = _mm256_unpacklo_epi8(y[2], y[3]);
      const __m256i u3 = _mm256_unpackhi_epi8(y[2], y[3]);
      const __m256i v0 = _mm256_unpacklo_epi8(u0, u1);
      const __m256i v1 = _mm256_unpackhi_epi8(u0, u1);
      const __m256i v2 = _mm256_unpacklo_epi8(u2, u3);
      const __m256i v3 = _mm256_unpackhi_epi8(u2, u3);
      v[0] = _mm256_unpacklo_epi32(v0, v2);
      v[1] = _mm256_unpackhi_epi32(v0, v2);
      v[2] = _mm256_unpacklo_epi32(v1, v3);
      v[3] = _mm256_unpackhi_epi32(v1, v3);
    }
    for (size_t k = 0; k < 4; ++k) {
      // w[k] lanes: [col 2k|2k+1, rows 0-7 | rows 16-23];
      // v[k] lanes: [rows 8-15 | rows 24-31].
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + (2 * k) * n + i),
                          _mm256_unpacklo_epi64(w[k], v[k]));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + (2 * k + 1) * n + i),
          _mm256_unpackhi_epi64(w[k], v[k]));
    }
  }
  GatherColTail(in, 8, n, i, out);
}

// Width 4, AVX2: 32 rows per iteration via in-lane pshufb, a cross-lane
// dword permute, and 64-bit unpacks + 128-bit permutes to form whole
// 32-byte column stores.
__attribute__((target("avx2"))) void GatherColW4Avx2(const uint8_t* in,
                                                     size_t n, uint8_t* out) {
  const __m256i mask = _mm256_setr_epi8(
      0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,  //
      0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const uint8_t* p = in + i * 4;
    __m256i q[4];
    for (size_t k = 0; k < 4; ++k) {
      const __m256i x = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(p + 32 * k));  // rows 8k..8k+7
      // After pshufb each lane holds per-column dwords of its 4 rows;
      // the permute regroups them as [col0 8B, col1 8B, col2 8B, col3 8B].
      q[k] = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(x, mask), perm);
    }
    const __m256i z0 = _mm256_unpacklo_epi64(q[0], q[1]);  // cols 0 | 2
    const __m256i z1 = _mm256_unpackhi_epi64(q[0], q[1]);  // cols 1 | 3
    const __m256i z2 = _mm256_unpacklo_epi64(q[2], q[3]);
    const __m256i z3 = _mm256_unpackhi_epi64(q[2], q[3]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 0 * n + i),
                        _mm256_permute2x128_si256(z0, z2, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 1 * n + i),
                        _mm256_permute2x128_si256(z1, z3, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 2 * n + i),
                        _mm256_permute2x128_si256(z0, z2, 0x31));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 3 * n + i),
                        _mm256_permute2x128_si256(z1, z3, 0x31));
  }
  GatherColTail(in, 4, n, i, out);
}

#undef ISOBAR_TRANSPOSE8X8

#endif  // x86

}  // namespace isobar::simd::internal
