#ifndef ISOBAR_SIMD_KERNELS_H_
#define ISOBAR_SIMD_KERNELS_H_

/// Internal per-tier kernel entry points behind simd/dispatch.h. Only the
/// dispatch tables reference these; everything else goes through
/// simd::Kernels().

#include <cstddef>
#include <cstdint>

namespace isobar::simd::internal {

// --- Histogram accumulation (histogram_kernels.cc). All variants produce
// bit-identical counts; they differ only in how the accumulator dependency
// chains are broken.
void HistogramUpdateScalar(const uint8_t* data, size_t n, size_t width,
                           uint64_t* hists);
void HistogramUpdateBlocked(const uint8_t* data, size_t n, size_t width,
                            uint64_t* hists);

// --- Byte-run and move-to-front scans (scan_kernels.cc). The codec side's
// hot loops: RLE/zero-RLE run detection and the BWT MTF rank lookup.
size_t RunScanScalar(const uint8_t* data, size_t n);
void MtfEncodeScalar(uint8_t* data, size_t n, uint8_t* order);

// --- Column-linearization transposes (transpose_kernels.cc). Gathers
// read one element-major buffer; scatters read one plane pointer per
// column, so the planes may come from different sections.
void GatherColW4Scalar(const uint8_t* in, size_t n, uint8_t* out);
void GatherColW8Scalar(const uint8_t* in, size_t n, uint8_t* out);
void ScatterColW4Scalar(const uint8_t* const* planes, size_t n, uint8_t* out);
void ScatterColW8Scalar(const uint8_t* const* planes, size_t n, uint8_t* out);

#if defined(__x86_64__) || defined(__i386__)
size_t RunScanSse(const uint8_t* data, size_t n);
size_t RunScanAvx2(const uint8_t* data, size_t n);
void MtfEncodeSse(uint8_t* data, size_t n, uint8_t* order);
void MtfEncodeAvx2(uint8_t* data, size_t n, uint8_t* order);
void GatherColW4Sse(const uint8_t* in, size_t n, uint8_t* out);
void GatherColW8Sse(const uint8_t* in, size_t n, uint8_t* out);
void ScatterColW4Sse(const uint8_t* const* planes, size_t n, uint8_t* out);
void ScatterColW8Sse(const uint8_t* const* planes, size_t n, uint8_t* out);
void GatherColW4Avx2(const uint8_t* in, size_t n, uint8_t* out);
void GatherColW8Avx2(const uint8_t* in, size_t n, uint8_t* out);
#endif  // x86

}  // namespace isobar::simd::internal

#endif  // ISOBAR_SIMD_KERNELS_H_
