#include "linearize/transpose.h"

#include <array>
#include <cstring>

#include "simd/dispatch.h"

namespace isobar {
namespace {

// Expands a mask into the list of selected column indices.
Status SelectedColumns(uint64_t mask, size_t width,
                       std::array<uint8_t, 64>* columns, size_t* count) {
  if (width == 0 || width > 64) {
    return Status::InvalidArgument("element width must be in [1, 64]");
  }
  if (width < 64 && (mask >> width) != 0) {
    return Status::InvalidArgument("column mask has bits beyond element width");
  }
  *count = 0;
  for (size_t j = 0; j < width; ++j) {
    if (mask & (1ull << j)) (*columns)[(*count)++] = static_cast<uint8_t>(j);
  }
  return Status::OK();
}

}  // namespace

std::string_view LinearizationToString(Linearization lin) {
  switch (lin) {
    case Linearization::kRow:
      return "row";
    case Linearization::kColumn:
      return "column";
  }
  return "unknown";
}

int PopcountMask(uint64_t column_mask, size_t width) {
  if (width < 64) column_mask &= (1ull << width) - 1;
  return __builtin_popcountll(column_mask);
}

Status GatherColumns(ByteSpan data, size_t width, uint64_t column_mask,
                     Linearization lin, Bytes* out) {
  std::array<uint8_t, 64> columns;
  size_t k = 0;
  ISOBAR_RETURN_NOT_OK(SelectedColumns(column_mask, width, &columns, &k));
  if (data.size() % width != 0) {
    return Status::InvalidArgument("data size is not a multiple of width");
  }
  const size_t n = data.size() / width;
  if (k == 0 || n == 0) {
    out->clear();
    return Status::OK();
  }
  const bool full_mask = (k == width);
  if (full_mask && lin == Linearization::kRow) {
    // Full-mask row order is the identity layout. assign() copies in a
    // single pass and, unlike resize-then-write, never value-initializes.
    out->assign(data.begin(), data.end());
    return Status::OK();
  }
  // resize() value-initializes any growth even though every byte below is
  // overwritten; C++ offers no standard way around that for std::vector.
  // Reused buffers (ScratchArena) reach steady-state capacity after the
  // first chunk, after which this is a pure size update — the zero-fill
  // is a warm-up cost, not a per-chunk one.
  out->resize(n * k);

  const uint8_t* src = data.data();
  uint8_t* dst = out->data();
  if (full_mask && lin == Linearization::kColumn) {
    const simd::KernelTable& kernels = simd::Kernels();
    if (width == 4) {
      kernels.gather_col_w4(src, n, dst);
      return Status::OK();
    }
    if (width == 8) {
      kernels.gather_col_w8(src, n, dst);
      return Status::OK();
    }
  }
  if (lin == Linearization::kRow) {
    for (size_t i = 0; i < n; ++i, src += width) {
      for (size_t c = 0; c < k; ++c) *dst++ = src[columns[c]];
    }
  } else {
    for (size_t c = 0; c < k; ++c) {
      const uint8_t* p = src + columns[c];
      for (size_t i = 0; i < n; ++i, p += width) *dst++ = *p;
    }
  }
  return Status::OK();
}

Status ScatterColumns(ByteSpan packed, size_t width, uint64_t column_mask,
                      Linearization lin, MutableByteSpan dest) {
  std::array<uint8_t, 64> columns;
  size_t k = 0;
  ISOBAR_RETURN_NOT_OK(SelectedColumns(column_mask, width, &columns, &k));
  if (dest.size() % width != 0) {
    return Status::InvalidArgument("dest size is not a multiple of width");
  }
  const size_t n = dest.size() / width;
  if (packed.size() != n * k) {
    return Status::InvalidArgument(
        "packed size " + std::to_string(packed.size()) + " != " +
        std::to_string(n * k) + " (N * selected columns)");
  }
  if (k == 0 || n == 0) return Status::OK();

  const uint8_t* src = packed.data();
  uint8_t* dst = dest.data();
  const bool full_mask = (k == width);
  if (full_mask && lin == Linearization::kRow) {
    std::memcpy(dst, src, packed.size());
    return Status::OK();
  }
  if (full_mask && lin == Linearization::kColumn &&
      (width == 4 || width == 8)) {
    const uint8_t* planes[8];
    for (size_t c = 0; c < width; ++c) planes[c] = src + c * n;
    const simd::KernelTable& kernels = simd::Kernels();
    (width == 4 ? kernels.scatter_col_w4 : kernels.scatter_col_w8)(planes, n,
                                                                    dst);
    return Status::OK();
  }
  if (lin == Linearization::kRow) {
    for (size_t i = 0; i < n; ++i, dst += width) {
      for (size_t c = 0; c < k; ++c) dst[columns[c]] = *src++;
    }
  } else {
    for (size_t c = 0; c < k; ++c) {
      uint8_t* p = dst + columns[c];
      for (size_t i = 0; i < n; ++i, p += width) *p = *src++;
    }
  }
  return Status::OK();
}

}  // namespace isobar
