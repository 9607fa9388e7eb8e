#ifndef ISOBAR_LINEARIZE_TRANSPOSE_H_
#define ISOBAR_LINEARIZE_TRANSPOSE_H_

#include <cstdint>
#include <string_view>

#include "util/bytes.h"
#include "util/status.h"

namespace isobar {

/// Byte-level linearization strategy applied to the bytes handed to the
/// solver (§II.B-C of the paper).
///
/// kRow keeps the selected bytes of each element adjacent (element-major);
/// kColumn lays each selected byte-column out contiguously (column-major,
/// the "shuffle" layout). Which one compresses better is data dependent,
/// which is exactly why the EUPA-selector measures both.
enum class Linearization : uint8_t {
  kRow = 0,
  kColumn = 1,
};

std::string_view LinearizationToString(Linearization lin);

/// Number of selected columns in a mask restricted to `width` columns.
int PopcountMask(uint64_t column_mask, size_t width);

/// The mask selecting all `width` columns of an element (width in [1, 64]).
inline uint64_t FullMask(size_t width) {
  return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

/// Gathers the bytes of the columns selected by `column_mask` (bit j =
/// column j) from `data` (elements of `width` bytes) into `*out`, laid out
/// according to `lin`. The output holds N * popcount(mask) bytes.
Status GatherColumns(ByteSpan data, size_t width, uint64_t column_mask,
                     Linearization lin, Bytes* out);

/// Inverse of GatherColumns: writes the packed bytes back into the selected
/// column positions of `dest` (which must hold N full elements; bytes of
/// unselected columns are left untouched).
Status ScatterColumns(ByteSpan packed, size_t width, uint64_t column_mask,
                      Linearization lin, MutableByteSpan dest);

}  // namespace isobar

#endif  // ISOBAR_LINEARIZE_TRANSPOSE_H_
