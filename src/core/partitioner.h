#ifndef ISOBAR_CORE_PARTITIONER_H_
#define ISOBAR_CORE_PARTITIONER_H_

#include <cstdint>

#include "linearize/transpose.h"
#include "util/bytes.h"
#include "util/status.h"

namespace isobar {

/// The two byte streams produced by the ISOBAR-partitioner (§II.B, Fig. 5):
/// the compressible byte-columns (headed for the solver, laid out in the
/// EUPA-chosen linearization) and the incompressible noise bytes (stored
/// verbatim).
struct Partition {
  size_t width = 0;
  uint64_t element_count = 0;

  /// Bit j set ⇔ column j went into `compressible`.
  uint64_t compressible_mask = 0;

  /// Linearization of the compressible stream.
  Linearization linearization = Linearization::kRow;

  /// Selected (signal) bytes: element_count * popcount(mask) bytes.
  Bytes compressible;

  /// Unselected (noise) bytes, always row-linearized: element_count *
  /// (width - popcount(mask)) bytes.
  Bytes incompressible;
};

/// Splits `data` (elements of `width` bytes) into the two partition streams
/// according to `compressible_mask`. The mask may be anything, including
/// all-ones (everything to the solver) or zero (everything raw); the
/// undetermined-vs-improvable policy decision lives in the caller (Alg. 1).
Status PartitionData(ByteSpan data, size_t width, uint64_t compressible_mask,
                     Linearization linearization, Partition* out);

/// Core of PartitionData writing into caller-owned buffers: the chunk
/// pipeline passes ScratchArena slots here so the two streams reuse their
/// steady-state allocations instead of growing a fresh Partition per
/// chunk. Both buffers are overwritten (resized) in full.
/// `raw_linearization` controls the layout of the incompressible stream:
/// container v1 interleaves the noise bytes element-major (kRow), v2
/// stores each noise byte-plane contiguously (kColumn) so column readers
/// can serve a raw plane with one memcpy.
Status PartitionDataInto(ByteSpan data, size_t width,
                         uint64_t compressible_mask,
                         Linearization linearization, Bytes* compressible,
                         Bytes* incompressible,
                         Linearization raw_linearization = Linearization::kRow);

/// Inverse of PartitionDataInto, writing into a caller-owned buffer:
/// interleaves the two streams back into `dest`, which holds N whole
/// elements, in the original element-major byte order. Both section sizes
/// are checked against N and the mask before any byte is read. When both
/// sections are column-major and the width is 4 or 8, each destination
/// row is written once, its byte-planes read from whichever section holds
/// them; other layouts and widths scatter one section, then the other.
Status MergePartitionInto(ByteSpan compressible, ByteSpan incompressible,
                          size_t width, uint64_t compressible_mask,
                          Linearization linearization,
                          Linearization raw_linearization,
                          MutableByteSpan dest);

/// Inverse of PartitionData: interleaves the two streams back into the
/// original element-major byte order. This is the paper's "merger" acting
/// on one chunk.
Status MergePartition(const Partition& partition, Bytes* out);

}  // namespace isobar

#endif  // ISOBAR_CORE_PARTITIONER_H_
