#include "core/partitioner.h"

#include <string>

#include "simd/dispatch.h"
#include "telemetry/metrics.h"

namespace isobar {
namespace {

Status CheckSectionSize(ByteSpan section, size_t n, size_t columns) {
  if (section.size() == n * columns) return Status::OK();
  return Status::InvalidArgument(
      "packed size " + std::to_string(section.size()) + " != " +
      std::to_string(n * columns) + " (N * selected columns)");
}

}  // namespace

Status PartitionDataInto(ByteSpan data, size_t width,
                         uint64_t compressible_mask,
                         Linearization linearization, Bytes* compressible,
                         Bytes* incompressible,
                         Linearization raw_linearization) {
  if (width == 0 || width > 64) {
    return Status::InvalidArgument("element width must be in [1, 64]");
  }
  if (data.size() % width != 0) {
    return Status::InvalidArgument("data size is not a multiple of width");
  }
  const uint64_t full_mask = FullMask(width);
  if ((compressible_mask & ~full_mask) != 0) {
    return Status::InvalidArgument("mask has bits beyond element width");
  }

  ISOBAR_RETURN_NOT_OK(GatherColumns(data, width, compressible_mask,
                                     linearization, compressible));
  // Noise bytes are never entropy coded; their layout is a container
  // format decision the caller passes down (v1 row order for a cheap
  // interleaving merge, v2 column order for memcpy-served byte-planes).
  ISOBAR_RETURN_NOT_OK(GatherColumns(data, width,
                                     full_mask & ~compressible_mask,
                                     raw_linearization, incompressible));

  static telemetry::Counter& calls = telemetry::GetCounter("partitioner.calls");
  static telemetry::Counter& compressible_bytes =
      telemetry::GetCounter("partitioner.compressible_bytes");
  static telemetry::Counter& incompressible_bytes =
      telemetry::GetCounter("partitioner.incompressible_bytes");
  calls.Increment();
  compressible_bytes.Add(compressible->size());
  incompressible_bytes.Add(incompressible->size());
  return Status::OK();
}

Status PartitionData(ByteSpan data, size_t width, uint64_t compressible_mask,
                     Linearization linearization, Partition* out) {
  // Validate (via the Into form) before deriving element_count: a zero
  // width must be rejected, not divided by.
  ISOBAR_RETURN_NOT_OK(PartitionDataInto(data, width, compressible_mask,
                                         linearization, &out->compressible,
                                         &out->incompressible));
  out->width = width;
  out->element_count = data.size() / width;
  out->compressible_mask = compressible_mask;
  out->linearization = linearization;
  return Status::OK();
}

Status MergePartitionInto(ByteSpan compressible, ByteSpan incompressible,
                          size_t width, uint64_t compressible_mask,
                          Linearization linearization,
                          Linearization raw_linearization,
                          MutableByteSpan dest) {
  if (width == 0 || width > 64) {
    return Status::InvalidArgument("element width must be in [1, 64]");
  }
  const uint64_t full_mask = FullMask(width);
  if ((compressible_mask & ~full_mask) != 0) {
    return Status::InvalidArgument("mask has bits beyond element width");
  }
  if (dest.size() % width != 0) {
    return Status::InvalidArgument("dest size is not a multiple of width");
  }
  const size_t n = dest.size() / width;
  const size_t selected =
      static_cast<size_t>(PopcountMask(compressible_mask, width));
  ISOBAR_RETURN_NOT_OK(CheckSectionSize(compressible, n, selected));
  ISOBAR_RETURN_NOT_OK(CheckSectionSize(incompressible, n, width - selected));
  if (n == 0) return Status::OK();

  if ((width == 4 || width == 8) && linearization == Linearization::kColumn &&
      raw_linearization == Linearization::kColumn) {
    // Column c is the next plane of whichever section holds it.
    const uint8_t* planes[8];
    const uint8_t* next_selected = compressible.data();
    const uint8_t* next_raw = incompressible.data();
    for (size_t c = 0; c < width; ++c) {
      const uint8_t*& next =
          (compressible_mask >> c) & 1 ? next_selected : next_raw;
      planes[c] = next;
      next += n;
    }
    const simd::KernelTable& kernels = simd::Kernels();
    (width == 4 ? kernels.scatter_col_w4 : kernels.scatter_col_w8)(
        planes, n, dest.data());
    return Status::OK();
  }
  ISOBAR_RETURN_NOT_OK(ScatterColumns(compressible, width, compressible_mask,
                                      linearization, dest));
  return ScatterColumns(incompressible, width, full_mask & ~compressible_mask,
                        raw_linearization, dest);
}

Status MergePartition(const Partition& partition, Bytes* out) {
  const size_t width = partition.width;
  if (width == 0 || width > 64) {
    return Status::InvalidArgument("partition has invalid width");
  }
  out->assign(partition.element_count * width, 0);
  return MergePartitionInto(partition.compressible, partition.incompressible,
                            width, partition.compressible_mask,
                            partition.linearization, Linearization::kRow,
                            MutableByteSpan(*out));
}

}  // namespace isobar
