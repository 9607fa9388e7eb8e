#include "core/partitioner.h"

#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace isobar {

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

  telemetry::ScopedSpan span("chunk.partition");

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

Status MergePartition(const Partition& partition, Bytes* out) {
  const size_t width = partition.width;
  if (width == 0 || width > 64) {
    return Status::InvalidArgument("partition has invalid width");
  }
  const uint64_t full_mask = FullMask(width);
  out->assign(partition.element_count * width, 0);
  MutableByteSpan dest(*out);
  ISOBAR_RETURN_NOT_OK(ScatterColumns(partition.compressible, width,
                                      partition.compressible_mask,
                                      partition.linearization, dest));
  ISOBAR_RETURN_NOT_OK(ScatterColumns(partition.incompressible, width,
                                      full_mask & ~partition.compressible_mask,
                                      Linearization::kRow, dest));
  return Status::OK();
}

}  // namespace isobar
