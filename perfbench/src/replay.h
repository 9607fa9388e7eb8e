#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>

#include "common.h"
#include "core/eupa_selector.h"
#include "trace.h"

// Serial replays of the library's read and write paths, built from the
// same public layer functions the library calls, in the same order, with
// a span around each call. A replay's output must be byte-identical to
// the library call it mirrors; the benchmark checks that, so the per-layer
// times it reports describe the real path and not a look-alike.

namespace perfbench {

struct CompressReplay {
  Bytes container;
  isobar::EupaDecision decision;
  uint64_t chunks = 0;
  uint64_t stored_raw_chunks = 0;
  uint64_t solver_input_bytes = 0;  ///< Bytes handed to Codec::Compress.
};

/// Mirrors IsobarCompressor::Compress with default options on one thread:
/// probe Analyze + EupaSelector::Select, then per chunk Analyze,
/// crc32c::Value, PartitionDataInto or GatherColumns, Codec::Compress and
/// AppendChunkHeader, then MakeIndexEntry and AppendFooter.
isobar::Result<CompressReplay> ReplayCompress(ByteSpan data, size_t width,
                                              Tracer* tracer);

/// Mirrors IsobarCompressor::Decompress: ParseHeader, ParseFooter and the
/// ParseChunkHeader walk, then per chunk Codec::Decompress, ScatterColumns
/// and crc32c::Extend.
isobar::Result<Bytes> ReplayDecompress(ByteSpan container, Tracer* tracer);

/// Mirrors DecompressRange over the chunks covering [first, end).
/// `*decoded_bytes` accumulates the bytes reconstructed to serve it.
isobar::Result<Bytes> ReplayRange(ByteSpan container, uint64_t first,
                                  uint64_t end, Tracer* tracer,
                                  uint64_t* decoded_bytes);

/// Mirrors DecompressColumns: every chunk is decoded and the requested
/// byte-planes gathered out. `*decoded_bytes` accumulates the bytes the
/// library's column path reconstructs (solver section when a requested
/// plane is solver-held, plus the requested raw planes).
isobar::Result<Bytes> ReplayColumns(ByteSpan container, uint64_t column_mask,
                                    Tracer* tracer, uint64_t* decoded_bytes);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
