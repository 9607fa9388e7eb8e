#ifndef ISOBAR_CORE_CHUNK_CODEC_H_
#define ISOBAR_CORE_CHUNK_CODEC_H_

#include <optional>

#include "compressors/codec.h"
#include "core/analyzer.h"
#include "core/container.h"
#include "core/isobar.h"
#include "core/read_plan.h"
#include "linearize/transpose.h"
#include "util/bytes.h"
#include "util/status.h"

namespace isobar {

/// Shared per-chunk pipeline of Alg. 1, used by the container writer
/// (IsobarStreamWriter, which also serves IsobarCompressor::Compress) and
/// by every reader.

/// A pipeline's first chunk, analyzed and solver-compressed by its EUPA
/// phase: the analyzer verdict and the decided codec's output on the
/// chunk's gathered bytes, which EncodeChunk takes for chunk 0 instead of
/// running Analyze and the solver again.
struct PresolvedChunk {
  AnalysisResult analysis;
  Bytes compressed;
};

/// The container writer's EUPA phase, run once per pipeline (§II.C).
/// Applies the ISOBAR_FORCE_CODEC hook (explicit caller overrides win);
/// unless codec and linearization are both forced, analyzes `probe` (a
/// prefix of `training`) for the compressible mask and runs
/// EupaSelector::Select on `training`. Empty training data falls back to
/// the forced or default pipeline. Sets stats->decision, with the
/// candidate evidence, and adds the probe + Select wall time to
/// stats->eupa_seconds.
///
/// When `training`, `probe` and `first_chunk` (the pipeline's first
/// chunk) are one span of at most sample_elements elements, EUPA's
/// training sample is that chunk, so the probe's verdict and the winning
/// trial are the chunk's own analysis and solver pass: Select hands the
/// trial back and *presolved keeps both. Otherwise *presolved is reset.
Status RunEupaPhase(const CompressOptions& options, ByteSpan training,
                    ByteSpan probe, ByteSpan first_chunk, size_t width,
                    CompressionStats* stats,
                    std::optional<PresolvedChunk>* presolved);

/// The constants of one compress pipeline, fixed by its EUPA phase and
/// shared by every chunk it encodes.
struct ChunkPipeline {
  Analyzer analyzer;
  const Codec* codec = nullptr;
  Linearization linearization = Linearization::kRow;
  /// Layout of each record's raw (incompressible) section: kRow for v1,
  /// kColumn for v2 (see container::RawSectionLinearization). Encoder and
  /// decoder must agree on it for a given record.
  Linearization raw_linearization = Linearization::kRow;
  size_t width = 0;
  /// Process-wide pipeline sequence number (1, 2, ... in start order);
  /// tags the pipeline's Timeline slices.
  uint64_t pipeline_id = 0;
  /// Chunk 0's encode, when the EUPA phase already did it (RunEupaPhase).
  std::optional<PresolvedChunk> presolved;
};

/// Analyzes, partitions, and solver-compresses one chunk through
/// `pipeline`, appending its container record ([chunk header][solver
/// bytes][raw noise bytes]) to `*out`. Timing and verdict fields of
/// `*stats` are accumulated (may be null). The thread's ScratchArena
/// backs the gather / raw / compressed temporaries, so a worker encoding
/// many chunks reuses the same steady-state allocations instead of
/// reallocating per chunk. `chunk_ordinal` is the chunk's 0-based
/// position in its pipeline. It tags the chunk's timeline events with
/// `{pipeline.pipeline_id, chunk_ordinal}` (so a trace viewer can follow
/// one chunk across workers), and chunk 0 takes `pipeline.presolved`
/// when set: its verdict and solver output stand in for Analyze and the
/// solver (counted by `eupa.trials_reused`), while the partition, CRC,
/// stored-raw check and framing run as for any chunk, so the record's
/// bytes are the same either way.
Status EncodeChunk(const ChunkPipeline& pipeline, ByteSpan chunk, Bytes* out,
                   CompressionStats* stats, uint64_t chunk_ordinal = 0);

/// Prefixes a failed `status` with the failing record's position —
/// "chunk 17 (container offset 123456): ..." — so corruption reports name
/// the record to inspect on storage. OK statuses pass through untouched.
Status AnnotateChunkError(const Status& status, uint64_t chunk_index,
                          uint64_t byte_offset);

/// Folds a stats contribution covering `chunk.chunk_count` chunks into a
/// pipeline total, in chunk order. mean_htc_fraction merges weighted by
/// chunk count; for single-chunk contributions the arithmetic reduces to
/// the same incremental running-mean update EncodeChunk applies in place,
/// so totals merged from per-worker stats are bit-identical to the serial
/// path's for every thread count.
void MergeChunkStats(const CompressionStats& chunk, CompressionStats* total);

/// Reverses one intact record of `plan` into `dest`, which must be
/// exactly `record.element_count * width` bytes: solver decode (backed by
/// the thread's ScratchArena), the merge of both sections
/// (MergePartitionInto), and — when the
/// plan's options ask for it — CRC-32C verification. Decode/scatter timing
/// fields of `*stats` are accumulated (may be null). Writes only through
/// `dest`, so independent records can be decoded concurrently into
/// disjoint regions of one output buffer. On failure `dest` may hold
/// partially scattered bytes (salvage callers re-zero it), the error names
/// the record's position, and `*failed_stage` (when non-null) reports
/// whether the payload or its checksum was rejected.
Status DecodeChunkPayload(const ReadPlan& plan, const PlannedRecord& record,
                          MutableByteSpan dest,
                          DecompressionStats* stats = nullptr,
                          ChunkFailureStage* failed_stage = nullptr);

}  // namespace isobar

#endif  // ISOBAR_CORE_CHUNK_CODEC_H_
