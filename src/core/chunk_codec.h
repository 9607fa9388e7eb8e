#ifndef ISOBAR_CORE_CHUNK_CODEC_H_
#define ISOBAR_CORE_CHUNK_CODEC_H_

#include "compressors/codec.h"
#include "core/analyzer.h"
#include "core/container.h"
#include "core/isobar.h"
#include "core/read_plan.h"
#include "linearize/transpose.h"
#include "telemetry/trace_export.h"
#include "util/bytes.h"
#include "util/scratch_arena.h"
#include "util/status.h"

namespace isobar {

/// Shared per-chunk pipeline of Alg. 1, used by both the batch
/// IsobarCompressor and the streaming writer/reader.

/// The EUPA phase both writers run once per pipeline (§II.C). Applies the
/// ISOBAR_FORCE_CODEC hook (explicit caller overrides win); unless codec
/// and linearization are both forced, analyzes `probe` (a prefix of
/// `training`) for the compressible mask and runs EupaSelector::Select on
/// `training`. Empty training data falls back to the forced or default
/// pipeline. Sets stats->decision, adds the probe + Select wall time to
/// stats->eupa_seconds, and opens the pipeline trace with the candidate
/// evidence; returns its id (0 when tracing is off).
Result<uint64_t> RunEupaPhase(const CompressOptions& options,
                              ByteSpan training, ByteSpan probe, size_t width,
                              CompressionStats* stats);

/// Analyzes, partitions, and solver-compresses one chunk, appending its
/// container record ([chunk header][solver bytes][raw noise bytes]) to
/// `*out`. Timing and verdict fields of `*stats` are accumulated (may be
/// null). When `trace_pipeline_id` is nonzero and tracing is on, a
/// telemetry::ChunkTrace record (verdict, partition map, stage timings,
/// byte accounting) is appended to that pipeline's trace — unless
/// `trace_out` is non-null, in which case the record is written there
/// instead of into the global recorder. Parallel pipelines use the
/// out-param so a single writer can stitch worker-produced traces back
/// into chunk order. When `arena` is non-null its slots back the gather /
/// raw / compressed temporaries, so a worker encoding many chunks reuses
/// the same steady-state allocations instead of reallocating per chunk.
/// `chunk_ordinal` is the chunk's 0-based position in its pipeline, used
/// only to tag the chunk's timeline events (so a trace viewer can follow
/// one chunk across workers); it does not affect the encoding.
/// `raw_linearization` is the container-version-dependent layout of the
/// record's raw (incompressible) section — kRow for v1, kColumn for v2
/// (see container::RawSectionLinearization); encoder and decoder must
/// agree on it for a given record.
Status EncodeChunk(const Analyzer& analyzer, const Codec& codec,
                   Linearization linearization, ByteSpan chunk, size_t width,
                   Bytes* out, CompressionStats* stats,
                   uint64_t trace_pipeline_id = 0,
                   telemetry::ChunkTrace* trace_out = nullptr,
                   ScratchArena* arena = nullptr, uint64_t chunk_ordinal = 0,
                   Linearization raw_linearization = Linearization::kRow);

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
/// the thread's ScratchArena), scatter of both sections, and — when the
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
