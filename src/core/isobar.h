#ifndef ISOBAR_CORE_ISOBAR_H_
#define ISOBAR_CORE_ISOBAR_H_

#include <cstdint>
#include <vector>

#include "core/analyzer.h"
#include "core/chunker.h"
#include "core/container.h"
#include "core/eupa_selector.h"
#include "telemetry/timeline.h"
#include "util/bytes.h"
#include "util/status.h"

namespace isobar {

/// Options of the full ISOBAR-compress pipeline (Fig. 2).
struct CompressOptions {
  AnalyzerOptions analyzer;
  EupaOptions eupa;

  /// Elements per chunk (§II.D). The default follows the paper's Fig. 8
  /// finding that ratios settle at ~375k doubles (≈3 MB).
  uint64_t chunk_elements = kDefaultChunkElements;

  /// Worker threads for the chunk pipeline. 0 resolves to
  /// std::thread::hardware_concurrency() (or the ISOBAR_TEST_THREADS
  /// environment variable — the CI hook that forces multi-threaded runs
  /// under TSan); 1 takes the serial path. The container produced is
  /// byte-identical for every thread count: chunks are encoded
  /// independently and assembled in chunk order.
  uint32_t num_threads = 0;

  /// Container format version to emit. Version 2 (the default) appends a
  /// chunk-index footer enabling range/column-addressable reads and
  /// stores raw byte-planes contiguously; version 1 reproduces the legacy
  /// footer-less layout for compatibility tests and old readers.
  uint16_t container_version = container::kVersion;
};

/// Instrumentation of one Compress() run; everything the paper's tables
/// report about the compression side can be derived from these fields.
struct CompressionStats {
  EupaDecision decision;

  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;
  uint64_t chunk_count = 0;
  uint64_t improvable_chunks = 0;

  /// True when at least one chunk was identified as improvable; the
  /// dataset-level "Improvable?" verdict of Table IV.
  bool improvable = false;

  /// Mean fraction of hard-to-compress bytes per element across chunks
  /// ("HTC Bytes (%)" of Table IV, as a fraction).
  double mean_htc_fraction = 0.0;

  /// Wall-clock decomposition of the pipeline (seconds). eupa_seconds is
  /// paid once, serially, before any chunk work; the other stage fields
  /// are summed over chunks. With num_threads > 1 chunks run concurrently,
  /// so the stage sum is aggregate worker time and may exceed
  /// total_seconds (wall clock) by up to the thread count.
  double eupa_seconds = 0.0;       ///< EUPA phase: probe analysis + Select.
  /// Per-chunk ISOBAR-analyzer. A chunk 0 that took EUPA's winning trial
  /// (eupa.trials_reused) reuses the probe's verdict: its analysis time
  /// is in eupa_seconds, and it adds only an empty span here.
  double analysis_seconds = 0.0;
  double partition_seconds = 0.0;  ///< Gather/linearize.
  /// Solver time. A chunk 0 that took EUPA's winning trial runs no solver
  /// call: its solver pass is the trial, timed in eupa_seconds.
  double codec_seconds = 0.0;
  double total_seconds = 0.0;

  /// CR, Eq. 1.
  double ratio() const {
    return output_bytes == 0 ? 0.0
                             : static_cast<double>(input_bytes) /
                                   static_cast<double>(output_bytes);
  }
  /// End-to-end compression throughput, MB/s (MB = 1e6 bytes).
  double compression_mbps() const {
    return total_seconds <= 0.0
               ? 0.0
               : static_cast<double>(input_bytes) / 1e6 / total_seconds;
  }
  /// Throughput of the analysis stage alone (TP_A of Table V).
  double analysis_mbps() const {
    return analysis_seconds <= 0.0
               ? 0.0
               : static_cast<double>(input_bytes) / 1e6 / analysis_seconds;
  }
};

/// What the decoder does when one chunk record fails to parse, decode, or
/// verify. Chunk records are self-delimiting and independently CRC'd, so
/// damage that leaves a record's framing intact can be contained to that
/// record — the rest of a multi-GB checkpoint is still recoverable.
enum class ChunkErrorPolicy : uint8_t {
  kFail = 0,      ///< Abort on the first bad chunk (default; historical behaviour).
  kSkip = 1,      ///< Omit the chunk's elements from the output and continue.
  kZeroFill = 2,  ///< Emit zero bytes in place of the chunk's elements.
};

/// Stage of the per-chunk decode pipeline that rejected a record.
enum class ChunkFailureStage : uint8_t {
  kHeader = 0,    ///< Chunk header unparseable or inconsistent with the container header.
  kPayload = 1,   ///< Section geometry or solver decode failure.
  kChecksum = 2,  ///< Reconstructed bytes fail the stored CRC-32C.
};

/// One damaged chunk as seen by a salvage-mode decode.
struct ChunkSalvageRecord {
  uint64_t chunk_index = 0;   ///< Position of the record in the container.
  uint64_t byte_offset = 0;   ///< Container offset of the record's chunk header.
  uint64_t element_count = 0; ///< Elements the record covers, from its index entry or the full-chunk rule (never a damaged header's claim).
  uint64_t output_offset = 0; ///< First output byte the chunk covers (post-salvage layout).
  uint64_t lost_bytes = 0;    ///< Output bytes skipped or zero-filled for this chunk.
  ChunkFailureStage stage = ChunkFailureStage::kHeader;
  ChunkErrorPolicy action = ChunkErrorPolicy::kFail;  ///< Policy applied.
  Status error;               ///< The underlying failure, with chunk context.
};

/// Outcome of a salvage-mode decode: per-chunk verdicts plus byte-range
/// accounting, enough for a restart pipeline to decide whether the holes
/// are tolerable and to localize the damage on storage.
struct SalvageReport {
  uint64_t chunks_total = 0;        ///< Chunk records seen (intact + damaged).
  uint64_t chunks_recovered = 0;    ///< Decoded and CRC-verified.
  uint64_t chunks_skipped = 0;      ///< Dropped under kSkip.
  uint64_t chunks_zero_filled = 0;  ///< Replaced with zeros under kZeroFill.
  uint64_t bytes_recovered = 0;     ///< Output bytes from intact chunks.
  uint64_t bytes_lost = 0;          ///< Output bytes skipped or zero-filled.
  /// True when record framing was destroyed (a chunk header no longer
  /// parses or its section sizes run past the container): everything from
  /// that point on is unrecoverable without per-record resync markers.
  bool truncated_tail = false;
  /// Trailing bytes after the last counted chunk (counted containers only).
  uint64_t trailing_bytes = 0;
  std::vector<ChunkSalvageRecord> damaged;

  /// Flight recorder: the most recent cross-thread timeline events at the
  /// moment damage was established (bounded window, newest last), so a
  /// post-mortem of a corrupted decode ships its own trace — export with
  /// telemetry::FlightRecorderToJson. Empty unless the Timeline was
  /// enabled during the run.
  std::vector<telemetry::TimelineEventSnapshot> flight_recorder;

  /// True when every chunk decoded cleanly — the salvage run saw exactly
  /// what a kFail run would have accepted.
  bool clean() const { return damaged.empty() && !truncated_tail && trailing_bytes == 0; }
};

struct DecompressOptions {
  /// Verify each chunk's CRC-32C against the reconstructed bytes.
  bool verify_checksums = true;

  /// Worker threads for chunk decode (same resolution rules as
  /// CompressOptions::num_threads). Chunk records are parsed serially,
  /// then decoded concurrently into disjoint regions of the output.
  uint32_t num_threads = 0;

  /// Per-chunk error policy. Under kSkip/kZeroFill, Decompress returns OK
  /// with the damaged chunks elided or zeroed (see SalvageReport for what
  /// was lost); only container-header damage still fails the whole call.
  /// A damaged chunk's extent comes from its index entry or, without a
  /// footer, from the rule that every chunk but the last is full — never
  /// from its own header — so damage neither resizes the output nor
  /// shifts intact chunks, and every reader reaches the same verdict
  /// (docs/FORMAT.md, "Reading: one plan, one verdict").
  ChunkErrorPolicy on_chunk_error = ChunkErrorPolicy::kFail;

  /// When non-null, filled with the per-chunk salvage outcome of the run
  /// (also populated under kFail, where the first damaged chunk aborts).
  SalvageReport* salvage_report = nullptr;
};

struct DecompressionStats {
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;
  uint64_t chunk_count = 0;

  /// Wall-clock decomposition of the decompression pipeline (seconds),
  /// mirroring the compression side's analysis/partition/codec split.
  /// As with CompressionStats, the per-stage sum is aggregate worker time
  /// under num_threads > 1 and may exceed total_seconds.
  double parse_seconds = 0.0;    ///< Container and chunk header parsing.
  double decode_seconds = 0.0;   ///< Solver decode of the packed section.
  double scatter_seconds = 0.0;  ///< Scatter-merge + checksum verification.
  double total_seconds = 0.0;

  /// Decompression throughput in output MB/s (the paper's TP_D).
  double decompression_mbps() const {
    return total_seconds <= 0.0
               ? 0.0
               : static_cast<double>(output_bytes) / 1e6 / total_seconds;
  }
};

/// Validates the shape of a compress request — width in [1, 64] and
/// `data_bytes` a whole number of elements — without touching the data.
/// Shared by the batch entry point below and by the isobard server, which
/// rejects malformed requests before they are admitted to the job queue;
/// keeping one validator guarantees a request the server accepts is a
/// request the library accepts.
Status ValidateCompressInput(uint64_t data_bytes, size_t width);

/// The ISOBAR-compress preconditioner pipeline (Alg. 1):
///
///   analyze → (undetermined ? whole-chunk solve
///                           : partition → solve signal, store noise) → merge
///
/// Compress() produces a self-describing container (Fig. 7);
/// Decompress() needs nothing but that container.
class IsobarCompressor {
 public:
  explicit IsobarCompressor(CompressOptions options = {});

  const CompressOptions& options() const { return options_; }

  /// Compresses `data` interpreted as elements of `width` bytes
  /// (width in [1, 64]; data.size() must be a multiple of width). Runs on
  /// the one container writer, IsobarStreamWriter, with the whole input in
  /// hand: the header carries counted totals, EUPA trains on all of `data`
  /// and probes the analyzer on its first sample_elements elements, and
  /// chunks are encoded straight from `data`, never copied.
  Result<Bytes> Compress(ByteSpan data, size_t width) const;

  /// As above, also filling `*stats` (must not be null).
  Result<Bytes> Compress(ByteSpan data, size_t width,
                         CompressionStats* stats) const;

  /// Reverses Compress(). Static: the container is self-describing.
  static Result<Bytes> Decompress(ByteSpan container_bytes,
                                  const DecompressOptions& options = {},
                                  DecompressionStats* stats = nullptr);

  /// Decodes only elements [first_element, end_element) — the returned
  /// buffer is (end - first) * width bytes. On a v2 container the chunk
  /// index identifies the covering records directly; v1 containers (and
  /// v2 containers whose footer is damaged, under a salvage policy) fall
  /// back to a sequential chunk-header walk that stops once the range is
  /// covered. Only covering chunks are payload-decoded. A damaged chunk
  /// fails only the ranges it covers: under kFail the call errors, while
  /// both salvage policies zero-fill the damaged chunk's intersection
  /// with the range (skip-compaction would shift the range's element
  /// addressing, so kSkip behaves like kZeroFill here) and document it in
  /// the SalvageReport, whose output_offset fields are relative to the
  /// range's first byte.
  static Result<Bytes> DecompressRange(ByteSpan container_bytes,
                                       uint64_t first_element,
                                       uint64_t end_element,
                                       const DecompressOptions& options = {},
                                       DecompressionStats* stats = nullptr);

  /// Materializes only the byte-columns set in `column_mask` (bit j =
  /// column j, as in the analyzer's compressible mask). The returned
  /// buffer holds the requested byte-planes concatenated in ascending
  /// column order, each element_count bytes long. Planes the partitioner
  /// stored raw are served straight from the container — on a v2
  /// container with one memcpy per chunk and no solver call; solver-held
  /// planes decode their chunk's packed section once and project the
  /// requested columns out of it. Per-chunk CRCs cover the full
  /// reconstructed chunk, so column reads cannot verify them;
  /// options.verify_checksums is ignored here. Damage is contained per
  /// chunk and per section: a failed solver decode zero-fills only the
  /// solver-held planes of that chunk (raw planes still serve), and the
  /// SalvageReport records output_offset as the chunk's first element.
  static Result<Bytes> DecompressColumns(ByteSpan container_bytes,
                                         uint64_t column_mask,
                                         const DecompressOptions& options = {},
                                         DecompressionStats* stats = nullptr);

 private:
  CompressOptions options_;
};

}  // namespace isobar

#endif  // ISOBAR_CORE_ISOBAR_H_
