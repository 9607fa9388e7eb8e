#ifndef ISOBAR_CORE_STREAM_H_
#define ISOBAR_CORE_STREAM_H_

#include <deque>
#include <future>
#include <memory>

#include "compressors/codec.h"
#include "core/container.h"
#include "core/isobar.h"
#include "core/read_plan.h"
#include "io/sink.h"
#include "telemetry/trace_export.h"
#include "util/bytes.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace isobar {

/// Incremental (in-situ) ISOBAR compression: elements are appended as the
/// producing simulation emits them, full chunks are analyzed, partitioned,
/// solver-compressed, and pushed to a ByteSink immediately — nothing is
/// buffered beyond one chunk (§II.D's pipelining, without a whole-dataset
/// staging buffer).
///
/// Because the element total is unknown until Finish(), the emitted
/// container carries the kUnknownCount sentinel in its header; such
/// containers are read by IsobarStreamReader or by
/// IsobarCompressor::Decompress, which consume chunks to the end of the
/// stream. The EUPA decision is made once, on the first full chunk (or on
/// the tail data at Finish() for sub-chunk streams), mirroring the batch
/// compressor's training-sample phase.
///
/// With CompressOptions::num_threads resolving above 1, the writer runs a
/// pipelined producer/consumer: Append() hands full chunks to a work pool
/// and returns while they encode, and completed records are written to the
/// sink in chunk order as the (bounded) in-flight window fills — so the
/// emitted container is byte-identical to the serial writer's. At most
/// 2 x threads chunks are in flight; the writer is not itself thread-safe
/// (one producer thread drives Append/Finish).
class IsobarStreamWriter {
 public:
  /// `sink` must outlive the writer.
  IsobarStreamWriter(CompressOptions options, size_t width, ByteSink* sink);

  IsobarStreamWriter(const IsobarStreamWriter&) = delete;
  IsobarStreamWriter& operator=(const IsobarStreamWriter&) = delete;

  /// Appends raw element bytes; any size is accepted (partial elements
  /// are buffered until completed by later appends). Full chunks are
  /// compressed and written out as they accumulate.
  Status Append(ByteSpan data);

  /// Flushes the final (possibly short) chunk and completes the stream.
  /// Appending after Finish() fails. Idempotent on success.
  Status Finish();

  bool finished() const { return finished_; }

  /// Pipeline instrumentation accumulated so far (decision valid once the
  /// first chunk — or Finish() — forced it).
  const CompressionStats& stats() const { return stats_; }

  /// Telemetry pipeline-trace id of this stream (0 when tracing was off
  /// at pipeline start).
  uint64_t trace_id() const { return trace_id_; }

 private:
  /// One chunk's encode result, produced on a pool worker and written to
  /// the sink by the producer thread in FIFO (= chunk) order.
  struct EncodedRecord {
    Status status;
    Bytes record;
    CompressionStats stats;
    telemetry::ChunkTrace trace;
  };

  Status EnsurePipeline(ByteSpan training_data);
  /// Appends `record`'s index entry (v2 containers) before it is sunk.
  Status IndexRecord(ByteSpan record);
  Status EmitChunk(ByteSpan chunk);
  /// Waits for the oldest in-flight chunk and writes it out.
  Status DrainOne();
  /// Latches the first emit/drain failure: once a record has been dropped
  /// the container has a hole, so every later Append/Finish must keep
  /// failing instead of silently writing the chunks that followed it.
  Status Poison(Status status);

  CompressOptions options_;
  size_t width_;
  ByteSink* sink_;
  Status init_status_;
  Status error_status_;

  // v2 chunk-index footer under construction: one entry per record retired
  // to the sink, appended by Finish(). Derived from the same record bytes
  // the batch compressor indexes, so batch and streamed containers of the
  // same input carry byte-identical footers.
  std::vector<container::IndexEntry> index_entries_;
  uint64_t elements_indexed_ = 0;

  Bytes pending_;
  bool header_written_ = false;
  bool finished_ = false;
  const Codec* codec_ = nullptr;
  EupaDecision decision_;
  CompressionStats stats_;
  uint64_t trace_id_ = 0;
  uint64_t header_bytes_ = 0;
  // Chunk ordinals for timeline tagging: chunks submitted to the pipeline
  // and chunks retired to the sink (the writer side of the same stream).
  uint64_t chunks_emitted_ = 0;
  uint64_t chunks_drained_ = 0;

  // Pipelined path (num_threads_ > 1). pool_ is declared last so its
  // destructor drains outstanding tasks while the members they reference
  // are still alive.
  size_t num_threads_ = 1;
  std::deque<std::future<EncodedRecord>> in_flight_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Chunk-at-a-time reader for both batch and streamed ISOBAR containers.
/// Peak memory is one chunk instead of the whole dataset — the restart
/// side of the in-situ pipeline.
class IsobarStreamReader {
 public:
  /// `container_bytes` must stay alive while the reader is used.
  explicit IsobarStreamReader(ByteSpan container_bytes,
                              DecompressOptions options = {});

  /// Parses and validates the container header and (v2) its index
  /// footer. Must be called (and succeed) before NextChunk().
  Status Init();

  /// Header fields; valid after Init().
  const container::Header& header() const { return plan_.header(); }

  /// Appends the next chunk's reconstructed elements to `*chunk`
  /// (replacing its contents). Returns false when the container is
  /// exhausted (after validating totals and trailing bytes).
  Result<bool> NextChunk(Bytes* chunk);

  /// Advances past the next chunk without decompressing it (its header is
  /// parsed, its payload skipped). Returns false when the container is
  /// exhausted. Chunk records are self-delimiting, so seeking to the
  /// n-th checkpoint of a long campaign costs O(n) header reads, not
  /// O(n) decompressions. The header is checked against its index entry
  /// (or, without a footer, the rule that every chunk but the last is
  /// full), and the running element total advances by the record's
  /// trusted extent, so a corrupt skipped record cannot poison the
  /// end-of-stream accounting.
  Result<bool> SkipChunk();

  /// Positions the reader so the next NextChunk()/SkipChunk() call sees
  /// chunk `n` (n == chunk count seeks to end-of-stream). On a v2
  /// container with a valid index footer this is O(1): offset and element
  /// accounting come straight from the index, and records seeked over are
  /// not inspected (they do not enter the salvage report). Without an
  /// index the reader rewinds (when seeking backwards) and SkipChunk()s
  /// forward, sharing its per-record validation and salvage accounting —
  /// after a backward rewind the salvage report restarts from the
  /// beginning of the stream so records are not double-counted. Seeking
  /// past the last chunk is InvalidArgument when the chunk count is
  /// known (and detected at the stream's end otherwise).
  Status SeekToChunk(uint64_t n);

  /// True when Init() found (and validated) a v2 chunk-index footer:
  /// SeekToChunk is O(1) and header() carries the footer's adopted totals.
  bool has_chunk_index() const { return plan_.indexed(); }

  /// Chunks consumed so far (decoded, skipped, or salvaged).
  uint64_t chunks_read() const { return chunks_read_; }

  /// Elements consumed (or accounted, for skipped/seeked records) so far.
  uint64_t elements_read() const { return elements_read_; }

  /// Per-chunk salvage outcome accumulated so far. Under kSkip or
  /// kZeroFill NextChunk absorbs a damaged record — advancing past it
  /// (kSkip) or returning its zero-filled shape (kZeroFill) — and a
  /// record whose framing is destroyed ends the stream with
  /// truncated_tail set instead of an error. Under kFail the report names
  /// the record whose error the reader returned.
  const SalvageReport& salvage_report() const { return report_; }

 private:
  /// Consumes the next record: decoded into `*chunk`, or only validated
  /// when `chunk` is null. False once the container is exhausted.
  Result<bool> Advance(Bytes* chunk);

  ByteSpan container_;
  DecompressOptions options_;
  ReadPlan plan_;
  bool initialized_ = false;
  uint64_t chunks_read_ = 0;
  uint64_t elements_read_ = 0;
  SalvageReport report_;
  bool at_end_ = false;
  Status end_status_;  ///< Verdict on the container's end, once reached.
};

}  // namespace isobar

#endif  // ISOBAR_CORE_STREAM_H_
