#include "core/isobar.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compressors/registry.h"
#include "core/chunk_codec.h"
#include "core/read_plan.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/trace_export.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace isobar {
namespace {

/// One chunk's encode result, produced on a worker and consumed by the
/// (single) container writer.
struct EncodedChunk {
  Status status;
  Bytes record;
  CompressionStats stats;
  telemetry::ChunkTrace trace;
};

}  // namespace

Status ValidateCompressInput(uint64_t data_bytes, size_t width) {
  if (width == 0 || width > 64) {
    return Status::InvalidArgument("element width must be in [1, 64]");
  }
  if (data_bytes % width != 0) {
    return Status::InvalidArgument(
        "data size is not a multiple of the element width");
  }
  return Status::OK();
}

IsobarCompressor::IsobarCompressor(CompressOptions options)
    : options_(std::move(options)) {}

Result<Bytes> IsobarCompressor::Compress(ByteSpan data, size_t width) const {
  CompressionStats stats;
  return Compress(data, width, &stats);
}

Result<Bytes> IsobarCompressor::Compress(ByteSpan data, size_t width,
                                         CompressionStats* stats) const {
  if (stats == nullptr) return Status::InvalidArgument("stats must not be null");
  ISOBAR_RETURN_NOT_OK(ValidateCompressInput(data.size(), width));
  ISOBAR_RETURN_NOT_OK(ValidateAnalyzerOptions(options_.analyzer));
  if (options_.chunk_elements == 0) {
    return Status::InvalidArgument("chunk_elements must be > 0");
  }
  if (options_.container_version < container::kVersionV1 ||
      options_.container_version > container::kVersion) {
    return Status::InvalidArgument("unsupported container_version");
  }

  *stats = CompressionStats{};
  stats->input_bytes = data.size();
  telemetry::ScopedSpan compress_span("compress");
  static telemetry::Counter& compress_calls =
      telemetry::GetCounter("pipeline.compress_calls");
  static telemetry::Counter& compress_input =
      telemetry::GetCounter("pipeline.compress_input_bytes");
  static telemetry::Counter& compress_output =
      telemetry::GetCounter("pipeline.compress_output_bytes");
  compress_calls.Increment();
  compress_input.Add(data.size());
  Stopwatch total_timer;

  const Analyzer analyzer(options_.analyzer);
  // --- EUPA phase: pick the (solver × linearization) pipeline once per
  // dataset from a training sample (§II.C), probing the analyzer verdict
  // on the first sample_elements elements.
  const uint64_t probe_elements = std::min<uint64_t>(
      data.size() / width,
      std::max<uint64_t>(options_.eupa.sample_elements, 1));
  ISOBAR_ASSIGN_OR_RETURN(
      const uint64_t trace_id,
      RunEupaPhase(options_, data, data.subspan(0, probe_elements * width),
                   width, stats));
  const EupaDecision decision = stats->decision;

  ISOBAR_ASSIGN_OR_RETURN(const Codec* codec, GetCodec(decision.codec));

  // --- Chunked pipeline (Alg. 1 applied per chunk, §II.D).
  const Chunker chunker(data, width, options_.chunk_elements);
  Bytes out;
  out.reserve(data.size() / 2 + container::kHeaderSize);

  container::Header header;
  header.version = options_.container_version;
  header.width = static_cast<uint8_t>(width);
  header.codec = decision.codec;
  header.linearization = decision.linearization;
  header.preference = options_.eupa.preference;
  // Safe cast: ValidateAnalyzerOptions bounded tau to a finite [1, 256].
  header.tau_centi = static_cast<uint16_t>(options_.analyzer.tau * 100.0 + 0.5);
  header.element_count = data.size() / width;
  header.chunk_elements = options_.chunk_elements;
  header.chunk_count = chunker.chunk_count();
  container::AppendHeader(header, &out);
  const size_t header_bytes = out.size();
  const Linearization raw_linearization =
      container::RawSectionLinearization(header.version);

  // Container offset of each chunk record as it is appended; v2 builds
  // its index footer from these after the pipeline drains.
  std::vector<size_t> record_offsets;
  record_offsets.reserve(static_cast<size_t>(chunker.chunk_count()));

  const size_t num_threads = ResolveNumThreads(options_.num_threads);
  if (num_threads <= 1 || chunker.chunk_count() <= 1) {
    ScratchArena& arena = ScratchArena::ThreadLocal();
    for (uint64_t ci = 0; ci < chunker.chunk_count(); ++ci) {
      record_offsets.push_back(out.size());
      ISOBAR_RETURN_NOT_OK(EncodeChunk(analyzer, *codec,
                                       decision.linearization,
                                       chunker.chunk(ci), width, &out, stats,
                                       trace_id, nullptr, &arena, ci,
                                       raw_linearization));
    }
  } else {
    // Fan each chunk's analyze→partition→solve out as a pool task; this
    // thread stays the single writer, appending records in chunk order.
    // The in-flight window bounds memory at O(threads) encoded chunks
    // instead of O(file).
    auto& recorder = telemetry::TraceRecorder::Global();
    const bool tracing = trace_id != 0;
    // This thread is the pipeline's in-order writer; name its timeline
    // track so writer stalls are attributable in the trace viewer.
    telemetry::Timeline::SetCurrentThreadName("writer");
    ThreadPool pool(num_threads);
    const size_t window = 2 * num_threads;
    std::deque<std::future<EncodedChunk>> in_flight;
    uint64_t next_chunk = 0;
    auto submit_next = [&] {
      const uint64_t ordinal = next_chunk++;
      const ByteSpan chunk = chunker.chunk(ordinal);
      in_flight.push_back(
          pool.Submit([&analyzer, &codec, &decision, chunk, width, trace_id,
                       tracing, ordinal, raw_linearization]() -> EncodedChunk {
            EncodedChunk encoded;
            // ThreadLocal() inside the task: each pool worker gets (and
            // keeps) its own arena across every chunk it encodes.
            encoded.status = EncodeChunk(
                analyzer, *codec, decision.linearization, chunk, width,
                &encoded.record, &encoded.stats, trace_id,
                tracing ? &encoded.trace : nullptr,
                &ScratchArena::ThreadLocal(), ordinal, raw_linearization);
            return encoded;
          }));
    };
    while (next_chunk < chunker.chunk_count() && in_flight.size() < window) {
      submit_next();
    }
    uint64_t write_index = 0;
    while (!in_flight.empty()) {
      EncodedChunk encoded;
      {
        // The in-order stall: how long the writer blocked on the oldest
        // outstanding chunk. On the timeline, back-to-back writer.wait
        // slices mean workers can't keep the window full.
        telemetry::ScopedSpan wait_span("writer.wait", trace_id,
                                        write_index + 1);
        encoded = in_flight.front().get();
      }
      in_flight.pop_front();
      if (next_chunk < chunker.chunk_count()) submit_next();
      // On error the early return destroys `pool`, which drains the
      // remaining queued tasks before the chunker and codec go away.
      ISOBAR_RETURN_NOT_OK(encoded.status);
      {
        telemetry::ScopedSpan append_span("writer.append", trace_id,
                                          write_index + 1);
        record_offsets.push_back(out.size());
        out.insert(out.end(), encoded.record.begin(), encoded.record.end());
        MergeChunkStats(encoded.stats, stats);
        if (tracing) recorder.RecordChunk(trace_id, std::move(encoded.trace));
      }
      ++write_index;
    }
    pool.PublishStats();
  }

  if (header.version >= container::kVersion) {
    // Build the chunk-index footer from the records just written; both
    // this path and the streaming writer derive entries from the final
    // byte layout, so batch and streamed containers of the same input
    // carry byte-identical footers.
    std::vector<container::IndexEntry> entries;
    entries.reserve(record_offsets.size());
    uint64_t element_offset = 0;
    for (const size_t record_offset : record_offsets) {
      ISOBAR_ASSIGN_OR_RETURN(
          container::IndexEntry entry,
          container::MakeIndexEntry(out, record_offset, element_offset));
      element_offset += entry.element_count;
      entries.push_back(entry);
    }
    container::AppendFooter(entries, header.element_count, &out);
  }

  stats->output_bytes = out.size();
  stats->total_seconds = total_timer.ElapsedSeconds();
  compress_output.Add(out.size());
  telemetry::TraceRecorder::Global().EndPipeline(trace_id, data.size(),
                                                 out.size(), header_bytes);
  return out;
}

namespace {

/// Rank of column `c` inside `mask`: how many selected columns precede it.
size_t ColumnRank(uint64_t mask, size_t c) {
  return static_cast<size_t>(
      __builtin_popcountll(mask & ((c == 0) ? 0ull : (~0ull >> (64 - c)))));
}

/// Copies the byte-planes of `record` selected by `column_mask` into `out`,
/// where plane p (the p-th requested column, ascending) starts at
/// p * stride. On failure `*lost_mask` names the requested planes left
/// unserved; they keep the zeros `out` started with.
Status ProjectColumns(const ReadPlan& plan, const PlannedRecord& record,
                      uint64_t column_mask, size_t stride, uint8_t* out,
                      DecompressionStats* stats, uint64_t* lost_mask) {
  static telemetry::Counter& planes_raw =
      telemetry::GetCounter("pipeline.column_planes_raw");
  static telemetry::Counter& planes_decoded =
      telemetry::GetCounter("pipeline.column_planes_decoded");
  const container::ChunkHeader& header = record.header;
  const size_t width = plan.header().width;
  const uint64_t full_mask = FullMask(width);
  const size_t n = static_cast<size_t>(record.element_count);
  const bool stored_raw = (header.flags & container::kChunkStoredRaw) != 0;
  const uint64_t chunk_mask = (header.flags & container::kChunkUndetermined)
                                  ? full_mask
                                  : header.compressible_mask;
  *lost_mask = column_mask;
  if ((chunk_mask & ~full_mask) != 0) {
    return Status::Corruption("container: chunk mask exceeds element width");
  }
  const uint64_t raw_mask = full_mask & ~chunk_mask;
  const size_t raw_width = static_cast<size_t>(PopcountMask(raw_mask, width));
  const size_t selected = width - raw_width;
  if (header.raw_size != n * raw_width) {
    return Status::Corruption("container: raw section size mismatch");
  }
  // Column `c` sits at rank `r` of a section of `columns` columns laid out
  // per `lin`: one memcpy column-major, a strided gather row-major.
  auto copy_plane = [&](const uint8_t* section, size_t columns, size_t r,
                        Linearization lin, size_t c) {
    uint8_t* dest =
        out + ColumnRank(column_mask, c) * stride + record.element_offset;
    if (lin == Linearization::kColumn) {
      std::memcpy(dest, section + r * n, n);
    } else {
      for (size_t i = 0; i < n; ++i) dest[i] = section[r + i * columns];
    }
  };

  // Noise planes come straight off the raw section, with no solver work.
  const uint64_t req_raw = column_mask & raw_mask;
  for (uint64_t rest = req_raw; rest != 0; rest &= rest - 1) {
    const size_t c = static_cast<size_t>(__builtin_ctzll(rest));
    copy_plane(record.raw.data(), raw_width, ColumnRank(raw_mask, c),
               container::RawSectionLinearization(plan.header().version), c);
    planes_raw.Increment();
  }
  // Solver-held planes need the packed section materialized once;
  // stored-raw chunks skip the codec and project directly.
  const uint64_t req_solver = column_mask & chunk_mask;
  *lost_mask = req_solver;
  if (req_solver == 0) return Status::OK();
  ByteSpan packed = record.compressed;
  if (!stored_raw) {
    Bytes& decoded = ScratchArena::ThreadLocal().buffer(ScratchArena::kDecoded);
    Stopwatch decode_timer;
    decoded.clear();
    const Status status =
        plan.codec().Decompress(record.compressed, n * selected, &decoded);
    stats->decode_seconds += decode_timer.ElapsedSeconds();
    ISOBAR_RETURN_NOT_OK(status);
    packed = ByteSpan(decoded);
  }
  if (packed.size() != n * selected) {
    return Status::Corruption("container: packed section size mismatch");
  }
  for (uint64_t rest = req_solver; rest != 0; rest &= rest - 1) {
    const size_t c = static_cast<size_t>(__builtin_ctzll(rest));
    copy_plane(packed.data(), selected, ColumnRank(chunk_mask, c),
               plan.header().linearization, c);
    (stored_raw ? planes_raw : planes_decoded).Increment();
  }
  *lost_mask = 0;
  return Status::OK();
}

}  // namespace

Result<Bytes> IsobarCompressor::Decompress(ByteSpan container_bytes,
                                           const DecompressOptions& options,
                                           DecompressionStats* stats) {
  telemetry::ScopedSpan decompress_span("decompress");
  static telemetry::Counter& decompress_calls =
      telemetry::GetCounter("pipeline.decompress_calls");
  static telemetry::Counter& decompress_input =
      telemetry::GetCounter("pipeline.decompress_input_bytes");
  static telemetry::Counter& decompress_output =
      telemetry::GetCounter("pipeline.decompress_output_bytes");
  decompress_calls.Increment();
  decompress_input.Add(container_bytes.size());

  DecompressionStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = DecompressionStats{};
  SalvageLedger ledger(options);
  const ChunkErrorPolicy policy = options.on_chunk_error;

  Stopwatch total_timer;
  Stopwatch parse_timer;
  ISOBAR_ASSIGN_OR_RETURN(ReadPlan plan,
                          ReadPlan::Open(container_bytes, options));
  const std::vector<PlannedRecord> records = plan.LocateAll();
  stats->parse_seconds += parse_timer.ElapsedSeconds();
  const size_t width = plan.header().width;

  // Every record owns the output slice of its element range. A counted
  // container whose tail framing is destroyed keeps its declared shape
  // under kZeroFill, so downstream readers still see a full-shape restart
  // file, holes and all.
  const uint64_t located = records.empty() ? 0 : records.back().element_end();
  const uint64_t elements = plan.tail_lost() && plan.counted() &&
                                    policy == ChunkErrorPolicy::kZeroFill
                                ? plan.header().element_count
                                : located;
  Bytes out(static_cast<size_t>(elements) * width);
  auto slice = [&](const PlannedRecord& record) {
    return MutableByteSpan(
        out.data() + static_cast<size_t>(record.element_offset) * width,
        static_cast<size_t>(record.element_count) * width);
  };

  // --- Decode pass: fan the payload work (decode → scatter → CRC) out
  // across the pool (or run it inline when serial); every record writes
  // only its own disjoint slice of `out`, which starts zeroed.
  struct ChunkOutcome {
    Status status;
    ChunkFailureStage stage = ChunkFailureStage::kHeader;
    DecompressionStats stats;
  };
  auto decode_one = [&](const PlannedRecord& record) -> ChunkOutcome {
    ChunkOutcome outcome;
    outcome.status = record.damage;
    if (outcome.status.ok()) {
      outcome.status = DecodeChunkPayload(plan, record, slice(record),
                                          &outcome.stats, &outcome.stage);
    }
    return outcome;
  };

  const size_t num_threads = ResolveNumThreads(options.num_threads);
  std::vector<std::future<ChunkOutcome>> results;
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1 && records.size() > 1) {
    pool = std::make_unique<ThreadPool>(num_threads);
    results.reserve(records.size());
    for (const PlannedRecord& record : records) {
      results.push_back(
          pool->Submit([&record, &decode_one] { return decode_one(record); }));
    }
  }

  // Consume outcomes in record order. Damaged slices are zeroed (a failed
  // decode may have partially scattered into them); under kSkip they are
  // also cut out, once, back to front, after the loop.
  std::vector<MutableByteSpan> removed;
  uint64_t removed_bytes = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const PlannedRecord& record = records[i];
    ChunkOutcome outcome =
        pool != nullptr ? results[i].get() : decode_one(record);
    const MutableByteSpan dest = slice(record);
    if (outcome.status.ok()) {
      stats->decode_seconds += outcome.stats.decode_seconds;
      stats->scatter_seconds += outcome.stats.scatter_seconds;
      stats->chunk_count += outcome.stats.chunk_count;
      ledger.Recovered(dest.size());
      continue;
    }
    // On error under kFail the early return destroys `pool` first,
    // draining outstanding tasks before `records` and `out` leave scope.
    ISOBAR_RETURN_NOT_OK(ledger.Damaged(
        record, outcome.stage, outcome.status,
        record.element_offset * width - removed_bytes, dest.size()));
    std::fill(dest.begin(), dest.end(), uint8_t{0});
    if (policy == ChunkErrorPolicy::kSkip) {
      removed.push_back(dest);
      removed_bytes += dest.size();
    }
  }
  const uint64_t located_bytes = located * width;
  ISOBAR_RETURN_NOT_OK(
      plan.tail_lost()
          ? ledger.TailLost(plan.tail(), located_bytes - removed_bytes,
                            out.size() - located_bytes)
          : ledger.Trailing(plan.trailing_bytes()));
  for (auto it = removed.rbegin(); it != removed.rend(); ++it) {
    const auto begin = out.begin() + (it->data() - out.data());
    out.erase(begin, begin + static_cast<std::ptrdiff_t>(it->size()));
  }
  if (pool != nullptr) pool->PublishStats();

  stats->input_bytes = container_bytes.size();
  stats->output_bytes = out.size();
  stats->total_seconds = total_timer.ElapsedSeconds();
  decompress_output.Add(out.size());
  return out;
}

Result<Bytes> IsobarCompressor::DecompressRange(
    ByteSpan container_bytes, uint64_t first_element, uint64_t end_element,
    const DecompressOptions& options, DecompressionStats* stats) {
  telemetry::ScopedSpan range_span("decompress.range");
  static telemetry::Counter& range_reads =
      telemetry::GetCounter("pipeline.range_reads");
  static telemetry::Counter& range_chunks =
      telemetry::GetCounter("pipeline.range_chunks_decoded");
  range_reads.Increment();

  DecompressionStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = DecompressionStats{};
  if (first_element > end_element) {
    return Status::InvalidArgument("range: first_element > end_element");
  }
  SalvageLedger ledger(options);

  Stopwatch total_timer;
  Stopwatch parse_timer;
  ISOBAR_ASSIGN_OR_RETURN(ReadPlan plan,
                          ReadPlan::Open(container_bytes, options));
  stats->parse_seconds += parse_timer.ElapsedSeconds();
  const size_t width = plan.header().width;
  if (plan.counted() && end_element > plan.header().element_count) {
    return Status::InvalidArgument(
        "range: end_element past the container's element count");
  }
  uint64_t out_bytes = 0;
  if (!container::CheckedMul64(end_element - first_element, width,
                               &out_bytes) ||
      out_bytes > std::numeric_limits<size_t>::max()) {
    return Status::InvalidArgument("range: output size overflows");
  }
  Bytes out(static_cast<size_t>(out_bytes), 0);
  stats->input_bytes = container_bytes.size();

  // --- Only the records covering [first, end) are located — by index
  // entry when the footer is valid, by the walk otherwise — and decoded.
  // A record fully inside the range decodes straight into its output
  // slice; boundary records decode into scratch and copy the intersection.
  Bytes scratch;
  PlannedRecord record;
  uint64_t covered = first_element;
  for (uint64_t i = plan.RecordCovering(first_element); covered < end_element;
       ++i) {
    Stopwatch locate_timer;
    const bool located = plan.Locate(i, &record);
    stats->parse_seconds += locate_timer.ElapsedSeconds();
    if (!located) break;
    const uint64_t begin = std::max(first_element, record.element_offset);
    const uint64_t end = std::min(end_element, record.element_end());
    if (begin >= end) continue;
    covered = end;
    const size_t out_offset =
        static_cast<size_t>(begin - first_element) * width;
    const size_t bytes = static_cast<size_t>(end - begin) * width;
    ChunkFailureStage stage = ChunkFailureStage::kHeader;
    Status status = record.damage;
    if (status.ok()) {
      const bool whole = begin == record.element_offset &&
                         end == record.element_end();
      if (!whole) scratch.resize(record.element_count * width);
      status = DecodeChunkPayload(
          plan, record,
          whole ? MutableByteSpan(out.data() + out_offset, bytes)
                : MutableByteSpan(scratch),
          stats, &stage);
      if (status.ok()) {
        range_chunks.Increment();
        if (!whole) {
          std::memcpy(out.data() + out_offset,
                      scratch.data() + (begin - record.element_offset) * width,
                      bytes);
        }
        ledger.Recovered(bytes);
        continue;
      }
    }
    // Both salvage policies zero-fill here: dropping the slice would shift
    // the range's element addressing.
    ISOBAR_RETURN_NOT_OK(
        ledger.Damaged(record, stage, status, out_offset, bytes));
    std::fill(out.begin() + out_offset, out.begin() + out_offset + bytes,
              uint8_t{0});
  }
  if (covered < end_element) {
    if (!plan.tail_lost()) {
      return Status::InvalidArgument(
          "range: end_element past the container's element count");
    }
    // The walk died before covering the range; the uncovered rest stays
    // zeroed and is billed to the framing failure.
    ISOBAR_RETURN_NOT_OK(
        ledger.TailLost(plan.tail(), (covered - first_element) * width,
                        (end_element - covered) * width));
  }

  stats->output_bytes = out.size();
  stats->total_seconds = total_timer.ElapsedSeconds();
  return out;
}

Result<Bytes> IsobarCompressor::DecompressColumns(
    ByteSpan container_bytes, uint64_t column_mask,
    const DecompressOptions& options, DecompressionStats* stats) {
  telemetry::ScopedSpan columns_span("decompress.columns");
  static telemetry::Counter& column_reads =
      telemetry::GetCounter("pipeline.column_reads");
  column_reads.Increment();

  DecompressionStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = DecompressionStats{};
  SalvageLedger ledger(options);

  Stopwatch total_timer;
  Stopwatch parse_timer;
  ISOBAR_ASSIGN_OR_RETURN(ReadPlan plan,
                          ReadPlan::Open(container_bytes, options));
  const size_t width = plan.header().width;
  if (column_mask == 0) {
    return Status::InvalidArgument("columns: empty column mask");
  }
  if ((column_mask & ~FullMask(width)) != 0) {
    return Status::InvalidArgument(
        "columns: mask has bits beyond the element width");
  }
  // Every chunk holds a slice of every column, so every record is located.
  const std::vector<PlannedRecord> records = plan.LocateAll();
  stats->parse_seconds += parse_timer.ElapsedSeconds();
  const uint64_t located = records.empty() ? 0 : records.back().element_end();
  // Planes keep a counted container's declared length, so a lost tail
  // leaves holes instead of shifting planes.
  const uint64_t total =
      plan.counted() ? plan.header().element_count : located;
  const size_t requested =
      static_cast<size_t>(PopcountMask(column_mask, width));
  uint64_t out_bytes = 0;
  if (!container::CheckedMul64(total, requested, &out_bytes) ||
      out_bytes > std::numeric_limits<size_t>::max()) {
    return Status::Corruption("columns: output size overflows");
  }
  Bytes out(static_cast<size_t>(out_bytes), 0);
  stats->input_bytes = container_bytes.size();

  // Damage is contained per record and per section: a failed solver
  // decode loses only the solver-held planes; raw planes still serve.
  for (const PlannedRecord& record : records) {
    ChunkFailureStage stage = ChunkFailureStage::kHeader;
    uint64_t lost_mask = column_mask;
    Status status = record.damage;
    if (status.ok()) {
      stage = ChunkFailureStage::kPayload;
      status = AnnotateChunkError(
          ProjectColumns(plan, record, column_mask,
                         static_cast<size_t>(total), out.data(), stats,
                         &lost_mask),
          record.index, record.byte_offset);
    }
    const uint64_t n = record.element_count;
    const uint64_t served = n * static_cast<uint64_t>(PopcountMask(
                                    column_mask & ~lost_mask, width));
    if (status.ok()) {
      ++stats->chunk_count;
      ledger.Recovered(served);
      continue;
    }
    ISOBAR_RETURN_NOT_OK(ledger.Damaged(
        record, stage, status, record.element_offset,
        n * static_cast<uint64_t>(PopcountMask(lost_mask, width))));
    ledger.Recovered(served, /*chunks=*/0);
  }
  ISOBAR_RETURN_NOT_OK(
      plan.tail_lost()
          ? ledger.TailLost(plan.tail(), located, (total - located) * requested)
          : ledger.Trailing(plan.trailing_bytes()));

  stats->output_bytes = out.size();
  stats->total_seconds = total_timer.ElapsedSeconds();
  return out;
}

}  // namespace isobar
