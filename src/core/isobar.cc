#include "core/isobar.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/chunk_codec.h"
#include "core/read_plan.h"
#include "core/stream.h"
#include "io/sink.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/scratch_arena.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace isobar {

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
  ISOBAR_RETURN_NOT_OK(IsobarStreamWriter::ValidateOptions(options_, width));

  static const telemetry::SpanSite compress_site("compress");
  telemetry::ScopedSpan compress_span(compress_site);
  static telemetry::Counter& compress_calls =
      telemetry::GetCounter("pipeline.compress_calls");
  static telemetry::Counter& compress_input =
      telemetry::GetCounter("pipeline.compress_input_bytes");
  static telemetry::Counter& compress_output =
      telemetry::GetCounter("pipeline.compress_output_bytes");
  compress_calls.Increment();
  compress_input.Add(data.size());

  // The container writer's whole-input entry: counted header, the whole
  // input as EUPA's training window, chunks borrowed from `data`.
  Bytes out;
  out.reserve(data.size() / 2 + container::kHeaderSize);
  MemorySink sink(&out);
  IsobarStreamWriter writer(options_, width, &sink);
  const Status status = writer.WriteAll(data);
  *stats = writer.stats();
  ISOBAR_RETURN_NOT_OK(status);
  stats->total_seconds = compress_span.End();
  compress_output.Add(out.size());
  return out;
}

namespace {

/// Reader outputs at least this large get the huge-page hint. glibc's
/// dynamic mmap threshold never grows past 32 MiB on 64-bit hosts, so an
/// output this size is its own fresh mapping, unmapped when it is freed:
/// the hint never outlives the output it was given for.
constexpr size_t kHugePageOutputBytes = size_t{32} << 20;

/// The zeroed output buffer of one reader call, timed as its own
/// `decompress.output` span. A large output is first hinted toward
/// transparent huge pages, so the zero pass faults it in 2 MiB at a time
/// rather than 4 KiB (where THP is off the hint does nothing). Throws what
/// `Bytes(bytes)` throws for a size past max_size() or an allocation
/// failure.
Bytes ZeroedOutput(size_t bytes) {
  static const telemetry::SpanSite output_site("decompress.output");
  telemetry::ScopedSpan output_span(output_site);
  Bytes out;
  out.reserve(bytes);
#ifdef MADV_HUGEPAGE
  if (bytes >= kHugePageOutputBytes) {
    // madvise wants page-aligned bounds: hint the whole pages inside.
    const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    const uintptr_t data = reinterpret_cast<uintptr_t>(out.data());
    const uintptr_t begin = (data + page - 1) & ~(page - 1);
    const uintptr_t end = (data + bytes) & ~(page - 1);
    if (end > begin) {
      (void)madvise(reinterpret_cast<void*>(begin), end - begin,
                    MADV_HUGEPAGE);
    }
  }
#endif
  out.resize(bytes);
  return out;
}

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
    static const telemetry::SpanSite decode_site("chunk.decode");
    Bytes& decoded = ScratchArena::ThreadLocal().buffer(ScratchArena::kDecoded);
    telemetry::ScopedSpan decode_span(decode_site, 0, record.index + 1);
    decoded.clear();
    const Status status =
        plan.codec().Decompress(record.compressed, n * selected, &decoded);
    stats->decode_seconds += decode_span.End();
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
  static const telemetry::SpanSite decompress_site("decompress");
  telemetry::ScopedSpan decompress_span(decompress_site);
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
  Bytes out = ZeroedOutput(static_cast<size_t>(elements) * width);
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

  stats->input_bytes = container_bytes.size();
  stats->output_bytes = out.size();
  stats->total_seconds = decompress_span.End();
  decompress_output.Add(out.size());
  return out;
}

Result<Bytes> IsobarCompressor::DecompressRange(
    ByteSpan container_bytes, uint64_t first_element, uint64_t end_element,
    const DecompressOptions& options, DecompressionStats* stats) {
  static const telemetry::SpanSite range_site("decompress.range");
  telemetry::ScopedSpan range_span(range_site);
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
  Bytes out = ZeroedOutput(static_cast<size_t>(out_bytes));
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
  stats->total_seconds = range_span.End();
  return out;
}

Result<Bytes> IsobarCompressor::DecompressColumns(
    ByteSpan container_bytes, uint64_t column_mask,
    const DecompressOptions& options, DecompressionStats* stats) {
  static const telemetry::SpanSite columns_site("decompress.columns");
  telemetry::ScopedSpan columns_span(columns_site);
  static telemetry::Counter& column_reads =
      telemetry::GetCounter("pipeline.column_reads");
  column_reads.Increment();

  DecompressionStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = DecompressionStats{};
  SalvageLedger ledger(options);

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
  // Under a salvage policy, planes keep a counted container's declared
  // length, so a lost tail leaves holes instead of shifting planes. Under
  // kFail a lost tail fails the read, so only located records are sized:
  // a bare header cannot declare the allocation.
  const uint64_t total =
      plan.counted() && options.on_chunk_error != ChunkErrorPolicy::kFail
          ? plan.header().element_count
          : located;
  const size_t requested =
      static_cast<size_t>(PopcountMask(column_mask, width));
  uint64_t out_bytes = 0;
  if (!container::CheckedMul64(total, requested, &out_bytes) ||
      out_bytes > std::numeric_limits<size_t>::max()) {
    return Status::Corruption("columns: output size overflows");
  }
  Bytes out = ZeroedOutput(static_cast<size_t>(out_bytes));
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
  stats->total_seconds = columns_span.End();
  return out;
}

}  // namespace isobar
