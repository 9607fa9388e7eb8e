#include "core/stream.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "compressors/registry.h"
#include "core/chunker.h"
#include "core/read_plan.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/timeline.h"
#include "util/stopwatch.h"

namespace isobar {

IsobarStreamWriter::IsobarStreamWriter(CompressOptions options, size_t width,
                                       ByteSink* sink)
    : options_(std::move(options)), width_(width), sink_(sink) {
  init_status_ = ValidateOptions(options_, width_);
  if (init_status_.ok() && sink_ == nullptr) {
    init_status_ = Status::InvalidArgument("sink must not be null");
  }
  stats_.decision.preference = options_.eupa.preference;
  num_threads_ = ResolveNumThreads(options_.num_threads);
}

Status IsobarStreamWriter::ValidateOptions(const CompressOptions& options,
                                           size_t width) {
  ISOBAR_RETURN_NOT_OK(ValidateCompressInput(0, width));
  if (options.chunk_elements == 0) {
    return Status::InvalidArgument("chunk_elements must be > 0");
  }
  if (options.container_version < container::kVersionV1 ||
      options.container_version > container::kVersion) {
    return Status::InvalidArgument("unsupported container_version");
  }
  return ValidateAnalyzerOptions(options.analyzer);
}

Status IsobarStreamWriter::WriteAll(ByteSpan data) {
  ISOBAR_RETURN_NOT_OK(init_status_);
  stats_.input_bytes = data.size();
  const Chunker chunker(data, width_, options_.chunk_elements);
  const uint64_t probe_elements = std::min<uint64_t>(
      data.size() / width_,
      std::max<uint64_t>(options_.eupa.sample_elements, 1));
  ISOBAR_RETURN_NOT_OK(StartPipeline(
      data, data.subspan(0, probe_elements * width_),
      chunker.chunk_count() > 0 ? chunker.chunk(0) : ByteSpan(),
      data.size() / width_, chunker.chunk_count()));
  for (uint64_t i = 0; i < chunker.chunk_count(); ++i) {
    ISOBAR_RETURN_NOT_OK(EmitChunk(chunker.chunk(i), ChunkSource::kWholeInput,
                                   i + 1 == chunker.chunk_count()));
  }
  return Seal();
}

Status IsobarStreamWriter::StartPipeline(ByteSpan training, ByteSpan probe,
                                         ByteSpan first_chunk,
                                         uint64_t element_count,
                                         uint64_t chunk_count) {
  ISOBAR_RETURN_NOT_OK(RunEupaPhase(options_, training, probe, first_chunk,
                                    width_, &stats_, &pipeline_.presolved));
  // One sequence across the process, so every pipeline's Timeline slices
  // are told apart whichever writer, thread or call produced them.
  static std::atomic<uint64_t> last_pipeline_id{0};
  pipeline_.pipeline_id =
      last_pipeline_id.fetch_add(1, std::memory_order_relaxed) + 1;
  const EupaDecision& decision = stats_.decision;
  ISOBAR_ASSIGN_OR_RETURN(pipeline_.codec, GetCodec(decision.codec));
  pipeline_.analyzer = Analyzer(options_.analyzer);
  pipeline_.linearization = decision.linearization;
  pipeline_.raw_linearization =
      container::RawSectionLinearization(options_.container_version);
  pipeline_.width = width_;

  container::Header header;
  header.version = options_.container_version;
  header.width = static_cast<uint8_t>(width_);
  header.codec = decision.codec;
  header.linearization = decision.linearization;
  header.preference = options_.eupa.preference;
  // Safe cast: ValidateOptions bounded tau to a finite [1, 256].
  header.tau_centi =
      static_cast<uint16_t>(options_.analyzer.tau * 100.0 + 0.5);
  header.element_count = element_count;
  header.chunk_elements = options_.chunk_elements;
  header.chunk_count = chunk_count;
  Bytes encoded;
  container::AppendHeader(header, &encoded);
  ISOBAR_RETURN_NOT_OK(sink_->Write(encoded));
  stats_.output_bytes += encoded.size();
  header_written_ = true;
  return Status::OK();
}

Status IsobarStreamWriter::WriteRecord(ByteSpan record) {
  if (options_.container_version >= container::kVersion) {
    // The record bytes are about to leave through the sink, so the index
    // entry is derived from the local buffer; only the record's container
    // position (= bytes written so far) comes from the writer's accounting.
    ISOBAR_ASSIGN_OR_RETURN(
        container::IndexEntry entry,
        container::MakeIndexEntry(record, /*record_offset=*/0,
                                  elements_indexed_));
    entry.record_offset = stats_.output_bytes;
    elements_indexed_ += entry.element_count;
    index_entries_.push_back(entry);
  }
  ISOBAR_RETURN_NOT_OK(sink_->Write(record));
  stats_.output_bytes += record.size();
  return Status::OK();
}

Status IsobarStreamWriter::EmitChunk(ByteSpan chunk, ChunkSource source,
                                     bool last) {
  if (!header_written_) {
    // A stream decides on its first chunk: the whole chunk trains EUPA and
    // probes the analyzer.
    ISOBAR_RETURN_NOT_OK(StartPipeline(chunk, chunk, chunk,
                                       container::kUnknownCount,
                                       container::kUnknownCount));
  }
  const uint64_t ordinal = chunks_emitted_++;
  // The pool pays only when chunks overlap: a serial writer, and a last
  // chunk with nothing in flight to overlap with, encode on this thread.
  if (num_threads_ <= 1 || (last && in_flight_.empty())) {
    Bytes record;
    ISOBAR_RETURN_NOT_OK(
        EncodeChunk(pipeline_, chunk, &record, &stats_, ordinal));
    return WriteRecord(record);
  }

  // Pipelined producer/consumer: the encode runs on the pool while this
  // thread returns to the producer. A task borrows a span of WriteAll's
  // input (alive until the call returns), takes over a full pending_
  // buffer, and copies a span of the caller's Append buffer, which is only
  // valid for that call. pipeline_ is frozen by StartPipeline above, before
  // any task can observe it.
  if (pool_ == nullptr) {
    telemetry::Timeline::SetCurrentThreadName("writer");
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
  const bool borrowed = source == ChunkSource::kWholeInput;
  Bytes owned;
  if (source == ChunkSource::kPending) {
    owned = std::move(pending_);
  } else if (source == ChunkSource::kAppendBuffer) {
    owned.assign(chunk.begin(), chunk.end());
  }
  in_flight_.push_back(pool_->Submit([this, chunk, borrowed,
                                      owned = std::move(owned),
                                      ordinal]() -> EncodedRecord {
    EncodedRecord encoded;
    // EncodeChunk runs on the worker's own arena, reused across every chunk
    // that worker encodes.
    encoded.status =
        EncodeChunk(pipeline_, borrowed ? chunk : ByteSpan(owned),
                    &encoded.record, &encoded.stats, ordinal);
    return encoded;
  }));
  if (in_flight_.size() >= 2 * num_threads_) {
    return DrainOne();
  }
  return Status::OK();
}

Status IsobarStreamWriter::DrainOne() {
  static const telemetry::SpanSite wait_site("writer.wait");
  static const telemetry::SpanSite append_site("writer.append");
  const uint64_t ordinal = chunks_drained_++;
  EncodedRecord encoded;
  {
    // A long wait here = the in-order writer stalled on a straggler chunk;
    // the timeline makes the stall and its chunk visible.
    telemetry::ScopedSpan wait_span(wait_site, pipeline_.pipeline_id,
                                    ordinal + 1);
    encoded = in_flight_.front().get();
    in_flight_.pop_front();
  }
  ISOBAR_RETURN_NOT_OK(encoded.status);
  telemetry::ScopedSpan append_span(append_site, pipeline_.pipeline_id,
                                    ordinal + 1);
  ISOBAR_RETURN_NOT_OK(WriteRecord(encoded.record));
  MergeChunkStats(encoded.stats, &stats_);
  return Status::OK();
}

Status IsobarStreamWriter::Seal() {
  while (!in_flight_.empty()) {
    ISOBAR_RETURN_NOT_OK(Poison(DrainOne()));
  }
  pool_.reset();
  if (options_.container_version >= container::kVersion) {
    // The chunk-index footer. Its trailer carries the element total that a
    // streamed container's sentinel header could not, so a reader gets
    // counted-container semantics from the footer alone.
    Bytes footer;
    container::AppendFooter(index_entries_, elements_indexed_, &footer);
    ISOBAR_RETURN_NOT_OK(Poison(sink_->Write(footer)));
    stats_.output_bytes += footer.size();
  }
  finished_ = true;
  return Status::OK();
}

Status IsobarStreamWriter::Poison(Status status) {
  if (!status.ok() && error_status_.ok()) {
    error_status_ = status;
    // The dropped record leaves a hole no later write can fill; retire
    // (and discard) whatever is still in flight so a retried Finish()
    // cannot silently append the chunks that followed the failure.
    for (auto& record : in_flight_) record.wait();
    in_flight_.clear();
    pool_.reset();
  }
  return status;
}

Status IsobarStreamWriter::Append(ByteSpan data) {
  ISOBAR_RETURN_NOT_OK(init_status_);
  ISOBAR_RETURN_NOT_OK(error_status_);
  if (finished_) {
    return Status::InvalidArgument("stream writer already finished");
  }
  Stopwatch timer;
  stats_.input_bytes += data.size();

  const size_t chunk_bytes = options_.chunk_elements * width_;
  size_t consumed = 0;
  if (!pending_.empty()) {
    // Top the pending buffer up to one full chunk first.
    const size_t need = chunk_bytes - pending_.size();
    const size_t take = std::min(need, data.size());
    pending_.insert(pending_.end(), data.begin(), data.begin() + take);
    consumed = take;
    if (pending_.size() == chunk_bytes) {
      ISOBAR_RETURN_NOT_OK(Poison(
          EmitChunk(pending_, ChunkSource::kPending, /*last=*/false)));
      // A pool task may have taken the buffer over; keep the next one
      // chunk-sized from the start.
      pending_.clear();
      pending_.reserve(chunk_bytes);
    }
  }
  // Emit full chunks straight from the caller's buffer.
  while (data.size() - consumed >= chunk_bytes) {
    ISOBAR_RETURN_NOT_OK(Poison(EmitChunk(data.subspan(consumed, chunk_bytes),
                                          ChunkSource::kAppendBuffer,
                                          /*last=*/false)));
    consumed += chunk_bytes;
  }
  pending_.insert(pending_.end(), data.begin() + consumed, data.end());
  stats_.total_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Status IsobarStreamWriter::Finish() {
  ISOBAR_RETURN_NOT_OK(init_status_);
  ISOBAR_RETURN_NOT_OK(error_status_);
  if (finished_) return Status::OK();
  Stopwatch timer;
  if (pending_.size() % width_ != 0) {
    // Not poisoned: nothing was dropped, and the caller can complete the
    // element with a further Append() and Finish() again.
    return Status::InvalidArgument(
        "stream ends mid-element: appended bytes are not a multiple of the "
        "element width");
  }
  if (!pending_.empty()) {
    ISOBAR_RETURN_NOT_OK(
        Poison(EmitChunk(pending_, ChunkSource::kPending, /*last=*/true)));
    pending_.clear();
  }
  if (!header_written_) {
    // A stream with no data at all still needs a valid (empty) container.
    ISOBAR_RETURN_NOT_OK(Poison(StartPipeline(
        {}, {}, {}, container::kUnknownCount, container::kUnknownCount)));
  }
  ISOBAR_RETURN_NOT_OK(Seal());
  stats_.total_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

IsobarStreamReader::IsobarStreamReader(ByteSpan container_bytes,
                                       DecompressOptions options)
    : container_(container_bytes), options_(options) {}

Status IsobarStreamReader::Init() {
  ISOBAR_ASSIGN_OR_RETURN(plan_, ReadPlan::Open(container_, options_));
  initialized_ = true;
  return Status::OK();
}

Result<bool> IsobarStreamReader::Advance(Bytes* chunk) {
  if (!initialized_) {
    return Status::InvalidArgument("reader not initialized (call Init)");
  }
  SalvageLedger ledger(options_.on_chunk_error, &report_);
  const size_t width = plan_.header().width;
  PlannedRecord record;
  while (plan_.Locate(chunks_read_, &record)) {
    const uint64_t bytes = record.element_count * width;
    ChunkFailureStage stage = ChunkFailureStage::kHeader;
    Status status = record.damage;
    if (status.ok() && chunk != nullptr) {
      chunk->resize(static_cast<size_t>(bytes));
      status = DecodeChunkPayload(plan_, record, MutableByteSpan(*chunk),
                                  nullptr, &stage);
    }
    if (!status.ok()) {
      ISOBAR_RETURN_NOT_OK(ledger.Damaged(record, stage, status,
                                          elements_read_ * width, bytes));
    } else if (chunk != nullptr) {
      ledger.Recovered(bytes);
    }
    ++chunks_read_;
    elements_read_ += record.element_count;
    if (status.ok() || chunk == nullptr) return true;
    if (options_.on_chunk_error == ChunkErrorPolicy::kZeroFill) {
      chunk->assign(static_cast<size_t>(bytes), 0);  // Stand-in chunk.
      return true;
    }
    // kSkip: the damaged record is absorbed; poll the next one.
  }
  // End of the records: book a lost tail or trailing bytes once, and keep
  // answering with that verdict.
  if (!at_end_) {
    end_status_ = plan_.tail_lost()
                      ? ledger.TailLost(plan_.tail(), elements_read_ * width, 0)
                      : ledger.Trailing(plan_.trailing_bytes());
    at_end_ = true;
  }
  ISOBAR_RETURN_NOT_OK(end_status_);
  return false;
}

Result<bool> IsobarStreamReader::NextChunk(Bytes* chunk) {
  return Advance(chunk);
}

Result<bool> IsobarStreamReader::SkipChunk() { return Advance(nullptr); }

Status IsobarStreamReader::SeekToChunk(uint64_t n) {
  if (!initialized_) {
    return Status::InvalidArgument("reader not initialized (call Init)");
  }
  static telemetry::Counter& index_seeks =
      telemetry::GetCounter("pipeline.index_seeks");
  static telemetry::Counter& sequential_seeks =
      telemetry::GetCounter("pipeline.sequential_seeks");
  if (plan_.counted() && n > plan_.header().chunk_count) {
    return Status::InvalidArgument("seek beyond the container's chunk count");
  }
  if (plan_.indexed()) {
    // O(1): the index entry alone positions the reader.
    PlannedRecord record;
    elements_read_ = plan_.Locate(n, &record) ? record.element_offset
                                              : plan_.header().element_count;
    chunks_read_ = n;
    index_seeks.Increment();
    return Status::OK();
  }
  if (n < chunks_read_) {
    // Rewind to the first record. The salvage report restarts with the
    // rewound position so records re-examined on the way forward are not
    // double-counted.
    chunks_read_ = 0;
    elements_read_ = 0;
    report_ = SalvageReport{};
    at_end_ = false;
    end_status_ = Status::OK();
  }
  while (chunks_read_ < n) {
    ISOBAR_ASSIGN_OR_RETURN(const bool advanced, SkipChunk());
    if (!advanced) {
      return Status::InvalidArgument("seek beyond the container's chunk count");
    }
  }
  sequential_seeks.Increment();
  return Status::OK();
}

}  // namespace isobar
