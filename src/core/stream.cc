#include "core/stream.h"

#include <algorithm>
#include <string>

#include "compressors/registry.h"
#include "core/chunk_codec.h"
#include "core/read_plan.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/timeline.h"
#include "telemetry/trace_export.h"
#include "util/stopwatch.h"

namespace isobar {

IsobarStreamWriter::IsobarStreamWriter(CompressOptions options, size_t width,
                                       ByteSink* sink)
    : options_(std::move(options)), width_(width), sink_(sink) {
  if (width_ == 0 || width_ > 64) {
    init_status_ = Status::InvalidArgument("element width must be in [1, 64]");
  } else if (options_.chunk_elements == 0) {
    init_status_ = Status::InvalidArgument("chunk_elements must be > 0");
  } else if (sink_ == nullptr) {
    init_status_ = Status::InvalidArgument("sink must not be null");
  } else if (options_.container_version < container::kVersionV1 ||
             options_.container_version > container::kVersion) {
    init_status_ = Status::InvalidArgument("unsupported container_version");
  } else {
    init_status_ = ValidateAnalyzerOptions(options_.analyzer);
  }
  stats_.decision.preference = options_.eupa.preference;
  num_threads_ = ResolveNumThreads(options_.num_threads);
}

Status IsobarStreamWriter::EnsurePipeline(ByteSpan training_data) {
  if (header_written_) return Status::OK();

  // The batch compressor's EUPA phase, with the whole training window as
  // the analyzer probe.
  ISOBAR_ASSIGN_OR_RETURN(
      trace_id_,
      RunEupaPhase(options_, training_data, training_data, width_, &stats_));
  decision_ = stats_.decision;
  ISOBAR_ASSIGN_OR_RETURN(codec_, GetCodec(decision_.codec));

  container::Header header;
  header.version = options_.container_version;
  header.width = static_cast<uint8_t>(width_);
  header.codec = decision_.codec;
  header.linearization = decision_.linearization;
  header.preference = options_.eupa.preference;
  // Safe cast: ValidateAnalyzerOptions bounded tau to a finite [1, 256].
  header.tau_centi =
      static_cast<uint16_t>(options_.analyzer.tau * 100.0 + 0.5);
  header.element_count = container::kUnknownCount;
  header.chunk_elements = options_.chunk_elements;
  header.chunk_count = container::kUnknownCount;
  Bytes encoded;
  container::AppendHeader(header, &encoded);
  ISOBAR_RETURN_NOT_OK(sink_->Write(encoded));
  stats_.output_bytes += encoded.size();
  header_bytes_ = encoded.size();
  header_written_ = true;
  return Status::OK();
}

Status IsobarStreamWriter::IndexRecord(ByteSpan record) {
  if (options_.container_version < container::kVersion) return Status::OK();
  // The record bytes are about to leave through the sink, so the index
  // entry is derived from the local buffer; only the record's stream
  // position (= bytes written so far) comes from the writer's accounting.
  ISOBAR_ASSIGN_OR_RETURN(container::IndexEntry entry,
                          container::MakeIndexEntry(record, /*record_offset=*/0,
                                                    elements_indexed_));
  entry.record_offset = stats_.output_bytes;
  elements_indexed_ += entry.element_count;
  index_entries_.push_back(entry);
  return Status::OK();
}

Status IsobarStreamWriter::EmitChunk(ByteSpan chunk) {
  ISOBAR_RETURN_NOT_OK(EnsurePipeline(chunk));
  const uint64_t ordinal = chunks_emitted_++;
  const Linearization raw_linearization =
      container::RawSectionLinearization(options_.container_version);
  if (num_threads_ <= 1) {
    const Analyzer analyzer(options_.analyzer);
    Bytes record;
    ISOBAR_RETURN_NOT_OK(EncodeChunk(analyzer, *codec_,
                                     decision_.linearization, chunk, width_,
                                     &record, &stats_, trace_id_, nullptr,
                                     &ScratchArena::ThreadLocal(), ordinal,
                                     raw_linearization));
    ISOBAR_RETURN_NOT_OK(IndexRecord(record));
    ISOBAR_RETURN_NOT_OK(sink_->Write(record));
    stats_.output_bytes += record.size();
    return Status::OK();
  }

  // Pipelined producer/consumer: the encode runs on the pool while this
  // thread returns to the producer. The caller's buffer is only valid for
  // this call, so the task owns a copy of the chunk bytes. codec_,
  // decision_, and trace_id_ are frozen by EnsurePipeline above, before
  // any task can observe them.
  if (pool_ == nullptr) {
    telemetry::Timeline::SetCurrentThreadName("writer");
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
  Bytes owned(chunk.begin(), chunk.end());
  in_flight_.push_back(pool_->Submit(
      [this, owned = std::move(owned), ordinal,
       raw_linearization]() -> EncodedRecord {
        EncodedRecord encoded;
        const Analyzer analyzer(options_.analyzer);
        // ThreadLocal() inside the task: each pool worker reuses its own
        // arena across every chunk it encodes.
        encoded.status = EncodeChunk(
            analyzer, *codec_, decision_.linearization, owned, width_,
            &encoded.record, &encoded.stats, trace_id_,
            trace_id_ != 0 ? &encoded.trace : nullptr,
            &ScratchArena::ThreadLocal(), ordinal, raw_linearization);
        return encoded;
      }));
  if (in_flight_.size() >= 2 * num_threads_) {
    return DrainOne();
  }
  return Status::OK();
}

Status IsobarStreamWriter::DrainOne() {
  const uint64_t ordinal = chunks_drained_++;
  EncodedRecord encoded;
  {
    // A long wait here = the in-order writer stalled on a straggler chunk;
    // the timeline makes the stall and its chunk visible.
    telemetry::ScopedSpan wait_span("writer.wait", trace_id_, ordinal + 1);
    encoded = in_flight_.front().get();
    in_flight_.pop_front();
  }
  ISOBAR_RETURN_NOT_OK(encoded.status);
  telemetry::ScopedSpan append_span("writer.append", trace_id_, ordinal + 1);
  ISOBAR_RETURN_NOT_OK(IndexRecord(encoded.record));
  ISOBAR_RETURN_NOT_OK(sink_->Write(encoded.record));
  stats_.output_bytes += encoded.record.size();
  MergeChunkStats(encoded.stats, &stats_);
  if (trace_id_ != 0) {
    telemetry::TraceRecorder::Global().RecordChunk(trace_id_,
                                                   std::move(encoded.trace));
  }
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
      ISOBAR_RETURN_NOT_OK(Poison(EmitChunk(pending_)));
      pending_.clear();
    }
  }
  // Emit full chunks straight from the caller's buffer (no copy).
  while (data.size() - consumed >= chunk_bytes) {
    ISOBAR_RETURN_NOT_OK(Poison(EmitChunk(data.subspan(consumed, chunk_bytes))));
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
    ISOBAR_RETURN_NOT_OK(Poison(EmitChunk(pending_)));
    pending_.clear();
  }
  // A stream with no data at all still needs a valid (empty) container.
  ISOBAR_RETURN_NOT_OK(Poison(EnsurePipeline({})));
  // Retire the pipelined tail before sealing the stream.
  while (!in_flight_.empty()) {
    ISOBAR_RETURN_NOT_OK(Poison(DrainOne()));
  }
  if (pool_ != nullptr) pool_->PublishStats();
  pool_.reset();
  if (options_.container_version >= container::kVersion) {
    // Seal the stream with the chunk-index footer. The trailer carries the
    // element total the sentinel header could not: a reader of the streamed
    // container gets counted-container semantics from the footer alone.
    Bytes footer;
    container::AppendFooter(index_entries_, elements_indexed_, &footer);
    ISOBAR_RETURN_NOT_OK(Poison(sink_->Write(footer)));
    stats_.output_bytes += footer.size();
  }
  finished_ = true;
  stats_.total_seconds += timer.ElapsedSeconds();
  telemetry::TraceRecorder::Global().EndPipeline(
      trace_id_, stats_.input_bytes, stats_.output_bytes, header_bytes_);
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
