#include "core/read_plan.h"

#include <algorithm>
#include <utility>

#include "compressors/registry.h"
#include "core/chunk_codec.h"
#include "telemetry/metrics.h"
#include "telemetry/timeline.h"

namespace isobar {
namespace {

/// Flight-recorder window embedded into a damaged SalvageReport: enough
/// recent events to cover several chunks' worth of pipeline activity
/// without bloating the report.
constexpr size_t kFlightRecorderEvents = 256;

/// Records a counted container of `elements` needs when every record but
/// the last holds `chunk_elements`.
uint64_t ChunksFor(uint64_t elements, uint64_t chunk_elements) {
  if (chunk_elements == 0) return elements == 0 ? 0 : container::kUnknownCount;
  return elements / chunk_elements + (elements % chunk_elements != 0);
}

}  // namespace

Result<ReadPlan> ReadPlan::Open(ByteSpan container_bytes,
                                const DecompressOptions& options) {
  static telemetry::Counter& index_hits =
      telemetry::GetCounter("pipeline.index_hits");
  static telemetry::Counter& index_fallbacks =
      telemetry::GetCounter("pipeline.index_fallbacks");
  ReadPlan plan;
  plan.bytes_ = container_bytes;
  plan.options_ = options;
  plan.payload_end_ = container_bytes.size();
  size_t offset = 0;
  ISOBAR_ASSIGN_OR_RETURN(plan.header_,
                          container::ParseHeader(container_bytes, &offset));
  ISOBAR_ASSIGN_OR_RETURN(plan.codec_, GetCodec(plan.header_.codec));
  container::Header& header = plan.header_;
  if (header.version >= container::kVersion) {
    auto index = container::ParseFooter(container_bytes, header);
    if (index.ok()) {
      index_hits.Increment();
      plan.indexed_ = true;
      header.element_count = index->element_count;
      header.chunk_count = index->entries.size();
      plan.payload_end_ = index->payload_end;
      plan.entries_ = std::move(index->entries);
      return plan;
    }
    if (options.on_chunk_error == ChunkErrorPolicy::kFail) {
      return index.status();
    }
    index_fallbacks.Increment();
  }
  // Without a footer the record ranges follow from the header alone, so a
  // counted header must describe whole chunks plus one remainder.
  const uint64_t elements = header.element_count;
  const bool elements_known = elements != container::kUnknownCount;
  if (elements_known != plan.counted() ||
      (elements_known &&
       header.chunk_count != ChunksFor(elements, header.chunk_elements))) {
    return Status::Corruption("container: element count mismatch");
  }
  return plan;
}

void ReadPlan::WalkTo(uint64_t count) {
  while (starts_.size() < count && !walk_done_) {
    if (counted() ? starts_.size() == header_.chunk_count
                  : frontier_ == payload_end_) {
      walk_done_ = true;
      trailing_bytes_ = payload_end_ - frontier_;
      return;
    }
    size_t offset = frontier_;
    auto parsed = container::ParseChunkHeader(bytes_, &offset);
    if (!parsed.ok()) {
      // Record framing is gone: nothing from here on can be delimited.
      walk_done_ = true;
      tail_.index = starts_.size();
      tail_.byte_offset = frontier_;
      tail_.damage =
          AnnotateChunkError(parsed.status(), tail_.index, frontier_);
      return;
    }
    starts_.push_back(frontier_);
    frontier_ = offset + parsed->compressed_size + parsed->raw_size;
  }
}

bool ReadPlan::Locate(uint64_t i, PlannedRecord* record) {
  *record = PlannedRecord{};
  record->index = i;
  size_t extent_end = 0;
  // The count the record must declare; on the last record of a walk with
  // no totals it is only an upper bound.
  bool bound_only = false;
  if (indexed_) {
    if (i >= entries_.size()) return false;
    const container::IndexEntry& entry = entries_[i];
    record->byte_offset = entry.record_offset;
    record->element_offset = entry.element_offset;
    record->element_count = entry.element_count;
    extent_end = i + 1 < entries_.size()
                     ? static_cast<size_t>(entries_[i + 1].record_offset)
                     : payload_end_;
  } else {
    WalkTo(i + 2);  // One record of lookahead: is record i the last?
    if (i >= starts_.size()) return false;
    const bool last = i + 1 == starts_.size();
    record->byte_offset = starts_[i];
    extent_end = last ? frontier_ : starts_[i + 1];
    record->element_offset = i * header_.chunk_elements;
    record->element_count =
        counted() ? std::min(header_.chunk_elements,
                             header_.element_count - record->element_offset)
                  : header_.chunk_elements;
    bound_only = last && !counted();
  }

  size_t offset = static_cast<size_t>(record->byte_offset);
  auto parsed = container::ParseChunkHeader(bytes_, &offset);
  Status damage = parsed.status();
  if (parsed.ok()) {
    const container::ChunkHeader& h = *parsed;
    record->header = h;
    record->compressed = bytes_.subspan(offset, h.compressed_size);
    record->raw = bytes_.subspan(offset + h.compressed_size, h.raw_size);
    const bool matches_entry =
        !indexed_ || (h.compressible_mask == entries_[i].compressible_mask &&
                      h.flags == entries_[i].flags &&
                      h.compressed_size == entries_[i].compressed_size &&
                      h.crc32c == entries_[i].crc32c);
    const bool count_ok = bound_only
                              ? h.element_count <= record->element_count
                              : h.element_count == record->element_count;
    if (!matches_entry || !count_ok ||
        offset + h.compressed_size + h.raw_size != extent_end) {
      damage = Status::Corruption(
          indexed_ ? "container: chunk record disagrees with its index entry"
                   : "container: chunk element count disagrees with the "
                     "header's chunk geometry");
    } else {
      record->element_count = h.element_count;
    }
  }
  record->damage = AnnotateChunkError(damage, i, record->byte_offset);
  return true;
}

std::vector<PlannedRecord> ReadPlan::LocateAll() {
  std::vector<PlannedRecord> records;
  records.reserve(entries_.size());
  PlannedRecord record;
  while (Locate(records.size(), &record)) records.push_back(std::move(record));
  return records;
}

uint64_t ReadPlan::RecordCovering(uint64_t element) const {
  if (!indexed_) {
    return element / std::max<uint64_t>(header_.chunk_elements, 1);
  }
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), element,
      [](uint64_t value, const container::IndexEntry& e) {
        return value < e.element_offset;
      });
  return it == entries_.begin()
             ? 0
             : static_cast<uint64_t>(it - entries_.begin()) - 1;
}

SalvageLedger::SalvageLedger(const DecompressOptions& options)
    : SalvageLedger(options.on_chunk_error, options.salvage_report) {
  if (report_ != nullptr) *report_ = SalvageReport{};
}

void SalvageLedger::Recovered(uint64_t bytes, uint64_t chunks) {
  if (report_ == nullptr) return;
  report_->chunks_total += chunks;
  report_->chunks_recovered += chunks;
  report_->bytes_recovered += bytes;
}

Status SalvageLedger::Damaged(const PlannedRecord& record,
                              ChunkFailureStage stage, const Status& error,
                              uint64_t output_offset, uint64_t lost_bytes) {
  static telemetry::Counter& salvaged =
      telemetry::GetCounter("pipeline.chunks_salvaged");
  static telemetry::Counter& zero_filled =
      telemetry::GetCounter("pipeline.chunks_zero_filled");
  if (policy_ != ChunkErrorPolicy::kFail) salvaged.Increment();
  if (policy_ == ChunkErrorPolicy::kZeroFill) zero_filled.Increment();
  if (report_ != nullptr) {
    report_->damaged.push_back({.chunk_index = record.index,
                                .byte_offset = record.byte_offset,
                                .element_count = record.element_count,
                                .output_offset = output_offset,
                                .lost_bytes = lost_bytes,
                                .stage = stage,
                                .action = policy_,
                                .error = error});
    ++report_->chunks_total;
    if (policy_ == ChunkErrorPolicy::kSkip) ++report_->chunks_skipped;
    if (policy_ == ChunkErrorPolicy::kZeroFill) ++report_->chunks_zero_filled;
    report_->bytes_lost += lost_bytes;
    CaptureFlightRecorder();
  }
  return policy_ == ChunkErrorPolicy::kFail ? error : Status::OK();
}

Status SalvageLedger::TailLost(const PlannedRecord& tail,
                               uint64_t output_offset, uint64_t lost_bytes) {
  if (report_ != nullptr) report_->truncated_tail = true;
  return Damaged(tail, ChunkFailureStage::kHeader, tail.damage, output_offset,
                 lost_bytes);
}

Status SalvageLedger::Trailing(uint64_t bytes) {
  if (bytes == 0) return Status::OK();
  if (policy_ == ChunkErrorPolicy::kFail) {
    return Status::Corruption("container: trailing bytes after last chunk");
  }
  if (report_ != nullptr) {
    report_->trailing_bytes = bytes;
    CaptureFlightRecorder();
  }
  return Status::OK();
}

void SalvageLedger::CaptureFlightRecorder() {
  // Called the moment damage is booked, so the window shows what every
  // thread was doing when the decode went wrong.
  if (!telemetry::Timeline::Enabled()) return;
  report_->flight_recorder =
      telemetry::Timeline::Global().SnapshotRecent(kFlightRecorderEvents);
}

}  // namespace isobar
