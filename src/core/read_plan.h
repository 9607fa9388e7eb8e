#ifndef ISOBAR_CORE_READ_PLAN_H_
#define ISOBAR_CORE_READ_PLAN_H_

#include <cstdint>
#include <vector>

#include "compressors/codec.h"
#include "core/container.h"
#include "core/isobar.h"
#include "util/bytes.h"
#include "util/status.h"

namespace isobar {

/// One chunk record as located by a ReadPlan. Its element range always
/// comes from a trusted source — the record's index entry, or on a
/// footer-less container the rule that every record but the last holds
/// chunk_elements — so damage never resizes a reader's output or shifts
/// the records that follow it.
struct PlannedRecord {
  uint64_t index = 0;
  uint64_t byte_offset = 0;       ///< Container offset of the chunk header.
  uint64_t element_offset = 0;    ///< First element the record covers.
  uint64_t element_count = 0;     ///< Elements the record covers.
  container::ChunkHeader header;  ///< As parsed; trustworthy when intact.
  ByteSpan compressed;
  ByteSpan raw;
  /// Header-stage verdict (annotated with the record's position): OK when
  /// the payload may be decoded.
  Status damage;

  uint64_t element_end() const { return element_offset + element_count; }
};

/// The one parse of a container that every reader shares: the file header,
/// the codec, and the v2 chunk-index footer — or, without a valid footer,
/// a sequential record walk — resolved into PlannedRecords on demand. With
/// a footer, locating a record parses only that record's header; without
/// one the walk runs one record ahead, just far enough to tell the last
/// record from the others. The plan holds record metadata, never payload.
class ReadPlan {
 public:
  /// Parses the header, resolves the codec and the v2 footer. A damaged
  /// footer fails the call under kFail; under a salvage policy the plan
  /// falls back to the walk. A footer-less header whose totals do not
  /// describe whole chunks plus one remainder is corrupt.
  static Result<ReadPlan> Open(ByteSpan container_bytes,
                               const DecompressOptions& options);

  /// The file header, with a valid footer's totals adopted (streamed
  /// containers carry sentinels in the header itself).
  const container::Header& header() const { return header_; }
  const DecompressOptions& options() const { return options_; }
  const Codec& codec() const { return *codec_; }
  bool indexed() const { return indexed_; }
  /// True when the record and element totals are known without a walk.
  bool counted() const {
    return header_.chunk_count != container::kUnknownCount;
  }

  /// Fills `*record` with record `i`. False when the container holds no
  /// such record: past the last one, or at or past destroyed framing
  /// (tail_lost()).
  bool Locate(uint64_t i, PlannedRecord* record);
  /// Every locatable record, in order.
  std::vector<PlannedRecord> LocateAll();

  /// Index of the record covering `element`.
  uint64_t RecordCovering(uint64_t element) const;

  /// True once the walk met a record whose framing is destroyed; tail()
  /// is that record, its damage the failure. Nothing after it is reachable.
  bool tail_lost() const { return !tail_.damage.ok(); }
  const PlannedRecord& tail() const { return tail_; }
  /// Bytes between the last counted record and the payload end, valid
  /// once Locate has returned false.
  uint64_t trailing_bytes() const { return trailing_bytes_; }

 private:
  /// Extends the walk until `count` records are known or it ends.
  void WalkTo(uint64_t count);

  ByteSpan bytes_;
  DecompressOptions options_;
  container::Header header_;
  const Codec* codec_ = nullptr;
  bool indexed_ = false;
  std::vector<container::IndexEntry> entries_;
  size_t payload_end_ = 0;
  std::vector<size_t> starts_;  ///< Walked record offsets.
  size_t frontier_ = container::kHeaderSize;
  bool walk_done_ = false;
  PlannedRecord tail_;
  uint64_t trailing_bytes_ = 0;
};

/// The one place salvage outcomes are booked: SalvageReport entries, the
/// pipeline.chunks_salvaged / chunks_zero_filled counters and the
/// flight-recorder capture. Every reader routes each record's outcome
/// through a ledger, so the same damage gets the same verdict whichever
/// reader meets it. Under kFail the first damaged record is booked and its
/// error handed back for the reader to abort with.
class SalvageLedger {
 public:
  /// Books into `report` (may be null) as it stands.
  SalvageLedger(ChunkErrorPolicy policy, SalvageReport* report)
      : policy_(policy), report_(report) {}
  /// Starts a fresh options.salvage_report for a one-shot read.
  explicit SalvageLedger(const DecompressOptions& options);

  void Recovered(uint64_t bytes, uint64_t chunks = 1);
  /// Books a damaged record whose output slice is `lost_bytes` long at
  /// `output_offset`. Returns `error` under kFail, OK otherwise.
  Status Damaged(const PlannedRecord& record, ChunkFailureStage stage,
                 const Status& error, uint64_t output_offset,
                 uint64_t lost_bytes);
  /// Books the destroyed-framing tail of a ReadPlan.
  Status TailLost(const PlannedRecord& tail, uint64_t output_offset,
                  uint64_t lost_bytes);
  /// Books bytes left after the last counted record.
  Status Trailing(uint64_t bytes);

 private:
  void CaptureFlightRecorder();

  ChunkErrorPolicy policy_;
  SalvageReport* report_;
};

}  // namespace isobar

#endif  // ISOBAR_CORE_READ_PLAN_H_
