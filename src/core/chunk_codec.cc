#include "core/chunk_codec.h"

#include <string>

#include "core/eupa_selector.h"
#include "core/partitioner.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/crc32c.h"
#include "util/scratch_arena.h"

namespace isobar {

namespace {

bool SameSpan(ByteSpan a, ByteSpan b) {
  return a.data() == b.data() && a.size() == b.size();
}

}  // namespace

Status RunEupaPhase(const CompressOptions& options, ByteSpan training,
                    ByteSpan probe, ByteSpan first_chunk, size_t width,
                    CompressionStats* stats,
                    std::optional<PresolvedChunk>* presolved) {
  presolved->reset();
  EupaOptions eupa = options.eupa;
  if (!eupa.forced_codec) eupa.forced_codec = ForcedCodecFromEnv();
  EupaDecision decision;
  decision.preference = eupa.preference;
  if (eupa.forced_codec && eupa.forced_linearization) {
    decision.codec = *eupa.forced_codec;
    decision.linearization = *eupa.forced_linearization;
  } else if (!training.empty()) {
    // The analyzer verdict on the probe decides which bytes the candidates
    // are trialed on.
    static const telemetry::SpanSite phase_site("eupa.phase");
    telemetry::ScopedSpan phase_span(phase_site);
    ISOBAR_ASSIGN_OR_RETURN(AnalysisResult verdict,
                            Analyzer(options.analyzer).Analyze(probe, width));
    const uint64_t mask =
        verdict.improvable() ? verdict.compressible_mask : FullMask(width);
    // The training sample is all of `training` at or below sample_elements
    // elements (DrawTrainingSample), and the trials gather it with the
    // mask EncodeChunk will use, so then the winning trial is the first
    // chunk's solver pass.
    const bool reuse = SameSpan(training, probe) &&
                       SameSpan(probe, first_chunk) &&
                       training.size() / width <= eupa.sample_elements;
    Bytes winner;
    ISOBAR_ASSIGN_OR_RETURN(
        decision, EupaSelector(eupa).Select(training, width, mask,
                                            reuse ? &winner : nullptr));
    if (reuse) {
      presolved->emplace(PresolvedChunk{std::move(verdict), std::move(winner)});
    }
    stats->eupa_seconds += phase_span.End();
  } else {
    if (eupa.forced_codec) decision.codec = *eupa.forced_codec;
    if (eupa.forced_linearization) {
      decision.linearization = *eupa.forced_linearization;
    }
  }
  stats->decision = std::move(decision);
  return Status::OK();
}

Status EncodeChunk(const ChunkPipeline& pipeline, ByteSpan chunk, Bytes* out,
                   CompressionStats* stats, uint64_t chunk_ordinal) {
  static const telemetry::SpanSite chunk_site("compress.chunk");
  static const telemetry::SpanSite analyze_site("chunk.analyze");
  static const telemetry::SpanSite partition_site("chunk.partition");
  static const telemetry::SpanSite solve_site("chunk.solve");
  const size_t width = pipeline.width;
  const uint64_t full_mask = FullMask(width);
  const uint64_t tag = chunk_ordinal + 1;
  telemetry::ScopedSpan chunk_span(chunk_site, pipeline.pipeline_id, tag);
  const size_t record_base = out->size();

  // Chunk 0 may have been analyzed and solved by the EUPA phase; its
  // spans still open and close, empty, so every chunk has one of each.
  const PresolvedChunk* presolved =
      chunk_ordinal == 0 && pipeline.presolved ? &*pipeline.presolved
                                               : nullptr;
  if (presolved != nullptr &&
      presolved->analysis.element_count != chunk.size() / width) {
    return Status::Internal("presolved chunk does not match chunk 0");
  }

  telemetry::ScopedSpan analyze_span(analyze_site, pipeline.pipeline_id, tag);
  AnalysisResult analyzed;
  if (presolved == nullptr) {
    ISOBAR_ASSIGN_OR_RETURN(analyzed, pipeline.analyzer.Analyze(chunk, width));
  }
  const AnalysisResult& analysis =
      presolved != nullptr ? presolved->analysis : analyzed;
  const double analysis_seconds = analyze_span.End();
  if (stats != nullptr) {
    stats->analysis_seconds += analysis_seconds;
    if (analysis.improvable()) {
      ++stats->improvable_chunks;
      stats->improvable = true;
    }
    // mean_htc_fraction is maintained as a running mean over chunks.
    stats->mean_htc_fraction +=
        (analysis.htc_byte_fraction() - stats->mean_htc_fraction) /
        static_cast<double>(stats->chunk_count + 1);
    ++stats->chunk_count;
  }

  container::ChunkHeader chunk_header;
  chunk_header.element_count = chunk.size() / width;
  chunk_header.compressible_mask = analysis.compressible_mask;
  chunk_header.crc32c = crc32c::Value(chunk);

  // Arena-backed temporaries: on the thread's arena these three vectors
  // reach steady-state capacity after a few chunks and stop allocating.
  ScratchArena& arena = ScratchArena::ThreadLocal();
  Bytes& gathered = arena.buffer(ScratchArena::kGathered);
  Bytes& raw = arena.buffer(ScratchArena::kRaw);
  Bytes& compressed = arena.buffer(ScratchArena::kCompressed);

  ByteSpan raw_section;
  telemetry::ScopedSpan partition_span(partition_site, pipeline.pipeline_id,
                                       tag);
  if (analysis.improvable()) {
    ISOBAR_RETURN_NOT_OK(PartitionDataInto(
        chunk, width, analysis.compressible_mask, pipeline.linearization,
        &gathered, &raw, pipeline.raw_linearization));
    raw_section = ByteSpan(raw);
  } else {
    // Undetermined (Alg. 1 lines 2-3): the whole chunk goes to the
    // solver, still in the EUPA-chosen linearization.
    chunk_header.flags |= container::kChunkUndetermined;
    ISOBAR_RETURN_NOT_OK(GatherColumns(chunk, width, full_mask,
                                       pipeline.linearization, &gathered));
  }
  const double partition_seconds = partition_span.End();
  if (stats != nullptr) stats->partition_seconds += partition_seconds;

  telemetry::ScopedSpan solve_span(solve_site, pipeline.pipeline_id, tag);
  ByteSpan solved;
  if (presolved != nullptr) {
    static telemetry::Counter& trials_reused =
        telemetry::GetCounter("eupa.trials_reused");
    trials_reused.Increment();
    solved = presolved->compressed;
  } else {
    compressed.clear();  // Arena slot may hold the previous chunk's output.
    ISOBAR_RETURN_NOT_OK(pipeline.codec->Compress(gathered, &compressed));
    solved = compressed;
  }
  const double codec_seconds = solve_span.End();
  if (stats != nullptr) stats->codec_seconds += codec_seconds;

  const bool stored_raw = solved.size() >= gathered.size();
  if (stored_raw) {
    // The solver expanded its input (possible on pure noise): store the
    // gathered bytes verbatim so the container never grows the section.
    chunk_header.flags |= container::kChunkStoredRaw;
    chunk_header.compressed_size = gathered.size();
    chunk_header.raw_size = raw_section.size();
    container::AppendChunkHeader(chunk_header, out);
    out->insert(out->end(), gathered.begin(), gathered.end());
  } else {
    chunk_header.compressed_size = solved.size();
    chunk_header.raw_size = raw_section.size();
    container::AppendChunkHeader(chunk_header, out);
    out->insert(out->end(), solved.begin(), solved.end());
  }
  out->insert(out->end(), raw_section.begin(), raw_section.end());

  static telemetry::Counter& chunks_encoded =
      telemetry::GetCounter("pipeline.chunks_encoded");
  static telemetry::Counter& input_bytes =
      telemetry::GetCounter("pipeline.chunk_input_bytes");
  static telemetry::Counter& output_bytes =
      telemetry::GetCounter("pipeline.chunk_output_bytes");
  chunks_encoded.Increment();
  input_bytes.Add(chunk.size());
  output_bytes.Add(out->size() - record_base);

  arena.PublishStats();
  return Status::OK();
}

Status AnnotateChunkError(const Status& status, uint64_t chunk_index,
                          uint64_t byte_offset) {
  if (status.ok()) return status;
  return Status(status.code(),
                "chunk " + std::to_string(chunk_index) +
                    " (container offset " + std::to_string(byte_offset) +
                    "): " + status.message());
}

void MergeChunkStats(const CompressionStats& chunk, CompressionStats* total) {
  total->analysis_seconds += chunk.analysis_seconds;
  total->partition_seconds += chunk.partition_seconds;
  total->codec_seconds += chunk.codec_seconds;
  total->improvable_chunks += chunk.improvable_chunks;
  if (chunk.improvable) total->improvable = true;
  // Weighted running mean: a contribution of k chunks moves the total by
  // k/(n+k) of the gap. With k == 1 this is exactly the serial per-chunk
  // update, so parallel merges stay bit-identical to the serial path.
  if (chunk.chunk_count > 0) {
    total->mean_htc_fraction +=
        (chunk.mean_htc_fraction - total->mean_htc_fraction) *
        static_cast<double>(chunk.chunk_count) /
        static_cast<double>(total->chunk_count + chunk.chunk_count);
  }
  total->chunk_count += chunk.chunk_count;
}

namespace {

Status DecodePayload(const ReadPlan& plan, const PlannedRecord& record,
                     MutableByteSpan dest, DecompressionStats* stats,
                     ChunkFailureStage* failed_stage) {
  if (failed_stage != nullptr) *failed_stage = ChunkFailureStage::kPayload;
  const container::ChunkHeader& chunk_header = record.header;
  const size_t width = plan.header().width;
  const uint64_t full_mask = FullMask(width);
  const bool undetermined =
      (chunk_header.flags & container::kChunkUndetermined) != 0;
  const uint64_t mask =
      undetermined ? full_mask : chunk_header.compressible_mask;
  if ((mask & ~full_mask) != 0) {
    return Status::Corruption("container: chunk mask exceeds element width");
  }
  const uint64_t n = chunk_header.element_count;
  if (dest.size() != n * width) {
    return Status::Internal("chunk payload: destination size mismatch");
  }
  const size_t selected = static_cast<size_t>(PopcountMask(mask, width));
  const size_t expected_packed = n * selected;
  const size_t expected_raw = n * (width - selected);
  if (chunk_header.raw_size != expected_raw) {
    return Status::Corruption("container: raw section size mismatch");
  }

  static const telemetry::SpanSite decode_site("chunk.decode");
  static const telemetry::SpanSite scatter_site("chunk.scatter");
  ScratchArena& arena = ScratchArena::ThreadLocal();
  Bytes& decoded = arena.buffer(ScratchArena::kDecoded);
  ByteSpan packed;
  telemetry::ScopedSpan decode_span(decode_site, 0, record.index + 1);
  if (chunk_header.flags & container::kChunkStoredRaw) {
    if (record.compressed.size() != expected_packed) {
      return Status::Corruption("container: stored section size mismatch");
    }
    packed = record.compressed;
  } else {
    decoded.clear();  // Arena slot may hold the previous chunk's output.
    ISOBAR_RETURN_NOT_OK(
        plan.codec().Decompress(record.compressed, expected_packed, &decoded));
    packed = ByteSpan(decoded);
  }
  const double decode_seconds = decode_span.End();
  if (stats != nullptr) stats->decode_seconds += decode_seconds;

  telemetry::ScopedSpan scatter_span(scatter_site, 0, record.index + 1);
  ISOBAR_RETURN_NOT_OK(MergePartitionInto(
      packed, record.raw, width, mask, plan.header().linearization,
      container::RawSectionLinearization(plan.header().version), dest));

  if (plan.options().verify_checksums) {
    const uint32_t crc = crc32c::Extend(0, dest.data(), dest.size());
    if (crc != chunk_header.crc32c) {
      static telemetry::Counter& crc_failures =
          telemetry::GetCounter("pipeline.checksum_failures");
      crc_failures.Increment();
      if (failed_stage != nullptr) *failed_stage = ChunkFailureStage::kChecksum;
      return Status::Corruption("container: chunk checksum mismatch");
    }
  }
  // Checksum verification is part of the merge stage's bill: it touches
  // the same reconstructed bytes while they are still cache-hot.
  const double scatter_seconds = scatter_span.End();
  if (stats != nullptr) {
    stats->scatter_seconds += scatter_seconds;
    ++stats->chunk_count;
  }

  arena.PublishStats();

  static telemetry::Counter& chunks_decoded =
      telemetry::GetCounter("pipeline.chunks_decoded");
  chunks_decoded.Increment();
  return Status::OK();
}

}  // namespace

Status DecodeChunkPayload(const ReadPlan& plan, const PlannedRecord& record,
                          MutableByteSpan dest, DecompressionStats* stats,
                          ChunkFailureStage* failed_stage) {
  static const telemetry::SpanSite chunk_site("decompress.chunk");
  telemetry::ScopedSpan chunk_span(chunk_site, 0, record.index + 1);
  return AnnotateChunkError(
      DecodePayload(plan, record, dest, stats, failed_stage), record.index,
      record.byte_offset);
}

}  // namespace isobar
