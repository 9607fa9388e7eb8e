#include "core/chunk_codec.h"

#include <string>

#include "core/eupa_selector.h"
#include "core/partitioner.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/trace_export.h"
#include "util/crc32c.h"
#include "util/stopwatch.h"

namespace isobar {

Result<uint64_t> RunEupaPhase(const CompressOptions& options,
                              ByteSpan training, ByteSpan probe, size_t width,
                              CompressionStats* stats) {
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
    Stopwatch eupa_timer;
    ISOBAR_ASSIGN_OR_RETURN(AnalysisResult verdict,
                            Analyzer(options.analyzer).Analyze(probe, width));
    const uint64_t mask =
        verdict.improvable() ? verdict.compressible_mask : FullMask(width);
    ISOBAR_ASSIGN_OR_RETURN(decision,
                            EupaSelector(eupa).Select(training, width, mask));
    stats->eupa_seconds += eupa_timer.ElapsedSeconds();
  } else {
    if (eupa.forced_codec) decision.codec = *eupa.forced_codec;
    if (eupa.forced_linearization) {
      decision.linearization = *eupa.forced_linearization;
    }
  }
  stats->decision = decision;

  auto& recorder = telemetry::TraceRecorder::Global();
  if (!recorder.enabled()) return uint64_t{0};
  const uint64_t id = recorder.BeginPipeline(
      std::string(CodecIdToString(decision.codec)),
      std::string(LinearizationToString(decision.linearization)),
      std::string(PreferenceToString(decision.preference)), width);
  for (const CandidateEvaluation& eval : decision.evaluations) {
    telemetry::CandidateTrace candidate;
    candidate.codec = std::string(CodecIdToString(eval.codec));
    candidate.linearization =
        std::string(LinearizationToString(eval.linearization));
    candidate.ratio = eval.ratio;
    candidate.throughput_mbps = eval.throughput_mbps;
    recorder.RecordCandidate(id, std::move(candidate));
  }
  return id;
}

Status EncodeChunk(const Analyzer& analyzer, const Codec& codec,
                   Linearization linearization, ByteSpan chunk, size_t width,
                   Bytes* out, CompressionStats* stats,
                   uint64_t trace_pipeline_id,
                   telemetry::ChunkTrace* trace_out, ScratchArena* arena,
                   uint64_t chunk_ordinal, Linearization raw_linearization) {
  const uint64_t full_mask = FullMask(width);
  telemetry::ScopedSpan chunk_span("compress.chunk", trace_pipeline_id,
                                   chunk_ordinal + 1);
  const size_t record_base = out->size();

  Stopwatch analysis_timer;
  ISOBAR_ASSIGN_OR_RETURN(AnalysisResult analysis,
                          analyzer.Analyze(chunk, width));
  const double analysis_seconds = analysis_timer.ElapsedSeconds();
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

  // Arena-backed temporaries: with a per-worker arena these three vectors
  // reach steady-state capacity after a few chunks and stop allocating.
  Bytes local_gathered;
  Bytes local_raw;
  Bytes local_compressed;
  Bytes& gathered =
      arena != nullptr ? arena->buffer(ScratchArena::kGathered)
                       : local_gathered;
  Bytes& raw = arena != nullptr ? arena->buffer(ScratchArena::kRaw)
                                : local_raw;
  Bytes& compressed =
      arena != nullptr ? arena->buffer(ScratchArena::kCompressed)
                       : local_compressed;

  ByteSpan raw_section;
  double partition_seconds = 0.0;
  if (analysis.improvable()) {
    Stopwatch partition_timer;
    ISOBAR_RETURN_NOT_OK(PartitionDataInto(chunk, width,
                                           analysis.compressible_mask,
                                           linearization, &gathered, &raw,
                                           raw_linearization));
    partition_seconds = partition_timer.ElapsedSeconds();
    raw_section = ByteSpan(raw);
  } else {
    // Undetermined (Alg. 1 lines 2-3): the whole chunk goes to the
    // solver, still in the EUPA-chosen linearization.
    chunk_header.flags |= container::kChunkUndetermined;
    telemetry::ScopedSpan gather_span("chunk.partition", trace_pipeline_id,
                                      chunk_ordinal + 1);
    Stopwatch partition_timer;
    ISOBAR_RETURN_NOT_OK(
        GatherColumns(chunk, width, full_mask, linearization, &gathered));
    partition_seconds = partition_timer.ElapsedSeconds();
  }
  if (stats != nullptr) stats->partition_seconds += partition_seconds;

  double codec_seconds = 0.0;
  {
    telemetry::ScopedSpan solve_span("chunk.solve", trace_pipeline_id,
                                     chunk_ordinal + 1);
    Stopwatch codec_timer;
    compressed.clear();  // Arena slot may hold the previous chunk's output.
    ISOBAR_RETURN_NOT_OK(codec.Compress(gathered, &compressed));
    codec_seconds = codec_timer.ElapsedSeconds();
  }
  if (stats != nullptr) stats->codec_seconds += codec_seconds;

  const bool stored_raw = compressed.size() >= gathered.size();
  if (stored_raw) {
    // The solver expanded its input (possible on pure noise): store the
    // gathered bytes verbatim so the container never grows the section.
    chunk_header.flags |= container::kChunkStoredRaw;
    chunk_header.compressed_size = gathered.size();
    chunk_header.raw_size = raw_section.size();
    container::AppendChunkHeader(chunk_header, out);
    out->insert(out->end(), gathered.begin(), gathered.end());
  } else {
    chunk_header.compressed_size = compressed.size();
    chunk_header.raw_size = raw_section.size();
    container::AppendChunkHeader(chunk_header, out);
    out->insert(out->end(), compressed.begin(), compressed.end());
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

  if (arena != nullptr) arena->PublishStats();

  auto& recorder = telemetry::TraceRecorder::Global();
  if (trace_pipeline_id != 0 && recorder.enabled()) {
    telemetry::ChunkTrace trace;
    trace.element_count = chunk_header.element_count;
    trace.input_bytes = chunk.size();
    trace.output_bytes = out->size() - record_base;
    trace.improvable = analysis.improvable();
    trace.stored_raw = stored_raw;
    trace.compressible_mask = analysis.compressible_mask;
    trace.htc_fraction = analysis.htc_byte_fraction();
    trace.solver_input_bytes = gathered.size();
    trace.solver_output_bytes = chunk_header.compressed_size;
    trace.raw_bytes = raw_section.size();
    trace.analysis_seconds = analysis_seconds;
    trace.partition_seconds = partition_seconds;
    trace.codec_seconds = codec_seconds;
    if (trace_out != nullptr) {
      // Parallel pipeline: hand the record to the caller, whose writer
      // stitches worker traces back into chunk order.
      *trace_out = std::move(trace);
    } else {
      recorder.RecordChunk(trace_pipeline_id, std::move(trace));
    }
  }
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

  ScratchArena& arena = ScratchArena::ThreadLocal();
  Bytes& decoded = arena.buffer(ScratchArena::kDecoded);
  ByteSpan packed;
  {
    telemetry::ScopedSpan decode_span("chunk.decode", 0, record.index + 1);
    Stopwatch decode_timer;
    if (chunk_header.flags & container::kChunkStoredRaw) {
      if (record.compressed.size() != expected_packed) {
        return Status::Corruption("container: stored section size mismatch");
      }
      packed = record.compressed;
    } else {
      decoded.clear();  // Arena slot may hold the previous chunk's output.
      ISOBAR_RETURN_NOT_OK(
          plan.codec().Decompress(record.compressed, expected_packed,
                                  &decoded));
      packed = ByteSpan(decoded);
    }
    if (stats != nullptr) {
      stats->decode_seconds += decode_timer.ElapsedSeconds();
    }
  }

  telemetry::ScopedSpan scatter_span("chunk.scatter", 0, record.index + 1);
  Stopwatch scatter_timer;
  ISOBAR_RETURN_NOT_OK(ScatterColumns(packed, width, mask,
                                      plan.header().linearization, dest));
  ISOBAR_RETURN_NOT_OK(ScatterColumns(
      record.raw, width, full_mask & ~mask,
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
  if (stats != nullptr) {
    // Checksum verification is part of the merge stage's bill: it touches
    // the same reconstructed bytes while they are still cache-hot.
    stats->scatter_seconds += scatter_timer.ElapsedSeconds();
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
  telemetry::ScopedSpan chunk_span("decompress.chunk", 0, record.index + 1);
  return AnnotateChunkError(
      DecodePayload(plan, record, dest, stats, failed_stage), record.index,
      record.byte_offset);
}

}  // namespace isobar
