// isobar_cli: file compressor built on the public API — the "black box
// solution" usage of §II.C. Compresses any raw binary file of fixed-width
// elements into a self-describing .isobar container and back.
//
//   ./isobar_cli c <input> <output.isobar> [--width=8] [--pref=speed|ratio]
//                 [--codec=<name>] [--lin=row|column]
//                 [--tau=1.42] [--chunk=375000] [--threads=N] [--verbose]
//                 [--metrics-json=<path>] [--metrics-csv=<path>]
//                 [--trace=<path>] [--trace-timeline=<path>]
//                 [--timeline-capacity=N] [--trace-max-pipelines=N]
//                 [--trace-max-chunks=N]
//   ./isobar_cli d <input.isobar> <output> [--threads=N]
//                 [--salvage=skip|zero-fill]
//                 [--range=<first>:<end>] [--columns=c0,c1,...]
//                 [--metrics-json=<path>] [--metrics-csv=<path>]
//                 [--trace=<path>] [--trace-timeline=<path>]
//                 [--timeline-capacity=N]
//
// --salvage decodes damaged containers best-effort: a chunk that fails to
// parse, decode, or checksum is skipped (or replaced with zero bytes)
// instead of aborting, and a per-chunk damage report is printed.
// --range decodes only elements [first, end) — on a v2 container the
// chunk-index footer locates the covering chunks and nothing else is
// decoded. --columns materializes only the listed byte-planes
// (concatenated in ascending column order); planes the partitioner stored
// raw are served without any solver work.
//   ./isobar_cli info <input.isobar>
//   ./isobar_cli verify <input.isobar>
//
// The telemetry flags enable the metrics/span/trace subsystem for the run
// and dump it afterwards ("-" writes to stdout): --metrics-json writes the
// combined report (counters, histograms, spans, per-chunk pipeline
// traces), --metrics-csv the flat instrument table, --trace the per-chunk
// trace CSV, --trace-timeline the cross-thread event timeline as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto, or summarize
// it with isobar_stat). --timeline-capacity bounds each thread's event
// ring, --trace-max-pipelines/--trace-max-chunks bound the chunk-trace
// recorder; overflow counts into the telemetry.events_dropped counter.
// See docs/OBSERVABILITY.md for the schema.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "compressors/registry.h"
#include "core/isobar.h"
#include "core/stream.h"
#include "io/file_io.h"
#include "linearize/transpose.h"
#include "simd/dispatch.h"
#include "telemetry/metrics.h"
#include "telemetry/timeline.h"
#include "telemetry/trace_export.h"

namespace {

using namespace isobar;

bool ReadFile(const char* path, Bytes* out) {
  auto file = ReadFileToBytes(path);
  if (!file.ok()) return false;
  *out = std::move(*file);
  return true;
}

bool WriteFile(const char* path, ByteSpan data) {
  return WriteBytesToFile(path, data).ok();
}

/// Telemetry output destinations, shared by the compress and decompress
/// commands. Parsing a telemetry flag switches the subsystem on for the
/// run; Dump() writes each requested artifact after the work is done.
struct TelemetryFlags {
  std::string metrics_json;
  std::string metrics_csv;
  std::string trace_csv;
  std::string timeline_json;
  /// Set when a telemetry flag was given with an empty path; the command
  /// should exit with a usage error instead of silently dropping output.
  bool parse_error = false;

  /// Consumes `--metrics-json= / --metrics-csv= / --trace= /
  /// --trace-timeline=` and the recorder-capacity knobs; returns false
  /// for any other argument.
  bool Parse(const char* arg) {
    // Capacity knobs first: they tune the bounded recorders but do not by
    // themselves switch telemetry on.
    if (std::strncmp(arg, "--timeline-capacity=", 20) == 0) {
      telemetry::Timeline::Global().set_capacity_per_thread(
          static_cast<size_t>(std::strtoull(arg + 20, nullptr, 10)));
      return true;
    }
    if (std::strncmp(arg, "--trace-max-pipelines=", 22) == 0) {
      telemetry::TraceRecorder::Global().set_max_pipelines(
          static_cast<size_t>(std::strtoull(arg + 22, nullptr, 10)));
      return true;
    }
    if (std::strncmp(arg, "--trace-max-chunks=", 19) == 0) {
      telemetry::TraceRecorder::Global().set_max_chunks_per_pipeline(
          static_cast<size_t>(std::strtoull(arg + 19, nullptr, 10)));
      return true;
    }
    std::string* dest;
    if (std::strncmp(arg, "--metrics-json=", 15) == 0) {
      dest = &metrics_json;
      *dest = arg + 15;
    } else if (std::strncmp(arg, "--metrics-csv=", 14) == 0) {
      dest = &metrics_csv;
      *dest = arg + 14;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      dest = &trace_csv;
      *dest = arg + 8;
    } else if (std::strncmp(arg, "--trace-timeline=", 17) == 0) {
      dest = &timeline_json;
      *dest = arg + 17;
    } else {
      return false;
    }
    if (dest->empty()) {
      std::fprintf(stderr, "'%s' needs a path (use - for stdout)\n", arg);
      parse_error = true;
      return true;
    }
    telemetry::SetEnabled(true);
    telemetry::TraceRecorder::Global().SetEnabled(true);
    if (dest == &timeline_json) {
      telemetry::Timeline::Global().SetEnabled(true);
    }
    return true;
  }

  static bool WriteText(const std::string& path, const std::string& text) {
    if (path == "-") {
      std::fwrite(text.data(), 1, text.size(), stdout);
      return true;
    }
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << text;
    if (!file.good()) {
      std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
      return false;
    }
    return true;
  }

  bool Dump() const {
    bool ok = true;
    if (!metrics_json.empty()) {
      ok &= WriteText(metrics_json, telemetry::TelemetryReportJson());
    }
    if (!metrics_csv.empty()) {
      ok &= WriteText(metrics_csv, telemetry::MetricsToCsv(
                                       telemetry::MetricsRegistry::Global()
                                           .Snapshot()));
    }
    if (!trace_csv.empty()) {
      ok &= WriteText(trace_csv,
                      telemetry::TraceToCsv(
                          telemetry::TraceRecorder::Global().Snapshot()));
    }
    if (!timeline_json.empty()) {
      ok &= WriteText(timeline_json,
                      telemetry::TimelineToJson(
                          telemetry::Timeline::Global().Snapshot()));
    }
    return ok;
  }
};

/// Records the active SIMD dispatch tier into the metrics registry as a
/// `simd.tier.<name>` counter. Lives here (not in the telemetry library)
/// because telemetry cannot link against the simd library; any binary
/// that sees both records the tier once per run.
void RecordSimdTier() {
  if (!telemetry::Enabled()) return;
  const std::string name =
      "simd.tier." + std::string(simd::TierToString(simd::ActiveTier()));
  telemetry::GetCounter(name).Add(1);
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s c <input> <output.isobar> [--width=8] [--pref=speed|ratio]\n"
      "          [--codec=%s] [--lin=row|column]\n"
      "          [--tau=1.42] [--chunk=375000] [--threads=N] [--verbose]\n"
      "          [--metrics-json=<path>] [--metrics-csv=<path>]\n"
      "          [--trace=<path>] [--trace-timeline=<path>]\n"
      "          [--timeline-capacity=N] [--trace-max-pipelines=N]\n"
      "          [--trace-max-chunks=N]\n"
      "       %s d <input.isobar> <output> [--threads=N]\n"
      "          [--salvage=skip|zero-fill]\n"
      "          [--range=<first>:<end>] [--columns=c0,c1,...]\n"
      "          [--metrics-json=<path>] [--metrics-csv=<path>]\n"
      "          [--trace=<path>] [--trace-timeline=<path>]\n"
      "          [--timeline-capacity=N]\n"
      "--threads=N uses N worker threads for the chunk pipeline (0 = one\n"
      "per hardware thread, the default; 1 = serial). Output is identical\n"
      "for every thread count. --verbose prints the EUPA decision table\n"
      "(every candidate's predicted and measured performance, and which\n"
      "trials never ran: pruned by the estimator gate, or, under speed\n"
      "preference, below a faster-ranked codec that met the ratio floor;\n"
      "MB/s is reported, never decided on), the EUPA phase time, the\n"
      "thread-pool scheduling summary, and the top-3 slowest chunks.\n"
      "--trace-timeline writes the cross-thread event timeline as Chrome\n"
      "trace-event JSON (chrome://tracing / Perfetto / isobar_stat).\n"
      "--salvage recovers what it can from a damaged container: bad\n"
      "chunks are skipped (or zero-filled) and reported instead of\n"
      "aborting the decode.\n"
      "--range=<first>:<end> decodes only that element range (v2\n"
      "containers seek straight to the covering chunks via the index\n"
      "footer). --columns=c0,c1,... writes only those byte-planes,\n"
      "concatenated in ascending column order.\n"
      "       %s info <input.isobar>\n"
      "       %s verify <input.isobar>\n",
      argv0, CodecNameList().c_str(), argv0, argv0, argv0);
  return 2;
}

/// --verbose: the EUPA decision table — every (solver, linearization)
/// candidate with its estimator prediction, measured sample performance,
/// and what the selector did with it. "pruned" rows never ran a trial
/// compression: the estimator gate skipped them, or (speed preference) a
/// faster-ranked codec already met the ratio floor. The MB/s column is
/// evidence only; the decision reads ratios alone.
void PrintDecisionTable(const EupaDecision& decision, double eupa_seconds) {
  std::fprintf(stderr, "EUPA decision table (%s preference, %.2f ms):\n",
               std::string(PreferenceToString(decision.preference)).c_str(),
               eupa_seconds * 1e3);
  std::fprintf(stderr, "  %-8s %-7s %10s %9s %9s  %s\n", "solver", "lin",
               "predicted", "ratio", "MB/s", "outcome");
  char predicted[32], ratio[32], mbps[32];
  for (const auto& eval : decision.evaluations) {
    const bool selected = !eval.pruned && eval.codec == decision.codec &&
                          eval.linearization == decision.linearization;
    if (eval.predicted_ratio > 0.0) {
      std::snprintf(predicted, sizeof(predicted), "%.2f", eval.predicted_ratio);
    } else {
      std::snprintf(predicted, sizeof(predicted), "-");
    }
    // Pruned candidates never ran, so their measured fields are blank.
    if (eval.pruned) {
      std::snprintf(ratio, sizeof(ratio), "-");
      std::snprintf(mbps, sizeof(mbps), "-");
    } else {
      std::snprintf(ratio, sizeof(ratio), "%.2f", eval.ratio);
      std::snprintf(mbps, sizeof(mbps), "%.1f", eval.throughput_mbps);
    }
    std::fprintf(
        stderr, "  %-8s %-7s %10s %9s %9s  %s\n",
        std::string(CodecIdToString(eval.codec)).c_str(),
        std::string(LinearizationToString(eval.linearization)).c_str(),
        predicted, ratio, mbps,
        eval.pruned ? "pruned" : (selected ? "selected" : "trialed"));
  }
}

/// --verbose: thread-pool scheduling summary, read back from the pool.*
/// counters ThreadPool::PublishStats() recorded at the end of the run.
void PrintPoolStats() {
  const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
  auto counter = [&snapshot](std::string_view name) -> long long {
    for (const auto& c : snapshot.counters) {
      if (c.name == name) return static_cast<long long>(c.value);
    }
    return -1;
  };
  const long long submitted = counter("pool.tasks_submitted");
  if (submitted < 0) {
    std::fprintf(stderr, "thread pool: not used (serial run)\n");
    return;
  }
  const long long idle = counter("pool.idle_nanos");
  std::fprintf(stderr,
               "thread pool: %lld tasks submitted, %lld executed; %lld "
               "steals, %lld failed steal scans; %.3fs aggregate idle\n",
               submitted, counter("pool.tasks_executed"),
               counter("pool.steals"), counter("pool.failed_steal_scans"),
               idle < 0 ? 0.0 : static_cast<double>(idle) / 1e9);
}

/// --verbose: the top-3 slowest chunks across the run's pipeline traces,
/// by summed stage time — the chunks a throughput investigation should
/// look at first.
void PrintSlowestChunks() {
  struct SlowChunk {
    uint64_t chunk_index;
    uint64_t input_bytes;
    double analysis, partition, codec;
    double total() const { return analysis + partition + codec; }
  };
  std::vector<SlowChunk> chunks;
  for (const auto& pipeline : telemetry::TraceRecorder::Global().Snapshot()) {
    for (const auto& chunk : pipeline.chunks) {
      chunks.push_back({chunk.chunk_index, chunk.input_bytes,
                        chunk.analysis_seconds, chunk.partition_seconds,
                        chunk.codec_seconds});
    }
  }
  if (chunks.empty()) return;
  const size_t top = std::min<size_t>(3, chunks.size());
  std::partial_sort(chunks.begin(), chunks.begin() + top, chunks.end(),
                    [](const SlowChunk& a, const SlowChunk& b) {
                      return a.total() > b.total();
                    });
  std::fprintf(stderr, "slowest chunks:\n");
  for (size_t i = 0; i < top; ++i) {
    const SlowChunk& c = chunks[i];
    std::fprintf(stderr,
                 "  chunk %llu: %.3fs (analyze %.3fs, partition %.3fs, "
                 "solve %.3fs) over %llu bytes\n",
                 static_cast<unsigned long long>(c.chunk_index), c.total(),
                 c.analysis, c.partition, c.codec,
                 static_cast<unsigned long long>(c.input_bytes));
  }
}

int Compress(int argc, char** argv) {
  size_t width = 8;
  bool verbose = false;
  CompressOptions options;
  TelemetryFlags telemetry_flags;
  for (int i = 4; i < argc; ++i) {
    const char* arg = argv[i];
    if (telemetry_flags.Parse(arg)) {
      continue;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      verbose = true;
      // The verbose summaries are derived from telemetry (pool counters,
      // chunk traces), so verbose switches the subsystem on for the run.
      telemetry::SetEnabled(true);
      telemetry::TraceRecorder::Global().SetEnabled(true);
    } else if (std::strncmp(arg, "--width=", 8) == 0) {
      width = static_cast<size_t>(std::atoi(arg + 8));
    } else if (std::strcmp(arg, "--pref=speed") == 0) {
      options.eupa.preference = Preference::kSpeed;
    } else if (std::strcmp(arg, "--pref=ratio") == 0) {
      options.eupa.preference = Preference::kRatio;
    } else if (std::strncmp(arg, "--codec=", 8) == 0) {
      auto codec = GetCodecByName(arg + 8);
      if (!codec.ok()) {
        std::fprintf(stderr, "%s\n", codec.status().ToString().c_str());
        return 2;
      }
      options.eupa.forced_codec = (*codec)->id();
    } else if (std::strcmp(arg, "--lin=row") == 0) {
      options.eupa.forced_linearization = Linearization::kRow;
    } else if (std::strcmp(arg, "--lin=column") == 0) {
      options.eupa.forced_linearization = Linearization::kColumn;
    } else if (std::strncmp(arg, "--tau=", 6) == 0) {
      options.analyzer.tau = std::atof(arg + 6);
    } else if (std::strncmp(arg, "--chunk=", 8) == 0) {
      options.chunk_elements = std::strtoull(arg + 8, nullptr, 10);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      options.num_threads =
          static_cast<uint32_t>(std::strtoul(arg + 10, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg);
      return 2;
    }
  }
  if (telemetry_flags.parse_error) return 2;
  RecordSimdTier();

  Bytes input;
  if (!ReadFile(argv[2], &input)) {
    std::fprintf(stderr, "cannot read '%s'\n", argv[2]);
    return 1;
  }
  const IsobarCompressor compressor(options);
  CompressionStats stats;
  auto compressed = compressor.Compress(input, width, &stats);
  if (!compressed.ok()) {
    std::fprintf(stderr, "%s\n", compressed.status().ToString().c_str());
    // Still dump what telemetry saw: a failed run is exactly when the
    // counters and spans are worth reading.
    telemetry_flags.Dump();
    return 1;
  }
  if (!WriteFile(argv[3], *compressed)) {
    std::fprintf(stderr, "cannot write '%s'\n", argv[3]);
    return 1;
  }
  std::fprintf(stderr,
               "%zu -> %zu bytes (ratio %.3f) at %.1f MB/s; solver %s/%s; "
               "%s, %.1f%% noise bytes\n",
               input.size(), compressed->size(), stats.ratio(),
               stats.compression_mbps(),
               std::string(CodecIdToString(stats.decision.codec)).c_str(),
               std::string(
                   LinearizationToString(stats.decision.linearization))
                   .c_str(),
               stats.improvable ? "improvable" : "undetermined",
               stats.mean_htc_fraction * 100.0);
  if (verbose) {
    PrintDecisionTable(stats.decision, stats.eupa_seconds);
    PrintPoolStats();
    PrintSlowestChunks();
  }
  if (!telemetry_flags.Dump()) return 1;
  return 0;
}

int Decompress(int argc, char** argv) {
  TelemetryFlags telemetry_flags;
  DecompressOptions options;
  bool have_range = false;
  uint64_t range_first = 0, range_end = 0;
  uint64_t column_mask = 0;
  for (int i = 4; i < argc; ++i) {
    const char* arg = argv[i];
    if (telemetry_flags.Parse(arg)) {
      continue;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      options.num_threads =
          static_cast<uint32_t>(std::strtoul(arg + 10, nullptr, 10));
    } else if (std::strcmp(arg, "--salvage=skip") == 0) {
      options.on_chunk_error = ChunkErrorPolicy::kSkip;
    } else if (std::strcmp(arg, "--salvage=zero-fill") == 0) {
      options.on_chunk_error = ChunkErrorPolicy::kZeroFill;
    } else if (std::strncmp(arg, "--range=", 8) == 0) {
      char* sep = nullptr;
      range_first = std::strtoull(arg + 8, &sep, 10);
      if (sep == nullptr || *sep != ':') {
        std::fprintf(stderr, "--range needs <first>:<end> (got '%s')\n", arg);
        return 2;
      }
      range_end = std::strtoull(sep + 1, nullptr, 10);
      have_range = true;
    } else if (std::strncmp(arg, "--columns=", 10) == 0) {
      const char* cursor = arg + 10;
      if (*cursor == '\0') {
        std::fprintf(stderr, "--columns needs a comma-separated list\n");
        return 2;
      }
      while (*cursor != '\0') {
        char* next = nullptr;
        const unsigned long long column = std::strtoull(cursor, &next, 10);
        if (next == cursor || column >= 64 ||
            (*next != '\0' && *next != ',')) {
          std::fprintf(stderr, "--columns: bad column list '%s'\n", arg + 10);
          return 2;
        }
        column_mask |= 1ull << column;
        cursor = (*next == ',') ? next + 1 : next;
      }
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg);
      return 2;
    }
  }
  if (telemetry_flags.parse_error) return 2;
  if (have_range && column_mask != 0) {
    std::fprintf(stderr, "--range and --columns are mutually exclusive\n");
    return 2;
  }
  RecordSimdTier();
  Bytes input;
  if (!ReadFile(argv[2], &input)) {
    std::fprintf(stderr, "cannot read '%s'\n", argv[2]);
    return 1;
  }
  DecompressionStats stats;
  SalvageReport report;
  const bool salvaging = options.on_chunk_error != ChunkErrorPolicy::kFail;
  if (salvaging) options.salvage_report = &report;
  Result<Bytes> restored =
      have_range
          ? IsobarCompressor::DecompressRange(input, range_first, range_end,
                                              options, &stats)
          : column_mask != 0
                ? IsobarCompressor::DecompressColumns(input, column_mask,
                                                      options, &stats)
                : IsobarCompressor::Decompress(input, options, &stats);
  if (!restored.ok()) {
    std::fprintf(stderr, "%s\n", restored.status().ToString().c_str());
    // A corrupt container is exactly when the telemetry (e.g. the
    // pipeline.checksum_failures counter) is worth reading.
    telemetry_flags.Dump();
    return 1;
  }
  if (!WriteFile(argv[3], *restored)) {
    std::fprintf(stderr, "cannot write '%s'\n", argv[3]);
    return 1;
  }
  if (salvaging && !report.clean()) {
    std::fprintf(stderr,
                 "salvage: %llu of %llu chunks recovered (%llu skipped, "
                 "%llu zero-filled); %llu bytes recovered, %llu lost%s\n",
                 static_cast<unsigned long long>(report.chunks_recovered),
                 static_cast<unsigned long long>(report.chunks_total),
                 static_cast<unsigned long long>(report.chunks_skipped),
                 static_cast<unsigned long long>(report.chunks_zero_filled),
                 static_cast<unsigned long long>(report.bytes_recovered),
                 static_cast<unsigned long long>(report.bytes_lost),
                 report.truncated_tail ? "; tail framing destroyed" : "");
    for (const auto& damaged : report.damaged) {
      // The error already names the chunk and container offset.
      std::fprintf(stderr, "  [%s] %s\n",
                   damaged.action == ChunkErrorPolicy::kZeroFill
                       ? "zero-filled"
                       : "skipped",
                   damaged.error.ToString().c_str());
    }
  }
  std::fprintf(stderr,
               "%zu -> %zu bytes at %.1f MB/s (%s; "
               "parse %.3fs, decode %.3fs, scatter %.3fs)\n",
               input.size(), restored->size(), stats.decompression_mbps(),
               column_mask != 0
                   ? "column read: chunk CRCs cover full chunks only"
                   : "checksums verified",
               stats.parse_seconds, stats.decode_seconds,
               stats.scatter_seconds);
  if (!telemetry_flags.Dump()) return 1;
  return 0;
}

int Info(char** argv) {
  Bytes input;
  if (!ReadFile(argv[2], &input)) {
    std::fprintf(stderr, "cannot read '%s'\n", argv[2]);
    return 1;
  }
  size_t offset = 0;
  auto header = container::ParseHeader(input, &offset);
  if (!header.ok()) {
    std::fprintf(stderr, "%s\n", header.status().ToString().c_str());
    return 1;
  }
  std::printf("ISOBAR container v%u\n", header->version);
  // A v2 chunk-index footer makes the container range/column addressable,
  // and supplies the totals a streamed (sentinel-header) container lacks.
  bool indexed = false;
  if (header->version >= container::kVersion) {
    auto index = container::ParseFooter(input, *header);
    if (index.ok()) {
      indexed = true;
      header->element_count = index->element_count;
      header->chunk_count = index->entries.size();
    }
  }
  std::printf("  chunk index   : %s\n",
              indexed ? "present (range/column addressable)"
                      : "absent (sequential access only)");
  std::printf("  element width : %u bytes\n", header->width);
  std::printf("  elements      : %llu\n",
              static_cast<unsigned long long>(header->element_count));
  std::printf("  chunks        : %llu x %llu elements\n",
              static_cast<unsigned long long>(header->chunk_count),
              static_cast<unsigned long long>(header->chunk_elements));
  std::printf("  solver        : %s, %s linearization (%s preference)\n",
              std::string(CodecIdToString(header->codec)).c_str(),
              std::string(LinearizationToString(header->linearization))
                  .c_str(),
              std::string(PreferenceToString(header->preference)).c_str());
  std::printf("  analyzer tau  : %.2f\n", header->tau_centi / 100.0);

  uint64_t improvable = 0, stored_raw = 0, compressed_bytes = 0,
           raw_bytes = 0;
  for (uint64_t i = 0; i < header->chunk_count; ++i) {
    auto chunk = container::ParseChunkHeader(input, &offset);
    if (!chunk.ok()) {
      std::fprintf(stderr, "chunk %llu: %s\n",
                   static_cast<unsigned long long>(i),
                   chunk.status().ToString().c_str());
      return 1;
    }
    if (!(chunk->flags & container::kChunkUndetermined)) ++improvable;
    if (chunk->flags & container::kChunkStoredRaw) ++stored_raw;
    compressed_bytes += chunk->compressed_size;
    raw_bytes += chunk->raw_size;
    offset += chunk->compressed_size + chunk->raw_size;
  }
  std::printf("  improvable    : %llu of %llu chunks (%llu stored raw)\n",
              static_cast<unsigned long long>(improvable),
              static_cast<unsigned long long>(header->chunk_count),
              static_cast<unsigned long long>(stored_raw));
  std::printf("  payload       : %llu solver bytes + %llu raw noise bytes\n",
              static_cast<unsigned long long>(compressed_bytes),
              static_cast<unsigned long long>(raw_bytes));
  return 0;
}

// Chunk-by-chunk integrity check: decodes every chunk with CRC
// verification but never materializes more than one chunk of plaintext,
// so arbitrarily large archives verify in constant memory.
int Verify(char** argv) {
  Bytes input;
  if (!ReadFile(argv[2], &input)) {
    std::fprintf(stderr, "cannot read '%s'\n", argv[2]);
    return 1;
  }
  IsobarStreamReader reader(input);
  Status status = reader.Init();
  if (!status.ok()) {
    std::printf("BAD header: %s\n", status.ToString().c_str());
    return 1;
  }
  Bytes chunk;
  uint64_t bytes = 0;
  for (;;) {
    auto more = reader.NextChunk(&chunk);
    if (!more.ok()) {
      std::printf("BAD chunk %llu: %s\n",
                  static_cast<unsigned long long>(reader.chunks_read()),
                  more.status().ToString().c_str());
      return 1;
    }
    if (!*more) break;
    bytes += chunk.size();
  }
  std::printf("OK: %llu chunks, %llu bytes, all checksums verified\n",
              static_cast<unsigned long long>(reader.chunks_read()),
              static_cast<unsigned long long>(bytes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::strcmp(argv[1], "c") == 0) return Compress(argc, argv);
  if (argc >= 4 && std::strcmp(argv[1], "d") == 0) {
    return Decompress(argc, argv);
  }
  if (argc == 3 && std::strcmp(argv[1], "info") == 0) return Info(argv);
  if (argc == 3 && std::strcmp(argv[1], "verify") == 0) return Verify(argv);
  return Usage(argv[0]);
}
