#include "bench_common.h"

#include <cstdlib>
#include <cstring>
#include <fstream>

#include "simd/dispatch.h"
#include "telemetry/timeline.h"
#include "util/stopwatch.h"

namespace isobar::bench {
namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "benchmark failed: %s\n", message.c_str());
  std::exit(1);
}

// Destination of the --telemetry-json at-exit dump (static storage:
// atexit handlers take no arguments).
std::string& TelemetryDumpPath() {
  static std::string& path = *new std::string();
  return path;
}

void DumpTelemetryAtExit() {
  if (!TelemetryDumpPath().empty()) DumpTelemetryJson(TelemetryDumpPath());
}

std::string& TimelineDumpPath() {
  static std::string& path = *new std::string();
  return path;
}

void DumpTimelineAtExit() {
  if (TimelineDumpPath().empty()) return;
  const std::string json = telemetry::TimelineToJson(
      telemetry::Timeline::Global().Snapshot());
  std::ofstream file(TimelineDumpPath(),
                     std::ios::binary | std::ios::trunc);
  file << json;
  if (!file.good()) {
    std::fprintf(stderr, "warning: cannot write timeline to '%s'\n",
                 TimelineDumpPath().c_str());
  }
}

// The active SIMD dispatch tier as a metrics-registry counter
// (simd.tier.<name> = 1). Recorded here because the telemetry library
// cannot link against the simd library.
void RecordSimdTier() {
  const std::string name =
      "simd.tier." + std::string(simd::TierToString(simd::ActiveTier()));
  telemetry::GetCounter(name).Add(1);
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--mb=", 5) == 0) {
      args.mb = std::atof(arg + 5);
      if (args.mb <= 0.0) Die("--mb must be positive");
    } else if (std::strncmp(arg, "--steps=", 8) == 0) {
      args.steps = std::atoi(arg + 8);
      if (args.steps <= 0) Die("--steps must be positive");
    } else if (std::strncmp(arg, "--telemetry-json=", 17) == 0) {
      args.telemetry_json = arg + 17;
      if (args.telemetry_json.empty()) Die("--telemetry-json needs a path");
    } else if (std::strncmp(arg, "--timeline-json=", 16) == 0) {
      args.timeline_json = arg + 16;
      if (args.timeline_json.empty()) Die("--timeline-json needs a path");
    } else if (std::strncmp(arg, "--timeline-capacity=", 20) == 0) {
      telemetry::Timeline::Global().set_capacity_per_thread(
          static_cast<size_t>(std::strtoull(arg + 20, nullptr, 10)));
    } else {
      Die(std::string("unknown argument '") + arg +
          "' (supported: --mb=<float>, --steps=<int>, "
          "--telemetry-json=<path>, --timeline-json=<path>, "
          "--timeline-capacity=<int>)");
    }
  }
  if (!args.telemetry_json.empty()) {
    telemetry::SetEnabled(true);
    // The report's "spans" are the Timeline's events.
    telemetry::Timeline::Global().SetEnabled(true);
    TelemetryDumpPath() = args.telemetry_json;
    std::atexit(DumpTelemetryAtExit);
  }
  if (!args.timeline_json.empty()) {
    telemetry::SetEnabled(true);
    telemetry::Timeline::Global().SetEnabled(true);
    TimelineDumpPath() = args.timeline_json;
    std::atexit(DumpTimelineAtExit);
  }
  if (telemetry::Enabled()) RecordSimdTier();
  return args;
}

TelemetrySnapshot TelemetrySnapshot::Capture() {
  TelemetrySnapshot snapshot;
  snapshot.metrics = telemetry::MetricsRegistry::Global().Snapshot();
  return snapshot;
}

telemetry::MetricsSnapshot TelemetrySnapshot::Since(
    const TelemetrySnapshot& before) const {
  return telemetry::Delta(before.metrics, metrics);
}

void DumpTelemetryJson(const std::string& path) {
  const std::string report = telemetry::TelemetryReportJson();
  if (path == "-") {
    std::fwrite(report.data(), 1, report.size(), stdout);
    return;
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << report;
  if (!file.good()) {
    std::fprintf(stderr, "warning: cannot write telemetry to '%s'\n",
                 path.c_str());
  }
}

SolverRun RunSolver(CodecId id, ByteSpan data) {
  auto codec = GetCodec(id);
  if (!codec.ok()) Die(codec.status().ToString());

  SolverRun run;
  Bytes compressed;
  Stopwatch timer;
  Status status = (*codec)->Compress(data, &compressed);
  if (!status.ok()) Die(status.ToString());
  run.compress_mbps = timer.ThroughputMBps(data.size());
  run.ratio = static_cast<double>(data.size()) /
              static_cast<double>(compressed.size());

  Bytes restored;
  timer.Reset();
  status = (*codec)->Decompress(compressed, data.size(), &restored);
  if (!status.ok()) Die(status.ToString());
  run.decompress_mbps = timer.ThroughputMBps(data.size());
  if (!std::equal(restored.begin(), restored.end(), data.begin())) {
    Die("solver round trip produced different bytes");
  }
  return run;
}

IsobarRun RunIsobar(const CompressOptions& options, ByteSpan data,
                    size_t width) {
  const IsobarCompressor compressor(options);
  IsobarRun run;
  auto compressed = compressor.Compress(data, width, &run.stats);
  if (!compressed.ok()) Die(compressed.status().ToString());
  auto restored =
      IsobarCompressor::Decompress(*compressed, DecompressOptions{}, &run.dstats);
  if (!restored.ok()) Die(restored.status().ToString());
  if (restored->size() != data.size() ||
      !std::equal(restored->begin(), restored->end(), data.begin())) {
    Die("ISOBAR round trip produced different bytes");
  }
  return run;
}

Dataset Generate(const DatasetSpec& spec, const Args& args) {
  auto dataset = GenerateDatasetMB(spec, args.mb);
  if (!dataset.ok()) Die(dataset.status().ToString());
  return std::move(*dataset);
}

CompressOptions SpeedOptions() {
  CompressOptions options;
  options.eupa.preference = Preference::kSpeed;
  return options;
}

CompressOptions RatioOptions() {
  CompressOptions options;
  options.eupa.preference = Preference::kRatio;
  // Ratio decisions deserve a bigger training sample: bzip2's advantage
  // only materializes once its BWT blocks fill, and sampling cost is
  // irrelevant when the user asked for the best ratio.
  options.eupa.sample_elements = 128 * 1024;
  return options;
}

void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace isobar::bench
