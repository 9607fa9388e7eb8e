#ifndef ISOBAR_BENCH_BENCH_COMMON_H_
#define ISOBAR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>

#include "compressors/registry.h"
#include "core/isobar.h"
#include "datagen/registry.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_export.h"

namespace isobar::bench {

/// Common command-line arguments of the table/figure benchmarks.
///
///   --mb=<float>            synthetic data per dataset in MB (default 2.0)
///   --steps=<int>           time steps for the consistency study (default 20)
///   --telemetry-json=<path> enable telemetry, tracing and the timeline for
///                           the whole run and dump the combined report at
///                           exit
///   --timeline-json=<path>  enable the cross-thread event timeline and
///                           dump it as Chrome trace-event JSON at exit
///   --timeline-capacity=N   events per thread ring (default 8192)
///
/// The paper ran on full datasets (18 MB - 1.1 GB) on a 2009-era Opteron;
/// a few MB per dataset reproduces every ratio and verdict to the
/// reported precision while keeping the whole harness interactive.
struct Args {
  double mb = 2.0;
  int steps = 20;
  std::string telemetry_json;
  std::string timeline_json;
};

Args ParseArgs(int argc, char** argv);

/// Point-in-time capture of the global telemetry state. Capture one
/// before and one after a measured region and diff them to attribute
/// per-stage work (spans, codec bytes, chunk counts) to exactly that
/// region — the machine-readable per-stage breakdown behind every
/// wall-clock number a bench target prints.
struct TelemetrySnapshot {
  telemetry::MetricsSnapshot metrics;

  static TelemetrySnapshot Capture();

  /// Counter/histogram deltas accumulated since `before` was captured.
  telemetry::MetricsSnapshot Since(const TelemetrySnapshot& before) const;
};

/// Writes the combined telemetry report (metrics + spans + traces) as
/// JSON. Used by the --telemetry-json at-exit hook; also callable
/// directly around a single table's measurement.
void DumpTelemetryJson(const std::string& path);

/// One measured run of a standalone general-purpose solver: compress,
/// decompress, verify losslessness. Aborts the benchmark with a message on
/// any failure — a harness must never report numbers for a broken run.
struct SolverRun {
  double ratio = 0.0;
  double compress_mbps = 0.0;
  double decompress_mbps = 0.0;
};

SolverRun RunSolver(CodecId id, ByteSpan data);

/// One measured run of the full ISOBAR pipeline (compress + decompress +
/// verify).
struct IsobarRun {
  CompressionStats stats;
  DecompressionStats dstats;

  double ratio() const { return stats.ratio(); }
  double compress_mbps() const { return stats.compression_mbps(); }
  double decompress_mbps() const { return dstats.decompression_mbps(); }
};

IsobarRun RunIsobar(const CompressOptions& options, ByteSpan data,
                    size_t width);

/// Materializes a dataset profile at the benchmark scale.
Dataset Generate(const DatasetSpec& spec, const Args& args);

/// Pipeline options for the two end-user preferences with defaults used
/// throughout the harness.
CompressOptions SpeedOptions();
CompressOptions RatioOptions();

inline const char* YesNo(bool b) { return b ? "Yes" : "No"; }

/// Prints a horizontal rule of the given width.
void PrintRule(int width);

}  // namespace isobar::bench

#endif  // ISOBAR_BENCH_BENCH_COMMON_H_
