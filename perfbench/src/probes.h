#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "openloop.h"
#include "server/server.h"
#include "trace.h"

namespace perfbench {

/// Starts an in-process IsobarServer the way isobard runs it (metrics on,
/// default queue bounds, one worker per core) on a unix socket under the
/// output directory.
isobar::Result<std::unique_ptr<isobar::server::IsobarServer>> StartServer(
    const Settings& settings, std::string* socket_path);

/// Request payloads of a service mix: each payload, its element width,
/// and the container it compresses to (built at set-up, the input of
/// decompress requests).
struct JobPool {
  std::vector<Bytes> payloads;
  std::vector<size_t> widths;
  std::vector<Bytes> containers;
  std::vector<Job> compress;
  std::vector<Job> decompress;
};
/// Cuts `count` consecutive payloads of `payload_bytes` (a multiple of
/// the field's width) from `field`.
void AddPayloads(const Field& field, size_t count, size_t payload_bytes,
                 JobPool* pool);
/// Compresses every payload (auto selection, one thread per call, up to
/// `threads` calls at once) and builds the job lists; call once, after
/// the last AddPayloads.
Status BuildJobs(size_t threads, JobPool* pool);

/// The traced mode's measuring kit. Every workload runs the same probes
/// on its own inputs, so every per-layer metric exists on every workload;
/// a layer the workload's own operations never call still gets timed on
/// the workload's data, and its share of the workload's calls reads 0.
class LayerProbe {
 public:
  explicit LayerProbe(const Settings& settings, Outcome* outcome);

  /// Compress replay of `field`, checked byte for byte against a
  /// one-thread Compress with the replay's decision forced. Returns the
  /// replay's container. With `overhead` set, the replay also runs once
  /// untraced to price the tracing itself.
  isobar::Result<Bytes> Compress(const Field& field, bool overhead);
  /// Decode replay of a whole container, checked against Decompress and
  /// against the original bytes.
  void Decompress(ByteSpan container, const Bytes& original, bool overhead);
  /// Range and column replays, checked against the library calls.
  void Range(ByteSpan container, uint64_t first, uint64_t end);
  void Columns(ByteSpan container, uint64_t mask);

  /// Repeated EupaSelector::Select on identical bytes; counts changes of
  /// the returned codec or linearization.
  void DecisionChanges(const Field& field, int repeats);
  /// Serial over nproc-thread wall time of Compress and Decompress.
  void ThreadPoolSpeedup(const Field& field);
  /// Longest producer-blocking IsobarStreamWriter::Append.
  void StreamAppend(const Field& field, size_t append_bytes);
  /// One-thread Compress with metrics plus timeline on, against both off.
  void TelemetryOverhead(const Field& field, int repeats);
  /// Direct ExecuteJob (and, when `select_is_eupa`, per-request Select)
  /// timings, an in-process JobQueue and a socket run with PINGs under
  /// the same schedule.
  void ServiceLayers(const JobPool& pool, const OpenLoopOptions& schedule,
                     bool select_is_eupa);

  /// Writes the Chrome trace and summary, and adds every per-layer metric.
  void Finish(const std::string& workload);

 private:
  const Settings& settings_;
  Outcome* outcome_;
  Tracer tracer_;

  Samples select_ms_;
  double eupa_num_s_ = 0.0;   ///< Σ Select wall when taken per request.
  double eupa_den_s_ = 0.0;   ///< Σ ExecuteJob wall for those requests.
  Samples trials_run_;
  Samples trials_pruned_;
  uint64_t decision_changes_ = 0;
  uint64_t compress_input_bytes_ = 0;
  uint64_t solver_input_bytes_ = 0;
  uint64_t stored_raw_chunks_ = 0;
  uint64_t range_decoded_ = 0;
  uint64_t range_returned_ = 0;
  uint64_t column_decoded_ = 0;
  uint64_t column_returned_ = 0;
  double traced_s_ = 0.0;
  double untraced_s_ = 0.0;
  Samples compress_speedup_;
  Samples decompress_speedup_;
  Samples append_ms_;
  Samples telemetry_on_s_;
  Samples telemetry_off_s_;
  OpenLoopResult queue_run_;
  OpenLoopResult socket_run_;
  Samples exec_compress_ms_;
  Samples exec_decompress_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
