// service: an in-process IsobarServer on a unix socket, driven open-loop
// at fixed rates. 70% of requests compress a 32 KiB payload of one of the
// checkpoint workload's five profiles with codec and linearization left to
// EUPA (speed preference); 30% decompress containers built at set-up.
// Telemetry is on, as isobard runs it. Every compress request pays a full
// EUPA selection on a tiny payload, so selection, queue wait, the IO loop
// and telemetry dominate; chunk fan-out and large solver passes do not.
#include <string>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::vector<std::string> kProfiles = {"gts_phi_l", "s3d_temp",
                                            "xgc_igid", "msg_sppm",
                                            "obs_error"};
constexpr size_t kPayloadBytes = 32 << 10;
constexpr size_t kPayloadsPerProfile = 16;

// Open-loop arrival rates, requests per second. The nominal rate keeps
// the four-worker server well below saturation on the reference host
// (4 vCPU); the ladder walks up from it to find the highest rate whose
// compress tail latency stays within kLatencyLimitMs with nothing shed
// and no backlog left when the schedule ends.
constexpr double kNominalRate = 80.0;
const std::vector<double> kLadder = {160.0, 240.0, 320.0, 400.0, 480.0,
                                     560.0};
constexpr double kLatencyLimitMs = 50.0;
constexpr double kNominalShare = 0.6;  // of --seconds; the rest is the ladder

void AddFailures(const OpenLoopResult& run, bool count_shed,
                 Outcome* outcome) {
  outcome->attempted += run.requests;
  outcome->failed += count_shed ? run.failed : run.failed - run.busy;
  for (const std::string& failure : run.failures) {
    if (outcome->failures.size() < 8) outcome->failures.push_back(failure);
  }
}

Field AsField(const Bytes& payload, size_t width, const std::string& name) {
  Field field;
  field.name = name;
  field.width = width;
  field.data = payload;
  return field;
}

}  // namespace

Outcome RunService(const Settings& settings) {
  Outcome outcome;
  // One pacing sender plus a reader per connection: nproc client threads.
  const size_t connections = std::max<size_t>(1, settings.nproc - 1);
  std::vector<double> setup_s;
  JobPool pool;
  std::vector<Field> profiles;
  std::unique_ptr<isobar::server::IsobarServer> server;
  std::string socket_path;
  for (int rep = 0; rep < SetupReps(settings); ++rep) {
    if (server != nullptr) server->Stop();
    server.reset();
    pool = JobPool();
    const int64_t start = NowNs();
    // Elements per profile: enough for every payload of the widest type.
    auto made = MakeFields(kProfiles, kPayloadsPerProfile * kPayloadBytes / 4,
                           settings.seed);
    if (!made.ok()) {
      outcome.Check(false, "generate payloads: " + made.status().ToString());
      return outcome;
    }
    profiles = std::move(*made);
    for (const Field& field : profiles) {
      AddPayloads(field, kPayloadsPerProfile, kPayloadBytes, &pool);
    }
    Status built = BuildJobs(settings.nproc, &pool);
    if (!built.ok()) {
      outcome.Check(false, "build containers: " + built.ToString());
      return outcome;
    }
    if (!settings.trace) {
      auto started = StartServer(settings, &socket_path);
      if (!started.ok()) {
        outcome.Check(false, "start server: " + started.status().ToString());
        return outcome;
      }
      server = std::move(*started);
    }
    setup_s.push_back(SecondsSince(start));
  }
  if (settings.corrupt) {
    for (Bytes& container : pool.containers) {
      container[container.size() / 2] ^= 0x40;
    }
  }

  OpenLoopOptions nominal;
  nominal.rate = settings.tiny ? 40.0 : kNominalRate;
  nominal.seconds = settings.seconds * kNominalShare;
  nominal.seed = SubSeed(settings.seed, "service.nominal");
  nominal.connections = connections;

  if (settings.trace) {
    LayerProbe probe(settings, &outcome);
    for (size_t p = 0; p < profiles.size(); ++p) {
      const size_t base = p * kPayloadsPerProfile;
      for (size_t k = 0; k < 4; ++k) {
        const Field payload = AsField(pool.payloads[base + k],
                                      pool.widths[base + k], kProfiles[p]);
        auto container = probe.Compress(payload, /*overhead=*/p == 0 && k == 0);
        if (!container.ok()) continue;
        probe.Decompress(pool.containers[base + k], payload.data,
                         /*overhead=*/p == 0 && k == 0);
        const uint64_t n = payload.elements();
        probe.Range(pool.containers[base + k], n / 4, n / 2);
        probe.Columns(pool.containers[base + k], 3ull << (payload.width - 2));
      }
      const Field first = AsField(pool.payloads[base], pool.widths[base],
                                  kProfiles[p]);
      probe.DecisionChanges(first, 3);
      probe.ThreadPoolSpeedup(first);
      probe.StreamAppend(profiles[p], kPayloadBytes);
      probe.TelemetryOverhead(first, 5);
    }
    probe.ServiceLayers(pool, nominal, /*select_is_eupa=*/true);
    probe.Finish("service");
    return outcome;
  }

  const OpenLoopResult run = RunSocketOpenLoop(socket_path, pool.compress,
                                               pool.decompress, nominal);
  AddFailures(run, /*count_shed=*/true, &outcome);

  double max_rps = 0.0;
  const std::vector<double> ladder =
      settings.tiny ? std::vector<double>{40.0} : kLadder;
  const double rung_seconds = settings.seconds * (1.0 - kNominalShare) /
                              static_cast<double>(ladder.size());
  for (size_t r = 0; r < ladder.size(); ++r) {
    OpenLoopOptions rung = nominal;
    rung.rate = ladder[r];
    rung.seconds = rung_seconds;
    rung.seed = SubSeed(settings.seed, "service.rung" + std::to_string(r));
    const OpenLoopResult result = RunSocketOpenLoop(
        socket_path, pool.compress, pool.decompress, rung);
    // Shedding on a rung is how the ceiling shows, not a broken reply.
    AddFailures(result, /*count_shed=*/false, &outcome);
    const bool pass = result.failed == 0 &&
                      result.compress_ms.Tail() <= kLatencyLimitMs &&
                      result.drain_ms <= kLatencyLimitMs;
    outcome.Report("rung_" + std::to_string(r) + "_compress_tail_ms", "ms",
                   result.compress_ms.Tail());
    if (!pass) break;
    max_rps = rung.rate;
  }
  server->Stop();

  const double ratio =
      run.compress_out == 0 ? 0.0
                            : static_cast<double>(run.compress_in) /
                                  static_cast<double>(run.compress_out);
  // Requests are all one size, so their latency is unimodal and the
  // median is the typical request; the mean would follow the rare request
  // that queued behind compress jobs.
  const double compress_p50 = run.compress_ms.Median();
  double compress_pct = 0, decompress_pct = 0;
  const double compress_tail = run.compress_ms.Tail(&compress_pct);
  const double decompress_tail = run.decompress_ms.Tail(&decompress_pct);
  outcome.Add("setup_s", "s", MedianOf(setup_s));
  outcome.Add("peak_rss_mb", "MB", PeakRssMb());
  outcome.Add("compression_ratio", "x", ratio);
  outcome.Add("write_mbps", "MB/s",
              compress_p50 > 0
                  ? static_cast<double>(kPayloadBytes) / 1e3 / compress_p50
                  : 0.0);
  outcome.Add("write_ms", "ms", compress_p50);
  outcome.Add("read_ms", "ms", run.decompress_ms.Median());

  outcome.Report("compress_p50_ms", "ms", run.compress_ms.Median());
  outcome.Report("compress_p99_ms", "ms", compress_tail);
  outcome.Report("compress_tail_percentile", "%", compress_pct);
  outcome.Report("compress_samples", "count",
                 static_cast<double>(run.compress_ms.size()));
  outcome.Report("decompress_p50_ms", "ms", run.decompress_ms.Median());
  outcome.Report("decompress_p99_ms", "ms", decompress_tail);
  outcome.Report("decompress_tail_percentile", "%", decompress_pct);
  outcome.Report("decompress_samples", "count",
                 static_cast<double>(run.decompress_ms.size()));
  outcome.Report("max_rps", "req/s", max_rps);
  outcome.Report("max_rps_latency_limit_ms", "ms", kLatencyLimitMs);
  outcome.Report("nominal_rate", "req/s", nominal.rate);
  outcome.Report("generator_lag_p99_ms", "ms", run.lag_ms.Tail());
  return outcome;
}

}  // namespace perfbench
