// checkpoint: in-situ checkpoint write and restart read of five variables
// that cover Table IV's verdict classes. Each pass compresses every
// variable with the batch compressor, streams the same bytes through
// IsobarStreamWriter in sub-chunk appends, and restores the batch
// container with a full Decompress; every output is checked against its
// input. Nothing passes through the server.
#include <string>
#include <vector>

#include "core/chunker.h"
#include "core/isobar.h"
#include "core/stream.h"
#include "io/sink.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using isobar::IsobarCompressor;

// gts_phi_l: f64, 75% noise bytes, improvable; s3d_temp: f32, improvable;
// xgc_igid: i64 particle ids; msg_sppm: smooth, non-improvable,
// solver-bound; obs_error: noisy but non-improvable.
const std::vector<std::string> kVariables = {"gts_phi_l", "s3d_temp",
                                             "xgc_igid", "msg_sppm",
                                             "obs_error"};
constexpr size_t kAppendBytes = 1 << 20;  // smaller than any chunk
constexpr size_t kPayloadBytes = 32 << 10;

void Trace(const Settings& settings, const std::vector<Field>& fields,
           Outcome* outcome) {
  LayerProbe probe(settings, outcome);
  isobar::Xoshiro256 rng(SubSeed(settings.seed, "checkpoint.trace"));
  for (size_t i = 0; i < fields.size(); ++i) {
    const Field& field = fields[i];
    auto container = probe.Compress(field, /*overhead=*/i == 0);
    if (!container.ok()) continue;
    probe.Decompress(*container, field.data, /*overhead=*/i == 0);
    const uint64_t n = field.elements();
    const uint64_t length = 1 + rng.NextBounded(std::min<uint64_t>(
                                    n, 2 * isobar::kDefaultChunkElements));
    const uint64_t first = rng.NextBounded(n - length + 1);
    probe.Range(*container, first, first + length);
    probe.Columns(*container, 3ull << (field.width - 2));
    probe.DecisionChanges(field, 3);
    probe.ThreadPoolSpeedup(field);
    probe.StreamAppend(field, kAppendBytes);
  }
  probe.TelemetryOverhead(fields.front(), 3);
  JobPool pool;
  for (const Field& field : fields) {
    AddPayloads(field, 4, kPayloadBytes, &pool);
  }
  const Status built = BuildJobs(settings.nproc, &pool);
  outcome->Check(built.ok(), "service job set-up: " + built.ToString());
  if (built.ok()) {
    OpenLoopOptions schedule;
    schedule.rate = 50.0;
    schedule.seconds = settings.tiny ? 0.3 : 2.0;
    schedule.seed = SubSeed(settings.seed, "checkpoint.schedule");
    schedule.connections = std::max<size_t>(1, settings.nproc - 1);
    probe.ServiceLayers(pool, schedule, /*select_is_eupa=*/false);
  }
  probe.Finish("checkpoint");
}

}  // namespace

Outcome RunCheckpoint(const Settings& settings) {
  Outcome outcome;
  // At least 4 x nproc chunks per variable, so the chunk pool stays full.
  const uint64_t elements =
      settings.tiny ? isobar::kDefaultChunkElements + 4096
                    : 4 * settings.nproc * isobar::kDefaultChunkElements;

  std::vector<double> setup_s;
  std::vector<Field> fields;
  for (int rep = 0; rep < SetupReps(settings); ++rep) {
    fields.clear();
    const int64_t start = NowNs();
    auto made = MakeFields(kVariables, elements, settings.seed);
    setup_s.push_back(SecondsSince(start));
    if (!made.ok()) {
      outcome.Check(false, "generate variables: " + made.status().ToString());
      return outcome;
    }
    fields = std::move(*made);
  }
  if (settings.trace) {
    Trace(settings, fields, &outcome);
    return outcome;
  }

  isobar::CompressOptions options;
  options.num_threads = static_cast<uint32_t>(settings.nproc);
  isobar::DecompressOptions read_options;
  read_options.num_threads = static_cast<uint32_t>(settings.nproc);
  const IsobarCompressor compressor(options);

  // Per-call samples, and Σ per pass (every pass handles the same bytes).
  Samples compress_ms, decompress_ms;
  std::vector<double> pass_compress_ms, pass_stream_ms, pass_decompress_ms;
  uint64_t input_bytes = 0;
  uint64_t container_bytes = 0;
  // Last verified stream container per variable: an identical rewrite
  // needs no second decode.
  std::vector<Bytes> verified_stream(fields.size());
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(settings.seconds * 1e9);
  do {
    pass_compress_ms.push_back(0.0);
    pass_stream_ms.push_back(0.0);
    pass_decompress_ms.push_back(0.0);
    for (size_t i = 0; i < fields.size(); ++i) {
      const Field& field = fields[i];
      int64_t start = NowNs();
      auto container = compressor.Compress(field.bytes(), field.width);
      const double c_s = SecondsSince(start);
      outcome.Check(container.ok(), field.name + ": Compress");
      if (!container.ok()) continue;
      compress_ms.Add(c_s * 1e3);
      pass_compress_ms.back() += c_s * 1e3;
      input_bytes += field.data.size();
      container_bytes += container->size();

      Bytes streamed;
      streamed.reserve(container->size() + (1 << 20));
      isobar::MemorySink sink(&streamed);
      start = NowNs();
      isobar::IsobarStreamWriter writer(options, field.width, &sink);
      bool stream_ok = true;
      for (size_t offset = 0; offset < field.data.size() && stream_ok;
           offset += kAppendBytes) {
        stream_ok = writer
                        .Append(field.bytes().subspan(
                            offset, std::min(kAppendBytes,
                                             field.data.size() - offset)))
                        .ok();
      }
      stream_ok = stream_ok && writer.Finish().ok();
      pass_stream_ms.back() += SecondsSince(start) * 1e3;
      if (stream_ok && streamed != verified_stream[i]) {
        auto decoded = IsobarCompressor::Decompress(streamed);
        stream_ok = decoded.ok() && *decoded == field.data;
        if (stream_ok) verified_stream[i] = std::move(streamed);
      }
      outcome.Check(stream_ok, field.name + ": stream write round trip");

      if (settings.corrupt) (*container)[container->size() / 2] ^= 0x40;
      start = NowNs();
      auto restored = IsobarCompressor::Decompress(*container, read_options);
      const double d_s = SecondsSince(start);
      outcome.Check(restored.ok() && *restored == field.data,
                    field.name + ": Decompress round trip");
      decompress_ms.Add(d_s * 1e3);
      pass_decompress_ms.back() += d_s * 1e3;
    }
  } while (NowNs() < deadline);

  const double ratio = container_bytes == 0
                           ? 0.0
                           : static_cast<double>(input_bytes) /
                                 static_cast<double>(container_bytes);
  // Every pass handles the same bytes, so a phase's throughput is pass MB
  // over its median pass time, and its per-variable time is the median
  // pass time over the variables: a burst of host load in a few passes
  // does not move either.
  double pass_mb = 0;
  for (const Field& field : fields) {
    pass_mb += static_cast<double>(field.data.size()) / 1e6;
  }
  const double n_vars = static_cast<double>(fields.size());
  const double compress_pass_ms = MedianOf(pass_compress_ms);
  const double stream_pass_ms = MedianOf(pass_stream_ms);
  const double decompress_pass_ms = MedianOf(pass_decompress_ms);
  auto mbps = [pass_mb](double ms) {
    return ms > 0 ? pass_mb / (ms / 1e3) : 0.0;
  };
  outcome.Add("setup_s", "s", MedianOf(setup_s));
  outcome.Add("peak_rss_mb", "MB", PeakRssMb());
  outcome.Add("compression_ratio", "x", ratio);
  outcome.Add("write_mbps", "MB/s", mbps(compress_pass_ms));
  outcome.Add("write_ms", "ms", compress_pass_ms / n_vars);
  outcome.Add("read_ms", "ms", decompress_pass_ms / n_vars);
  double percentile = 0;
  const double tail = decompress_ms.Tail(&percentile);

  outcome.Report("compress_mbps", "MB/s", mbps(compress_pass_ms));
  outcome.Report("stream_write_mbps", "MB/s", mbps(stream_pass_ms));
  outcome.Report("decompress_mbps", "MB/s", mbps(decompress_pass_ms));
  outcome.Report("compression_ratio", "x", ratio);
  outcome.Report("passes", "count",
                 static_cast<double>(pass_compress_ms.size()));
  outcome.Report("variable_compress_p50_ms", "ms", compress_ms.Median());
  outcome.Report("variable_decompress_p50_ms", "ms", decompress_ms.Median());
  outcome.Report("variable_decompress_tail_ms", "ms", tail);
  outcome.Report("variable_decompress_tail_percentile", "%", percentile);
  outcome.Report("variable_samples", "count",
                 static_cast<double>(decompress_ms.size()));
  return outcome;
}

}  // namespace perfbench
