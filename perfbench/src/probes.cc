#include "probes.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <thread>

#include "core/analyzer.h"
#include "core/chunker.h"
#include "core/eupa_selector.h"
#include "core/isobar.h"
#include "core/stream.h"
#include "io/sink.h"
#include "replay.h"
#include "telemetry/metrics.h"
#include "telemetry/timeline.h"

namespace perfbench {
namespace {

using isobar::CompressOptions;
using isobar::IsobarCompressor;

uint64_t FullMask(size_t width) {
  return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer totals over a span log: a span's self time is its duration
/// minus the durations of its direct children.
struct LayerTotals {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  uint64_t bytes = 0;
};

/// Probe Analyze + Select exactly as the batch compressor runs them.
isobar::Result<isobar::EupaDecision> SelectLikeCompress(ByteSpan data,
                                                        size_t width) {
  const CompressOptions options;
  const isobar::Analyzer analyzer(options.analyzer);
  const uint64_t n = data.size() / width;
  const uint64_t probe_elements = std::min<uint64_t>(
      n, std::max<uint64_t>(options.eupa.sample_elements, 1));
  ISOBAR_ASSIGN_OR_RETURN(
      isobar::AnalysisResult probe,
      analyzer.Analyze(data.subspan(0, probe_elements * width), width));
  const uint64_t mask =
      probe.improvable() ? probe.compressible_mask : FullMask(width);
  return isobar::EupaSelector(options.eupa).Select(data, width, mask);
}

/// Leading slice of at most `chunks` default-size chunks.
ByteSpan Head(const Field& field, uint64_t chunks) {
  const size_t limit = static_cast<size_t>(
      chunks * isobar::kDefaultChunkElements * field.width);
  return field.bytes().subspan(0, std::min(limit, field.data.size()));
}

}  // namespace

isobar::Result<std::unique_ptr<isobar::server::IsobarServer>> StartServer(
    const Settings& settings, std::string* socket_path) {
  std::error_code ec;
  std::filesystem::create_directories(settings.out_dir, ec);
  // Relative on purpose: sun_path holds ~107 bytes and the checkout's
  // absolute path may be longer.
  *socket_path = settings.out_dir + "/sv" + std::to_string(getpid()) + ".sock";
  isobar::telemetry::SetEnabled(true);  // as isobard runs
  isobar::server::ServerOptions options;
  options.unix_socket_path = *socket_path;
  auto server = std::make_unique<isobar::server::IsobarServer>(options);
  ISOBAR_RETURN_NOT_OK(server->Start());
  return server;
}

void AddPayloads(const Field& field, size_t count, size_t payload_bytes,
                 JobPool* pool) {
  const size_t bytes = std::max(field.width, payload_bytes / field.width *
                                                 field.width);
  const size_t slots = std::max<size_t>(1, field.data.size() / bytes);
  for (size_t i = 0; i < count; ++i) {
    const size_t offset = (i % slots) * bytes;
    pool->payloads.emplace_back(field.data.begin() + offset,
                                field.data.begin() + offset + bytes);
    pool->widths.push_back(field.width);
  }
}

Status BuildJobs(size_t threads, JobPool* pool) {
  const size_t n = pool->payloads.size();
  pool->containers.assign(n, Bytes());
  std::vector<Status> status(n);
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < std::max<size_t>(1, threads); ++t) {
    workers.emplace_back([&] {
      CompressOptions options;
      options.num_threads = 1;
      const IsobarCompressor compressor(options);
      for (size_t i = next++; i < n; i = next++) {
        auto compressed =
            compressor.Compress(pool->payloads[i], pool->widths[i]);
        if (!compressed.ok()) {
          status[i] = compressed.status();
          continue;
        }
        pool->containers[i] = std::move(*compressed);
        auto decoded = IsobarCompressor::Decompress(pool->containers[i]);
        if (!decoded.ok() || *decoded != pool->payloads[i]) {
          status[i] =
              Status::Corruption("set-up container does not round-trip");
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const Status& s : status) ISOBAR_RETURN_NOT_OK(s);
  pool->compress.clear();
  pool->decompress.clear();
  for (size_t i = 0; i < n; ++i) {
    pool->compress.push_back(
        Job{true, &pool->payloads[i], &pool->payloads[i], pool->widths[i]});
    pool->decompress.push_back(
        Job{false, &pool->containers[i], &pool->payloads[i], pool->widths[i]});
  }
  return Status::OK();
}

LayerProbe::LayerProbe(const Settings& settings, Outcome* outcome)
    : settings_(settings), outcome_(outcome) {
  tracer_.enabled = true;
}

isobar::Result<Bytes> LayerProbe::Compress(const Field& field, bool overhead) {
  ++tracer_.op;
  const size_t first_span = tracer_.spans.size();
  const int64_t start = NowNs();
  auto replay = ReplayCompress(field.bytes(), field.width, &tracer_);
  const double traced_s = SecondsSince(start);
  if (!replay.ok()) {
    outcome_->Check(false, field.name + ": compress replay: " +
                         replay.status().ToString());
    return replay.status();
  }
  for (size_t i = first_span; i < tracer_.spans.size(); ++i) {
    const Span& span = tracer_.spans[i];
    if (std::string_view(span.name) == "eupa_selector.select") {
      select_ms_.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  double run = 0, pruned = 0;
  for (const auto& eval : replay->decision.evaluations) {
    (eval.pruned ? pruned : run) += 1;
  }
  trials_run_.Add(run);
  trials_pruned_.Add(pruned);
  compress_input_bytes_ += field.data.size();
  solver_input_bytes_ += replay->solver_input_bytes;
  stored_raw_chunks_ += replay->stored_raw_chunks;

  CompressOptions forced;
  forced.num_threads = 1;
  forced.eupa.forced_codec = replay->decision.codec;
  forced.eupa.forced_linearization = replay->decision.linearization;
  auto reference =
      IsobarCompressor(forced).Compress(field.bytes(), field.width);
  outcome_->Check(reference.ok() && *reference == replay->container,
                  field.name + ": compress replay differs from Compress");

  if (overhead) {
    tracer_.enabled = false;
    const int64_t untraced = NowNs();
    auto again = ReplayCompress(field.bytes(), field.width, &tracer_);
    untraced_s_ += SecondsSince(untraced);
    traced_s_ += traced_s;
    tracer_.enabled = true;
    outcome_->Check(again.ok(), field.name + ": untraced compress replay");
  }
  return std::move(replay->container);
}

void LayerProbe::Decompress(ByteSpan container, const Bytes& original,
                            bool overhead) {
  ++tracer_.op;
  const int64_t start = NowNs();
  auto replay = ReplayDecompress(container, &tracer_);
  const double traced_s = SecondsSince(start);
  auto reference = IsobarCompressor::Decompress(container);
  outcome_->Check(replay.ok() && reference.ok() && *replay == *reference &&
                      *reference == original,
                  "decode replay differs from Decompress or the original");
  if (overhead) {
    tracer_.enabled = false;
    const int64_t untraced = NowNs();
    auto again = ReplayDecompress(container, &tracer_);
    untraced_s_ += SecondsSince(untraced);
    traced_s_ += traced_s;
    tracer_.enabled = true;
    outcome_->Check(again.ok(), "untraced decode replay");
  }
}

void LayerProbe::Range(ByteSpan container, uint64_t first, uint64_t end) {
  ++tracer_.op;
  uint64_t decoded = 0;
  auto replay = ReplayRange(container, first, end, &tracer_, &decoded);
  auto reference = IsobarCompressor::DecompressRange(container, first, end);
  const bool same = replay.ok() && reference.ok() && *replay == *reference;
  outcome_->Check(same, "range replay differs from DecompressRange");
  if (same) {
    range_decoded_ += decoded;
    range_returned_ += reference->size();
  }
}

void LayerProbe::Columns(ByteSpan container, uint64_t mask) {
  ++tracer_.op;
  uint64_t decoded = 0;
  auto replay = ReplayColumns(container, mask, &tracer_, &decoded);
  auto reference = IsobarCompressor::DecompressColumns(container, mask);
  const bool same = replay.ok() && reference.ok() && *replay == *reference;
  outcome_->Check(same, "column replay differs from DecompressColumns");
  if (same) {
    column_decoded_ += decoded;
    column_returned_ += reference->size();
  }
}

void LayerProbe::DecisionChanges(const Field& field, int repeats) {
  auto first = SelectLikeCompress(field.bytes(), field.width);
  outcome_->Check(first.ok(), field.name + ": Select");
  if (!first.ok()) return;
  for (int r = 1; r < repeats; ++r) {
    auto again = SelectLikeCompress(field.bytes(), field.width);
    outcome_->Check(again.ok(), field.name + ": Select");
    if (again.ok() && (again->codec != first->codec ||
                       again->linearization != first->linearization)) {
      ++decision_changes_;
    }
  }
}

void LayerProbe::ThreadPoolSpeedup(const Field& field) {
  CompressOptions serial;
  serial.num_threads = 1;
  CompressOptions parallel;
  parallel.num_threads = static_cast<uint32_t>(settings_.nproc);
  int64_t start = NowNs();
  auto one = IsobarCompressor(serial).Compress(field.bytes(), field.width);
  const double serial_s = SecondsSince(start);
  start = NowNs();
  auto many = IsobarCompressor(parallel).Compress(field.bytes(), field.width);
  const double parallel_s = SecondsSince(start);
  outcome_->Check(one.ok() && many.ok(), field.name + ": Compress");
  if (!one.ok() || !many.ok()) return;
  compress_speedup_.Add(Ratio(serial_s, parallel_s));

  isobar::DecompressOptions serial_read;
  serial_read.num_threads = 1;
  isobar::DecompressOptions parallel_read;
  parallel_read.num_threads = static_cast<uint32_t>(settings_.nproc);
  start = NowNs();
  auto a = IsobarCompressor::Decompress(*many, serial_read);
  const double read_serial_s = SecondsSince(start);
  start = NowNs();
  auto b = IsobarCompressor::Decompress(*many, parallel_read);
  const double read_parallel_s = SecondsSince(start);
  outcome_->Check(a.ok() && b.ok() && *a == field.data && *b == field.data,
                  field.name + ": Decompress round trip");
  decompress_speedup_.Add(Ratio(read_serial_s, read_parallel_s));
}

void LayerProbe::StreamAppend(const Field& field, size_t append_bytes) {
  Bytes sunk;
  isobar::MemorySink sink(&sunk);
  CompressOptions options;
  options.num_threads = static_cast<uint32_t>(settings_.nproc);
  isobar::IsobarStreamWriter writer(options, field.width, &sink);
  bool ok = true;
  for (size_t offset = 0; offset < field.data.size() && ok;
       offset += append_bytes) {
    const size_t n = std::min(append_bytes, field.data.size() - offset);
    const int64_t start = NowNs();
    ok = writer.Append(field.bytes().subspan(offset, n)).ok();
    append_ms_.Add(static_cast<double>(NowNs() - start) / 1e6);
  }
  ok = ok && writer.Finish().ok();
  auto decoded = IsobarCompressor::Decompress(sunk);
  outcome_->Check(ok && decoded.ok() && *decoded == field.data,
                  field.name + ": stream write round trip");
}

void LayerProbe::TelemetryOverhead(const Field& field, int repeats) {
  const ByteSpan data = Head(field, 4);
  CompressOptions options;
  options.num_threads = 1;
  const IsobarCompressor compressor(options);
  const bool metrics_were_on = isobar::telemetry::Enabled();
  auto& timeline = isobar::telemetry::Timeline::Global();
  for (int r = 0; r < repeats; ++r) {
    for (const bool on : {r % 2 == 0, r % 2 != 0}) {
      isobar::telemetry::SetEnabled(on);
      timeline.SetEnabled(on);
      const int64_t start = NowNs();
      auto out = compressor.Compress(data, field.width);
      (on ? telemetry_on_s_ : telemetry_off_s_).Add(SecondsSince(start));
      outcome_->Check(out.ok(), field.name + ": Compress");
    }
  }
  timeline.SetEnabled(false);
  isobar::telemetry::SetEnabled(metrics_were_on);
}

void LayerProbe::ServiceLayers(const JobPool& pool,
                               const OpenLoopOptions& schedule,
                               bool select_is_eupa) {
  namespace server = isobar::server;
  for (const Job& job : pool.compress) {
    server::JobRequest request;
    request.kind = server::JobKind::kCompress;
    request.input = *job.payload;
    request.width = job.width;
    int64_t start = NowNs();
    server::JobResult result = server::JobQueue::ExecuteJob(request);
    const double exec_s = SecondsSince(start);
    auto decoded = result.status.ok()
                       ? IsobarCompressor::Decompress(result.output)
                       : isobar::Result<Bytes>(result.status);
    outcome_->Check(decoded.ok() && *decoded == *job.original,
              "ExecuteJob compress round trip");
    exec_compress_ms_.Add(exec_s * 1e3);
    if (!select_is_eupa) continue;
    start = NowNs();
    auto decision = SelectLikeCompress(*job.payload, job.width);
    const double select_s = SecondsSince(start);
    outcome_->Check(decision.ok(), "per-request Select");
    if (!decision.ok()) continue;
    select_ms_.Add(select_s * 1e3);
    eupa_num_s_ += select_s;
    eupa_den_s_ += exec_s;
    double run = 0, pruned = 0;
    for (const auto& eval : decision->evaluations) {
      (eval.pruned ? pruned : run) += 1;
    }
    trials_run_.Add(run);
    trials_pruned_.Add(pruned);
  }
  for (const Job& job : pool.decompress) {
    server::JobRequest request;
    request.kind = server::JobKind::kDecompress;
    request.input = *job.payload;
    const int64_t start = NowNs();
    server::JobResult result = server::JobQueue::ExecuteJob(request);
    exec_decompress_ms_.Add(SecondsSince(start) * 1e3);
    outcome_->Check(result.status.ok() && result.output == *job.original,
              "ExecuteJob decompress");
  }

  {
    server::JobQueue queue(server::JobQueueOptions{});
    queue_run_ = RunQueueOpenLoop(queue, pool.compress, pool.decompress,
                                  schedule);
  }
  std::string socket_path;
  auto started = StartServer(settings_, &socket_path);
  if (!started.ok()) {
    outcome_->Check(false, "server start: " + started.status().ToString());
    return;
  }
  OpenLoopOptions with_pings = schedule;
  with_pings.ping_every = 10;
  socket_run_ = RunSocketOpenLoop(socket_path, pool.compress, pool.decompress,
                                  with_pings);
  (*started)->Stop();
  // Shedding is measured here (job_queue.shed_fraction), not a wrong
  // reply; errors, mismatches and missing replies still fail the run.
  for (const OpenLoopResult* run : {&queue_run_, &socket_run_}) {
    outcome_->attempted += run->requests + run->ping_us.size();
    outcome_->failed += run->failed - run->busy;
    for (const std::string& failure : run->failures) {
      if (outcome_->failures.size() < 8) outcome_->failures.push_back(failure);
    }
  }
}

void LayerProbe::Finish(const std::string& workload) {
  const std::vector<Span>& spans = tracer_.spans;
  // Attribute every span to the family of its root call: the write side
  // (isobar.compress) or the read side (whole, range and column reads).
  std::vector<size_t> root(spans.size());
  std::map<std::string, std::map<std::string, LayerTotals>> family;
  std::vector<double> child_s(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    root[i] = spans[i].parent < 0
                  ? i
                  : root[static_cast<size_t>(spans[i].parent)];
    if (spans[i].parent >= 0) {
      child_s[static_cast<size_t>(spans[i].parent)] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string side =
        std::string_view(spans[root[i]].name) == "isobar.compress" ? "write"
                                                                     : "read";
    const double dur =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    LayerTotals& layer = family[side][spans[i].name];
    ++layer.count;
    layer.total_s += dur;
    layer.self_s += dur - child_s[i];
    layer.bytes += spans[i].bytes;
  }
  auto& write = family["write"];
  auto& read = family["read"];
  const double write_s = write["isobar.compress"].total_s;
  double read_s = 0.0, read_self_s = 0.0;
  for (const char* name :
       {"isobar.decompress", "isobar.range", "isobar.columns"}) {
    read_s += read[name].total_s;
    read_self_s += read[name].self_s;
  }
  auto mbps = [](const LayerTotals& t) {
    return Ratio(static_cast<double>(t.bytes) / 1e6, t.self_s);
  };
  LayerTotals crc = write["crc32c"];
  crc.self_s += read["crc32c"].self_s;
  crc.bytes += read["crc32c"].bytes;
  const LayerTotals& plan = read["container.plan"];
  const LayerTotals& container_write = write["container.write"];

  Outcome& o = *outcome_;
  o.Add("eupa_selector.select_p50_ms", "ms", select_ms_.Median());
  o.Add("eupa_selector.share", "fraction",
        eupa_den_s_ > 0.0 ? Ratio(eupa_num_s_, eupa_den_s_)
                          : Ratio(write["eupa_selector.select"].total_s,
                                  write_s));
  o.Add("eupa_selector.trials_run", "count", trials_run_.Median());
  o.Add("eupa_selector.trials_pruned", "count", trials_pruned_.Median());
  o.Add("eupa_selector.decision_changes", "count",
        static_cast<double>(decision_changes_));
  o.Add("analyzer.mbps", "MB/s", mbps(write["analyzer.analyze"]));
  o.Add("analyzer.share", "fraction",
        Ratio(write["analyzer.analyze"].self_s, write_s));
  o.Add("partitioner.gather_mbps", "MB/s", mbps(write["partitioner.gather"]));
  o.Add("partitioner.gather_share", "fraction",
        Ratio(write["partitioner.gather"].self_s, write_s));
  o.Add("partitioner.scatter_mbps", "MB/s", mbps(read["partitioner.scatter"]));
  o.Add("partitioner.scatter_share", "fraction",
        Ratio(read["partitioner.scatter"].self_s, read_s));
  o.Add("compressors.encode_mbps", "MB/s", mbps(write["compressors.encode"]));
  o.Add("compressors.encode_share", "fraction",
        Ratio(write["compressors.encode"].self_s, write_s));
  o.Add("compressors.decode_mbps", "MB/s", mbps(read["compressors.decode"]));
  o.Add("compressors.decode_share", "fraction",
        Ratio(read["compressors.decode"].self_s, read_s));
  o.Add("compressors.input_fraction", "fraction",
        Ratio(static_cast<double>(solver_input_bytes_),
              static_cast<double>(compress_input_bytes_)));
  o.Add("compressors.stored_raw_chunks", "count",
        static_cast<double>(stored_raw_chunks_));
  o.Add("crc32c.mbps", "MB/s", mbps(crc));
  o.Add("crc32c.share", "fraction", Ratio(crc.self_s, write_s + read_s));
  o.Add("container.write_us", "us",
        Ratio(container_write.self_s * 1e6,
              static_cast<double>(container_write.count)));
  o.Add("container.plan_us", "us",
        Ratio(plan.self_s * 1e6, static_cast<double>(plan.count)));
  o.Add("isobar.compress_unattributed_fraction", "fraction",
        Ratio(write["isobar.compress"].self_s, write_s));
  o.Add("isobar.decompress_unattributed_fraction", "fraction",
        Ratio(read_self_s, read_s));
  o.Add("isobar.range_read_amplification", "x",
        Ratio(static_cast<double>(range_decoded_),
              static_cast<double>(range_returned_)));
  o.Add("isobar.column_read_amplification", "x",
        Ratio(static_cast<double>(column_decoded_),
              static_cast<double>(column_returned_)));
  o.Add("thread_pool.compress_speedup", "x", compress_speedup_.Median());
  o.Add("thread_pool.decompress_speedup", "x", decompress_speedup_.Median());
  o.Add("stream.append_p99_ms", "ms", append_ms_.Tail());
  o.Add("job_queue.wait_p50_ms", "ms", queue_run_.wait_ms.Median());
  o.Add("job_queue.wait_p99_ms", "ms", queue_run_.wait_ms.Tail());
  o.Add("job_queue.exec_compress_ms", "ms", exec_compress_ms_.Median());
  o.Add("job_queue.exec_decompress_ms", "ms", exec_decompress_ms_.Median());
  o.Add("job_queue.shed_fraction", "fraction",
        Ratio(static_cast<double>(socket_run_.busy),
              static_cast<double>(socket_run_.requests)));
  o.Add("server.ping_rtt_p50_us", "us", socket_run_.ping_us.Median());
  o.Add("server.ping_rtt_p99_us", "us", socket_run_.ping_us.Tail());
  o.Add("server.overhead_ms", "ms",
        socket_run_.decompress_ms.Median() - queue_run_.decompress_ms.Median());
  o.Add("telemetry.overhead_fraction", "fraction",
        Ratio(telemetry_on_s_.Median() - telemetry_off_s_.Median(),
              telemetry_off_s_.Median()));
  o.Add("bench.generator_lag_p99_ms", "ms", socket_run_.lag_ms.Tail());
  o.Add("bench.trace_overhead_fraction", "fraction",
        Ratio(traced_s_ - untraced_s_, untraced_s_));

  const std::string stem = settings_.out_dir + "/" + workload + "-seed" +
                           std::to_string(settings_.seed);
  Status written = WriteTextFile(stem + ".trace.json", ChromeTraceJson(spans));
  std::string summary = "{\"workload\":" + Quote(workload) + ",\"layers\":{";
  bool first = true;
  for (const auto& [side, layers] : family) {
    for (const auto& [name, t] : layers) {
      summary += std::string(first ? "" : ",") + Quote(side + ":" + name) +
                 ":{\"count\":" + std::to_string(t.count) +
                 ",\"total_s\":" + Num(t.total_s) + ",\"self_s\":" +
                 Num(t.self_s) + ",\"bytes\":" + std::to_string(t.bytes) + "}";
      first = false;
    }
  }
  summary += "}}\n";
  if (written.ok()) written = WriteTextFile(stem + ".layers.json", summary);
  outcome_->Check(written.ok(), "write trace files: " + written.ToString());
}

}  // namespace perfbench
