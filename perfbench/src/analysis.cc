// analysis: post-hoc reads of stored containers. Set-up streams two
// fields through IsobarStreamWriter (so readers take the
// footer-adopted-totals path): gts_phi_l, whose noise planes are stored
// raw, and msg_sppm, whose every plane is solver-held. The measured loop
// runs rounds of one fixed mix: per field, seeded DecompressRange windows
// at eight lengths (sub-chunk to multi-chunk) and restart-style
// IsobarStreamReader Init + SeekToChunk + NextChunk; then DecompressColumns
// of the top two byte-planes of one field. EUPA, the analyzer and encode
// never run here, so write-side changes predict no move.
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/chunker.h"
#include "core/isobar.h"
#include "core/stream.h"
#include "io/sink.h"
#include "linearize/transpose.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using isobar::IsobarCompressor;

const std::vector<std::string> kFields = {"gts_phi_l", "msg_sppm"};
constexpr size_t kAppendBytes = 1 << 20;
constexpr size_t kPayloadBytes = 32 << 10;
// Stored containers use 64 K-element chunks (512 KiB of f64), a
// random-access layout: a read decodes L2-sized chunks, so its time
// follows the read path rather than how much of the shared last-level
// cache neighbouring tenants leave free.
constexpr uint64_t kChunkElements = 1 << 16;
// Range windows per field and round, log-spaced from 1 K elements to four
// chunks.
constexpr int kWindows = 8;
constexpr uint64_t kMinWindow = 1024;
constexpr uint64_t kMaxWindow = 4 * kChunkElements;

uint64_t TopTwoPlanes(size_t width) { return 3ull << (width - 2); }

struct Stored {
  Bytes container;
  Bytes planes;  ///< Expected DecompressColumns output for the top two planes.
};

/// Window length `w` of the kWindows log-spaced lengths.
uint64_t WindowLength(int w) {
  const double lo = std::log(static_cast<double>(kMinWindow));
  const double hi = std::log(static_cast<double>(kMaxWindow));
  return static_cast<uint64_t>(
      std::llround(std::exp(lo + (hi - lo) * w / (kWindows - 1))));
}

}  // namespace

Outcome RunAnalysis(const Settings& settings) {
  Outcome outcome;
  // As many elements as max(16, 4 x nproc) default-size chunks: well over
  // 16 stored chunks, so whole-container reads fan out.
  const uint64_t default_chunks = std::max<uint64_t>(16, 4 * settings.nproc);
  const uint64_t elements =
      settings.tiny ? 2 * isobar::kDefaultChunkElements + 4096
                    : default_chunks * isobar::kDefaultChunkElements;

  isobar::CompressOptions options;
  options.num_threads = static_cast<uint32_t>(settings.nproc);
  options.chunk_elements = kChunkElements;
  // The encoding is pinned to what speed-preference EUPA picks for both
  // fields (lzans, column): a wall-clock-timed pick can flip under host
  // load, and a flip at set-up would move every read of the run.
  options.eupa.forced_codec = isobar::CodecId::kLzans;
  options.eupa.forced_linearization = isobar::Linearization::kColumn;
  std::vector<double> setup_s;
  // Σ stream-write seconds of each set-up; the write metrics take the
  // median set-up, so one set-up hit by a burst of host load does not
  // decide them.
  std::vector<double> ingest_s;
  double ingest_bytes = 0;
  std::vector<Field> fields;
  std::vector<Stored> stored;
  for (int rep = 0; rep < SetupReps(settings); ++rep) {
    const int64_t start = NowNs();
    auto made = MakeFields(kFields, elements, settings.seed);
    if (!made.ok()) {
      outcome.Check(false, "generate fields: " + made.status().ToString());
      return outcome;
    }
    fields = std::move(*made);
    stored.assign(fields.size(), Stored());
    ingest_s.push_back(0.0);
    ingest_bytes = 0;
    for (size_t i = 0; i < fields.size(); ++i) {
      isobar::MemorySink sink(&stored[i].container);
      const int64_t ingest = NowNs();
      isobar::IsobarStreamWriter writer(options, fields[i].width, &sink);
      Status status;
      for (size_t offset = 0; offset < fields[i].data.size() && status.ok();
           offset += kAppendBytes) {
        status = writer.Append(fields[i].bytes().subspan(
            offset, std::min(kAppendBytes, fields[i].data.size() - offset)));
      }
      if (status.ok()) status = writer.Finish();
      const double s = SecondsSince(ingest);
      if (!status.ok()) {
        outcome.Check(false, fields[i].name + ": stream write: " +
                                 status.ToString());
        return outcome;
      }
      ingest_s.back() += s;
      ingest_bytes += static_cast<double>(fields[i].data.size());
    }
    setup_s.push_back(SecondsSince(start));
  }

  // The oracle: every stored container must decode to its field, and the
  // expected column planes come from the field bytes, not the library.
  uint64_t raw_bytes = 0, stored_bytes = 0;
  for (size_t i = 0; i < fields.size(); ++i) {
    auto decoded = IsobarCompressor::Decompress(stored[i].container);
    outcome.Check(decoded.ok() && *decoded == fields[i].data,
                  fields[i].name + ": stored container round trip");
    const Status gathered = isobar::GatherColumns(
        fields[i].bytes(), fields[i].width, TopTwoPlanes(fields[i].width),
        isobar::Linearization::kColumn, &stored[i].planes);
    outcome.Check(gathered.ok(), "expected planes");
    raw_bytes += fields[i].data.size();
    stored_bytes += stored[i].container.size();
    if (settings.corrupt) {
      Bytes& c = stored[i].container;
      c[c.size() / 2] ^= 0x40;
    }
  }
  const double ratio =
      stored_bytes == 0 ? 0.0
                        : static_cast<double>(raw_bytes) /
                              static_cast<double>(stored_bytes);

  isobar::Xoshiro256 rng(SubSeed(settings.seed, "analysis.reads"));
  if (settings.trace) {
    LayerProbe probe(settings, &outcome);
    for (size_t i = 0; i < fields.size(); ++i) {
      const Field& field = fields[i];
      probe.Decompress(stored[i].container, field.data, /*overhead=*/i == 0);
      for (int k = 0; k < (settings.tiny ? 4 : 3 * kWindows); ++k) {
        const uint64_t length =
            std::min(WindowLength(k % kWindows), field.elements());
        const uint64_t first = rng.NextBounded(field.elements() - length + 1);
        probe.Range(stored[i].container, first, first + length);
      }
      probe.Columns(stored[i].container, TopTwoPlanes(field.width));
      // Write-side layers, timed on this workload's data (its reads never
      // call them).
      (void)probe.Compress(field, /*overhead=*/false);
      probe.DecisionChanges(field, 3);
      probe.ThreadPoolSpeedup(field);
      probe.StreamAppend(field, kAppendBytes);
    }
    probe.TelemetryOverhead(fields.front(), 3);
    JobPool pool;
    for (const Field& field : fields) {
      AddPayloads(field, 8, kPayloadBytes, &pool);
    }
    const Status built = BuildJobs(settings.nproc, &pool);
    outcome.Check(built.ok(), "service job set-up: " + built.ToString());
    if (built.ok()) {
      OpenLoopOptions schedule;
      schedule.rate = 50.0;
      schedule.seconds = settings.tiny ? 0.3 : 2.0;
      schedule.seed = SubSeed(settings.seed, "analysis.schedule");
      schedule.connections = std::max<size_t>(1, settings.nproc - 1);
      probe.ServiceLayers(pool, schedule, /*select_is_eupa=*/false);
    }
    probe.Finish("analysis");
    return outcome;
  }

  // Rounds of one fixed mix, so every round does the same work: per field,
  // the kWindows range lengths at seeded offsets and a seek read after
  // every second window; then one column read. read_ms is the 5th
  // percentile over rounds of a round's mean range latency. On the shared
  // reference host, neighbours' load switches the same rounds between two
  // speeds 1.5-2x apart every few seconds, so a run's median round depends
  // on which speed held for most of that run, while a low percentile
  // tracks the undisturbed speed whenever it held for a twentieth of the
  // run.
  Samples range_ms, round_range_ms, seek_ms;
  double column_bytes = 0, column_s = 0;
  uint64_t column_reads = 0;
  Bytes chunk;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(settings.seconds * 1e9);
  do {
    double round_ms = 0;
    int round_reads = 0;
    for (size_t i = 0; i < fields.size(); ++i) {
      const Field& field = fields[i];
      const ByteSpan container = stored[i].container;
      const uint64_t n = field.elements();
      for (int w = 0; w < kWindows; ++w) {
        const uint64_t length = std::min(WindowLength(w), n);
        const uint64_t first = rng.NextBounded(n - length + 1);
        const uint64_t end = first + length;
        const int64_t start = NowNs();
        auto out = IsobarCompressor::DecompressRange(container, first, end);
        const double ms = static_cast<double>(NowNs() - start) / 1e6;
        outcome.Check(
            out.ok() && out->size() == length * field.width &&
                std::memcmp(out->data(),
                            field.data.data() + first * field.width,
                            out->size()) == 0,
            field.name + ": DecompressRange");
        range_ms.Add(ms);
        round_ms += ms;
        ++round_reads;
        if (w % 2 == 0) continue;

        const uint64_t k =
            rng.NextBounded((n + kChunkElements - 1) / kChunkElements);
        const int64_t seek_start = NowNs();
        isobar::IsobarStreamReader reader(container);
        Status status = reader.Init();
        if (status.ok()) status = reader.SeekToChunk(k);
        auto next = status.ok() ? reader.NextChunk(&chunk)
                                : isobar::Result<bool>(status);
        seek_ms.Add(static_cast<double>(NowNs() - seek_start) / 1e6);
        const size_t offset =
            static_cast<size_t>(k * kChunkElements * field.width);
        outcome.Check(next.ok() && *next &&
                          offset + chunk.size() <= field.data.size() &&
                          std::memcmp(chunk.data(), field.data.data() + offset,
                                      chunk.size()) == 0,
                      field.name + ": SeekToChunk + NextChunk");
      }
    }
    // One column read per round, fields in turn: a whole-container read
    // costs about as much as the round's other reads together.
    const size_t i = round_range_ms.size() % fields.size();
    const int64_t start = NowNs();
    auto out = IsobarCompressor::DecompressColumns(
        stored[i].container, TopTwoPlanes(fields[i].width));
    column_s += SecondsSince(start);
    outcome.Check(out.ok() && *out == stored[i].planes,
                  fields[i].name + ": DecompressColumns");
    column_bytes += static_cast<double>(stored[i].planes.size());
    ++column_reads;
    round_range_ms.Add(round_ms / round_reads);
  } while (NowNs() < deadline);

  double range_pct = 0;
  const double range_tail = range_ms.Tail(&range_pct);
  const double column_mbps = column_s > 0 ? column_bytes / 1e6 / column_s : 0.0;
  const double ingest_median_s = MedianOf(ingest_s);
  const double ingest_mbps = ingest_bytes / 1e6 / ingest_median_s;
  outcome.Add("setup_s", "s", MedianOf(setup_s));
  outcome.Add("peak_rss_mb", "MB", PeakRssMb());
  outcome.Add("compression_ratio", "x", ratio);
  outcome.Add("write_mbps", "MB/s", ingest_mbps);
  outcome.Add("write_ms", "ms",
              ingest_median_s * 1e3 / static_cast<double>(fields.size()));
  outcome.Add("read_ms", "ms", round_range_ms.Quantile(0.05));

  outcome.Report("range_read_p50_ms", "ms", range_ms.Median());
  outcome.Report("range_read_p99_ms", "ms", range_tail);
  outcome.Report("range_read_tail_percentile", "%", range_pct);
  outcome.Report("range_read_mean_ms", "ms", range_ms.Mean());
  outcome.Report("round_range_read_p50_ms", "ms", round_range_ms.Median());
  outcome.Report("range_reads", "count", static_cast<double>(range_ms.size()));
  outcome.Report("rounds", "count", static_cast<double>(round_range_ms.size()));
  outcome.Report("column_read_mbps", "MB/s", column_mbps);
  outcome.Report("column_reads", "count", static_cast<double>(column_reads));
  outcome.Report("seek_read_p50_ms", "ms", seek_ms.Median());
  outcome.Report("seek_reads", "count", static_cast<double>(seek_ms.size()));
  outcome.Report("stream_write_mbps", "MB/s", ingest_mbps);
  return outcome;
}

}  // namespace perfbench
