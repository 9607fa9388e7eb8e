// perfbench: the ISOBAR benchmark of record.
//
//   perfbench --workload <checkpoint|service|analysis> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--corrupt]
//             [--out-dir <dir>] [--commit <id>]
//
// Prints the host stamp and a human-readable report, writes the full
// result (and, traced, the Chrome trace and per-layer summary) under
// --out-dir, and ends stdout with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any operation failed verification, 2 on bad usage or a
// non-Release build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "simd/dispatch.h"
#include "workloads.h"

namespace {

using perfbench::Num;
using perfbench::Quote;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <checkpoint|service|analysis> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt] "
               "[--out-dir <dir>] [--commit <id>]\n");
  return 2;
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + Quote(metrics[i].name) +
            ": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Settings settings;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      settings.tiny = true;
    } else if (arg == "--corrupt") {
      settings.corrupt = true;
    } else if (value == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      settings.workload = value, ++i;
    } else if (arg == "--seed") {
      settings.seed = std::strtoull(value, nullptr, 10), ++i;
    } else if (arg == "--seconds") {
      settings.seconds = std::atof(value), ++i;
    } else if (arg == "--trace") {
      settings.trace = std::strcmp(value, "0") != 0, ++i;
    } else if (arg == "--out-dir") {
      settings.out_dir = value, ++i;
    } else if (arg == "--commit") {
      settings.commit = value, ++i;
    } else {
      return Usage();
    }
  }
  if (settings.seconds <= 0) return Usage();

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }
  settings.nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::string simd(
      isobar::simd::TierToString(isobar::simd::ActiveTier()));
  const std::string host =
      "{\"nproc\": " + std::to_string(settings.nproc) +
      ", \"build_type\": " + Quote(build_type) + ", \"simd\": " + Quote(simd) +
      ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
      ", \"commit\": " + Quote(settings.commit) + "}";
  std::printf("# host %s\n", host.c_str());
  std::printf("# workload %s seed %llu seconds %s trace %d%s\n",
              settings.workload.c_str(),
              static_cast<unsigned long long>(settings.seed),
              Num(settings.seconds).c_str(), settings.trace ? 1 : 0,
              settings.tiny ? " (tiny self-test scale)" : "");
  std::fflush(stdout);

  perfbench::Outcome outcome;
  if (settings.workload == "checkpoint") {
    outcome = perfbench::RunCheckpoint(settings);
  } else if (settings.workload == "service") {
    outcome = perfbench::RunService(settings);
  } else if (settings.workload == "analysis") {
    outcome = perfbench::RunAnalysis(settings);
  } else {
    return Usage();
  }

  for (const auto& m : outcome.report) {
    std::printf("# report %-40s %16s %s\n", m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str());
  }
  for (const auto& m : outcome.metrics) {
    std::printf("# metric %-40s %16s %s\n", m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
  }
  const bool correct = outcome.attempted > 0 && outcome.failed == 0;
  const std::string counts =
      "\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed);
  const std::string result_path =
      settings.out_dir + "/" + settings.workload + "-seed" +
      std::to_string(settings.seed) + (settings.trace ? "-trace" : "") +
      ".result.json";
  const perfbench::Status written = perfbench::WriteTextFile(
      result_path,
      "{\"host\": " + host + ", \"workload\": " + Quote(settings.workload) +
          ", \"seed\": " + std::to_string(settings.seed) +
          ", \"seconds\": " + Num(settings.seconds) +
          ", \"trace\": " + (settings.trace ? "1" : "0") + ", " + counts +
          ", \"metrics\": " + MetricsJson(outcome.metrics) +
          ", \"report\": " + MetricsJson(outcome.report) + "}\n");
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
  }
  std::printf("{%s, \"metrics\": %s}\n", counts.c_str(),
              MetricsJson(outcome.metrics).c_str());
  return correct ? 0 : 1;
}
