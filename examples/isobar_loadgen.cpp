// isobar_loadgen: load-generator client for isobard. Replays a mixed
// compress/decompress workload from N pipelined connections, optionally
// paced toward a target request rate, and reports requests/s plus
// latency percentiles — the client half of the saturation story.
//
//   ./isobar_loadgen --unix=/tmp/isobard.sock [options]
//   ./isobar_loadgen --tcp=7421 [options]
//
// Workload options:
//   --connections=N     worker threads / connections (default 4)
//   --pipeline=N        outstanding requests per connection (default 4)
//   --duration=SECS     run length (default 5)
//   --rate=RPS          aggregate pacing target, 0 = closed loop (default)
//   --mix=F             compress fraction in [0,1] (default 0.7)
//   --elements=N        elements per payload (default 4096)
//   --width=N           element width in bytes (default 8)
//   --codec=NAME        forced solver (any registered codec name, or auto
//                       to let EUPA choose; default zlib)
//   --no-verify         skip byte-identity checks against the library
//   --seed=N            workload seed (default 42)
//   --timeout=SECS      per-receive timeout (default 30)
//
// Output options:
//   --json=PATH         write the report JSON ("-" = stdout)
//   --stats-out=PATH    fetch a STATS snapshot after the run and save the
//                       metrics JSON (readable by `isobar_stat print`)
//   --shutdown          send the shutdown op after the run (and after
//                       --stats-out)
//   --quiet             suppress the human-readable summary
//
// Exit status: 0 on a clean run, 1 when any protocol error, verify
// failure, or unanswered request was observed — so CI can assert "zero
// protocol errors" by exit code alone.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "compressors/registry.h"
#include "io/file_io.h"
#include "server/loadgen.h"
#include "util/bytes.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: isobar_loadgen --unix=<path> | --tcp=<port>\n"
      "  [--connections=N] [--pipeline=N] [--duration=SECS] [--rate=RPS]\n"
      "  [--mix=F] [--elements=N] [--width=N] [--codec=NAME] [--no-verify]\n"
      "  [--seed=N] [--timeout=SECS] [--json=PATH] [--stats-out=PATH]\n"
      "  [--shutdown] [--quiet]\n"
      "--codec accepts %s, or auto.\n",
      isobar::CodecNameList().c_str());
  return 2;
}

bool WriteOut(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  const isobar::ByteSpan bytes(
      reinterpret_cast<const uint8_t*>(content.data()), content.size());
  const isobar::Status st = isobar::WriteBytesToFile(path, bytes);
  if (!st.ok()) {
    std::fprintf(stderr, "isobar_loadgen: cannot write %s: %s\n",
                 path.c_str(), st.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  isobar::server::LoadgenOptions options;
  std::string json_path;
  std::string stats_path;
  bool shutdown_after = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--unix=", 7) == 0) {
      options.unix_socket_path = arg + 7;
    } else if (std::strncmp(arg, "--tcp=", 6) == 0) {
      options.use_tcp = true;
      options.tcp_port = static_cast<uint16_t>(std::atoi(arg + 6));
    } else if (std::strncmp(arg, "--connections=", 14) == 0) {
      options.connections = static_cast<size_t>(std::atoll(arg + 14));
    } else if (std::strncmp(arg, "--pipeline=", 11) == 0) {
      options.pipeline_depth = static_cast<size_t>(std::atoll(arg + 11));
    } else if (std::strncmp(arg, "--duration=", 11) == 0) {
      options.duration_seconds = std::atof(arg + 11);
    } else if (std::strncmp(arg, "--rate=", 7) == 0) {
      options.target_rps = std::atof(arg + 7);
    } else if (std::strncmp(arg, "--mix=", 6) == 0) {
      options.compress_fraction = std::atof(arg + 6);
    } else if (std::strncmp(arg, "--elements=", 11) == 0) {
      options.payload_elements = static_cast<size_t>(std::atoll(arg + 11));
    } else if (std::strncmp(arg, "--width=", 8) == 0) {
      options.width = static_cast<size_t>(std::atoll(arg + 8));
    } else if (std::strncmp(arg, "--codec=", 8) == 0) {
      const std::string name = arg + 8;
      if (name == "auto") {
        options.codec.reset();
        options.linearization.reset();
      } else {
        auto codec = isobar::GetCodecByName(name);
        if (!codec.ok()) {
          std::fprintf(stderr, "isobar_loadgen: unknown codec '%s'\n",
                       name.c_str());
          return Usage();
        }
        options.codec = (*codec)->id();
      }
    } else if (std::strcmp(arg, "--no-verify") == 0) {
      options.verify = false;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      options.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--timeout=", 10) == 0) {
      options.recv_timeout_seconds = std::atof(arg + 10);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--stats-out=", 12) == 0) {
      stats_path = arg + 12;
    } else if (std::strcmp(arg, "--shutdown") == 0) {
      shutdown_after = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return Usage();
    }
  }
  if (options.unix_socket_path.empty() && !options.use_tcp) return Usage();

  auto run = isobar::server::RunLoadgen(options);
  if (!run.ok()) {
    std::fprintf(stderr, "isobar_loadgen: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const isobar::server::LoadgenReport& report = *run;

  if (!quiet) {
    std::fprintf(stderr,
                 "%llu requests in %.2fs: %.0f req/s | ok %llu, busy %llu, "
                 "errors %llu, protocol errors %llu\n",
                 static_cast<unsigned long long>(report.requests_sent),
                 report.wall_seconds, report.requests_per_second,
                 static_cast<unsigned long long>(report.ok),
                 static_cast<unsigned long long>(report.busy),
                 static_cast<unsigned long long>(report.errors),
                 static_cast<unsigned long long>(report.protocol_errors));
    std::fprintf(stderr,
                 "latency us: p50 %.0f, p90 %.0f, p99 %.0f, max %.0f "
                 "(mean %.0f over %llu ok)\n",
                 report.latency_p50_us, report.latency_p90_us,
                 report.latency_p99_us, report.latency_max_us,
                 report.latency_mean_us,
                 static_cast<unsigned long long>(report.ok));
    if (report.verify_failures != 0 || report.unanswered != 0) {
      std::fprintf(stderr, "verify failures %llu, unanswered %llu\n",
                   static_cast<unsigned long long>(report.verify_failures),
                   static_cast<unsigned long long>(report.unanswered));
    }
  }

  bool io_ok = true;
  if (!json_path.empty()) io_ok &= WriteOut(json_path, report.ToJson());
  if (!stats_path.empty()) {
    auto stats = isobar::server::FetchServerStats(options);
    if (!stats.ok()) {
      std::fprintf(stderr, "isobar_loadgen: STATS failed: %s\n",
                   stats.status().ToString().c_str());
      io_ok = false;
    } else {
      io_ok &= WriteOut(stats_path, *stats);
    }
  }
  if (shutdown_after) {
    const isobar::Status st =
        isobar::server::RequestServerShutdown(options);
    if (!st.ok()) {
      std::fprintf(stderr, "isobar_loadgen: shutdown failed: %s\n",
                   st.ToString().c_str());
      io_ok = false;
    }
  }

  const bool clean = report.protocol_errors == 0 &&
                     report.verify_failures == 0 && report.unanswered == 0 &&
                     io_ok;
  return clean ? 0 : 1;
}
