#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

using isobar::ByteSpan;
using isobar::Bytes;
using isobar::Status;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Command-line settings shared by every workload.
struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: tiny inputs and short phases, same code paths.
  bool tiny = false;
  /// Directory (inside the checkout) for traces and full result files.
  std::string out_dir = ".bench_build/perfbench-out";
  std::string commit = "unknown";
  /// Fault injection for the self-test: flips one byte of every stored
  /// container before it is read, so every read must be counted failed.
  bool corrupt = false;
  size_t nproc = 1;
};

/// How many times a workload sets itself up; setup_s is the median, so
/// work moved into set-up shows without one slow repetition deciding it.
inline int SetupReps(const Settings& settings) {
  return settings.tiny || settings.trace ? 1 : 5;
}

/// One named measurement.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a workload hands back to main: the contract metrics (end-to-end
/// or per-layer, depending on the mode), the wider human-readable report,
/// and the verification tally.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  std::vector<std::string> failures;  ///< First few failure messages.

  void Fail(std::string message);
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  void Add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void Report(std::string name, std::string unit, double value) {
    report.push_back({std::move(name), std::move(unit), value});
  }
};

/// A sample of durations (or any values) with the summary statistics the
/// benchmark reports: the median, and the highest percentile that still
/// has at least ten samples beyond it.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const {
    return empty() ? 0.0 : Sum() / static_cast<double>(size());
  }
  double Median() const;
  double Max() const;
  /// Value at quantile q in [0, 1] (nearest rank); 0 when empty.
  double Quantile(double q) const;
  /// Highest percentile with >= 10 samples beyond it, capped at p99;
  /// `*percentile` receives the percentile used. Falls back to the
  /// maximum when fewer than 11 samples exist.
  double Tail(double* percentile = nullptr) const;

 private:
  std::vector<double> values_;
};

/// Median of a small vector (copies).
double MedianOf(std::vector<double> values);

/// Peak resident set of this process so far, MB (1e6 bytes).
double PeakRssMb();

/// Stable 64-bit mix of a seed and a tag, so every input stream of a run
/// derives from the one --seed argument.
uint64_t SubSeed(uint64_t seed, std::string_view tag);

/// One generated variable: a dataset profile's bytes under a run seed.
struct Field {
  std::string name;
  size_t width = 8;
  Bytes data;
  uint64_t elements() const { return data.size() / width; }
  ByteSpan bytes() const { return ByteSpan(data); }
};

/// Generates `elements` elements of dataset profile `profile` from
/// `seed` (the profile's own fixed seed is not used).
isobar::Result<Field> MakeField(std::string_view profile, uint64_t elements,
                                uint64_t seed);

/// Generates several fields concurrently, one thread per field, so no
/// field waits for a second round behind the others.
isobar::Result<std::vector<Field>> MakeFields(
    const std::vector<std::string>& profiles, uint64_t elements,
    uint64_t seed);

/// Writes `text` to `path`, creating parent directories.
Status WriteTextFile(const std::string& path, const std::string& text);

/// Formats a double with every significant digit.
std::string Num(double v);

/// JSON string literal of `s`.
std::string Quote(std::string_view s);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
