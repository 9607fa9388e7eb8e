#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "datagen/generators.h"
#include "datagen/registry.h"

namespace perfbench {

void Outcome::Fail(std::string message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(message));
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Median() const { return MedianOf(values_); }

double Samples::Max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

double Samples::Tail(double* percentile) const {
  const size_t n = values_.size();
  if (n < 11) {
    if (percentile != nullptr) *percentile = 100.0;
    return Max();
  }
  // Nearest rank r leaves n - r samples beyond it; keep at least ten.
  const double q = std::min(0.99, static_cast<double>(n - 10) /
                                      static_cast<double>(n));
  if (percentile != nullptr) *percentile = 100.0 * q;
  return Quantile(q);
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

uint64_t SubSeed(uint64_t seed, std::string_view tag) {
  uint64_t h = 0xcbf29ce484222325ull ^ seed;  // FNV-1a over the tag
  for (const char c : tag) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return isobar::Xoshiro256(h).Next();
}

isobar::Result<Field> MakeField(std::string_view profile, uint64_t elements,
                                uint64_t seed) {
  ISOBAR_ASSIGN_OR_RETURN(const isobar::DatasetSpec* spec,
                          isobar::FindDatasetSpec(profile));
  ISOBAR_ASSIGN_OR_RETURN(
      isobar::Dataset dataset,
      isobar::GenerateArray(spec->type, spec->params, elements,
                            SubSeed(seed, profile)));
  Field field;
  field.name = std::string(profile);
  field.width = dataset.width();
  field.data = std::move(dataset.data);
  return field;
}

isobar::Result<std::vector<Field>> MakeFields(
    const std::vector<std::string>& profiles, uint64_t elements,
    uint64_t seed) {
  std::vector<isobar::Result<Field>> made(profiles.size(),
                                          Status::Internal("not generated"));
  std::vector<std::thread> workers;
  for (size_t i = 0; i < profiles.size(); ++i) {
    workers.emplace_back(
        [&, i] { made[i] = MakeField(profiles[i], elements, seed); });
  }
  for (std::thread& worker : workers) worker.join();
  std::vector<Field> fields;
  for (auto& result : made) {
    if (!result.ok()) return result.status();
    fields.push_back(std::move(*result));
  }
  return fields;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace perfbench
