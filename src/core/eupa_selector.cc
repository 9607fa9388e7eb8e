#include "core/eupa_selector.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <numeric>

#include "compressors/registry.h"
#include "linearize/transpose.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace isobar {
namespace {

// Codecs fastest first, by summed encode + decode ns/byte of the
// Release bench_micro rows BM_SolverCompress / BM_SolverDecompress on
// their one input (1 MiB of HardDataset doubles; 4-vCPU x86-64 host,
// median of 3-5 repetitions, ms per MiB encode + decode): stored
// 0.06 + 0.05, huffman 4.4 + 3.3, rle 11.1 + 0.1, lzans 8.2 + 3.1, lzss
// 27.0 + 2.2, zlib 55.8 + 8.6, bwt 153 + 34, bzip2 232 + 111. rle and
// lzans tie within noise; the order between them is fixed so the rank
// stays a constant.
constexpr std::array<CodecId, 8> kSpeedRank = {
    CodecId::kStored, CodecId::kHuffman, CodecId::kRle,  CodecId::kLzans,
    CodecId::kLzss,   CodecId::kZlib,    CodecId::kBwt,  CodecId::kBzip2};

size_t SpeedRank(CodecId codec) {
  return static_cast<size_t>(
      std::find(kSpeedRank.begin(), kSpeedRank.end(), codec) -
      kSpeedRank.begin());
}

}  // namespace

std::optional<CodecId> ForcedCodecFromEnv() {
  const char* env = std::getenv("ISOBAR_FORCE_CODEC");
  if (env == nullptr || *env == '\0') return std::nullopt;
  for (CodecId id : AllCodecIds()) {
    if (CodecIdToString(id) == env) return id;
  }
  return std::nullopt;
}

std::string_view PreferenceToString(Preference preference) {
  switch (preference) {
    case Preference::kRatio:
      return "ratio";
    case Preference::kSpeed:
      return "speed";
  }
  return "unknown";
}

EupaSelector::EupaSelector(EupaOptions options) : options_(std::move(options)) {}

Bytes DrawTrainingSample(ByteSpan data, size_t width,
                         const EupaOptions& options) {
  const uint64_t n = data.size() / width;
  const uint64_t want = std::min<uint64_t>(options.sample_elements, n);
  if (want == n) return Bytes(data.begin(), data.end());

  const uint64_t runs = std::max<uint64_t>(1, options.sample_runs);
  // Spread the division remainder over the first `want % runs` runs so the
  // sample totals exactly `want` elements; flooring every run undershoots
  // by up to runs-1 elements, starving the probe of its budget.
  const uint64_t base_run = want / runs;
  const uint64_t extra_runs = want % runs;
  // Run r fills sample positions [drawn, drawn + per_run) and draws from
  // the stratum of the input those positions scale to, at a random offset
  // inside it. Strata are disjoint and at least a run long (n > want), so
  // no element is sampled twice and runs stay in input order.
  auto stratum_bound = [n, want](uint64_t position) {
    return static_cast<uint64_t>(static_cast<unsigned __int128>(position) *
                                 n / want);
  };
  Bytes sample;
  sample.reserve(want * width);
  Xoshiro256 rng(options.seed);
  uint64_t drawn = 0;
  for (uint64_t r = 0; r < runs && drawn < want; ++r) {
    const uint64_t per_run = base_run + (r < extra_runs ? 1 : 0);
    const uint64_t lo = stratum_bound(drawn);
    const uint64_t slack = stratum_bound(drawn + per_run) - lo - per_run;
    const uint8_t* p = data.data() + (lo + rng.NextBounded(slack + 1)) * width;
    sample.insert(sample.end(), p, p + per_run * width);
    drawn += per_run;
  }
  return sample;
}

Result<EupaDecision> EupaSelector::Select(ByteSpan data, size_t width,
                                          uint64_t compressible_mask,
                                          Bytes* winner_output) const {
  if (width == 0 || width > 64) {
    return Status::InvalidArgument("element width must be in [1, 64]");
  }
  if (data.empty() || data.size() % width != 0) {
    return Status::InvalidArgument(
        "data must be a non-empty multiple of the element width");
  }
  if (options_.candidate_codecs.empty() && !options_.forced_codec) {
    return Status::InvalidArgument("no candidate codecs configured");
  }
  if (options_.sample_elements == 0 || options_.sample_runs == 0) {
    return Status::InvalidArgument(
        "sample_elements and sample_runs must be positive");
  }

  EupaDecision decision;
  decision.preference = options_.preference;

  // Fully forced pipeline: nothing to measure.
  if (options_.forced_codec && options_.forced_linearization) {
    decision.codec = *options_.forced_codec;
    decision.linearization = *options_.forced_linearization;
    return decision;
  }

  static const telemetry::SpanSite select_site("eupa.select");
  telemetry::ScopedSpan span(select_site);
  static telemetry::Counter& selections =
      telemetry::GetCounter("eupa.selections");
  selections.Increment();

  const Bytes sample = DrawTrainingSample(data, width, options_);
  static telemetry::Counter& sample_bytes =
      telemetry::GetCounter("eupa.sample_bytes");
  sample_bytes.Add(sample.size());

  std::vector<CodecId> codecs = options_.forced_codec
                                    ? std::vector<CodecId>{*options_.forced_codec}
                                    : options_.candidate_codecs;
  std::vector<Linearization> linearizations =
      options_.forced_linearization
          ? std::vector<Linearization>{*options_.forced_linearization}
          : std::vector<Linearization>{Linearization::kRow,
                                       Linearization::kColumn};

  std::vector<Bytes> gathered(linearizations.size());
  for (size_t li = 0; li < linearizations.size(); ++li) {
    ISOBAR_RETURN_NOT_OK(GatherColumns(sample, width, compressible_mask,
                                       linearizations[li], &gathered[li]));
    if (gathered[li].empty()) {
      return Status::InvalidArgument(
          "empty compressible partition: selector needs a non-zero mask");
    }
  }

  // Candidate matrix in canonical (linearization-major) order, which is
  // also the trial order within a tier and the tie-break order of the
  // decision below.
  std::vector<size_t> lin_index;
  lin_index.reserve(linearizations.size() * codecs.size());
  for (size_t li = 0; li < linearizations.size(); ++li) {
    for (CodecId id : codecs) {
      CandidateEvaluation eval;
      eval.codec = id;
      eval.linearization = linearizations[li];
      decision.evaluations.push_back(eval);
      lin_index.push_back(li);
    }
  }

  // Trial tiers: kRatio puts every codec in one tier; kSpeed gives each
  // codec the tier of its speed rank, so the walk below trials the
  // fastest codec first and a slower one only when no faster one reached
  // the ratio floor.
  const auto tier = [&](size_t c) -> size_t {
    return options_.preference == Preference::kRatio
               ? 0
               : SpeedRank(decision.evaluations[c].codec);
  };
  std::vector<size_t> trial_order(decision.evaluations.size());
  std::iota(trial_order.begin(), trial_order.end(), 0);
  std::stable_sort(trial_order.begin(), trial_order.end(),
                   [&](size_t a, size_t b) { return tier(a) < tier(b); });

  static telemetry::Counter& trials_run =
      telemetry::GetCounter("eupa.trials_run");
  static telemetry::Counter& trials_pruned =
      telemetry::GetCounter("eupa.trials_pruned");

  // Decision (§II.C: "the EUPA-selector is a deterministic process"): the
  // best measured ratio, ties to the canonical order. Under kSpeed that is
  // the best layout of the tier that met the floor (every earlier tier
  // stayed below it), or the best ratio trialed when none did. Measured
  // throughput is evidence only, so the same bytes and options give the
  // same decision at any load. The order is strict, so keeping the best
  // as the walk goes (in trial order) ends on the same candidate.
  const auto beats = [&](size_t a, size_t b) {
    const double ratio_a = decision.evaluations[a].ratio;
    const double ratio_b = decision.evaluations[b].ratio;
    return ratio_a > ratio_b || (ratio_a == ratio_b && a < b);
  };

  // The walk. Once a finished tier holds a candidate at or above
  // min_ratio, every later tier is pruned untrialed.
  const size_t kNone = decision.evaluations.size();
  size_t best = kNone;
  bool floor_met = false;
  for (size_t i = 0; i < trial_order.size(); ++i) {
    const size_t c = trial_order[i];
    CandidateEvaluation& eval = decision.evaluations[c];
    if (i > 0 && tier(c) != tier(trial_order[i - 1])) {
      floor_met = best != kNone &&
                  decision.evaluations[best].ratio >= options_.min_ratio;
    }
    if (floor_met) {
      eval.pruned = true;
      trials_pruned.Increment();
      continue;
    }
    ISOBAR_ASSIGN_OR_RETURN(const Codec* codec, GetCodec(eval.codec));
    const Bytes& trial_input = gathered[lin_index[c]];
    Bytes compressed;
    Stopwatch timer;
    ISOBAR_RETURN_NOT_OK(codec->Compress(trial_input, &compressed));
    eval.throughput_mbps = timer.ThroughputMBps(trial_input.size());
    eval.ratio = compressed.empty()
                     ? 0.0
                     : static_cast<double>(trial_input.size()) /
                           static_cast<double>(compressed.size());
    trials_run.Increment();
    if (best == kNone || beats(c, best)) {
      best = c;
      if (winner_output != nullptr) winner_output->swap(compressed);
    }
  }
  if (best == kNone) {
    return Status::Internal("EUPA selector produced no candidates");
  }
  decision.codec = decision.evaluations[best].codec;
  decision.linearization = decision.evaluations[best].linearization;
  return decision;
}

}  // namespace isobar
