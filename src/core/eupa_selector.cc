#include "core/eupa_selector.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "compressors/registry.h"
#include "linearize/transpose.h"
#include "simd/dispatch.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace isobar {
namespace {

// Cheap statistics of one linearized training sample, feeding the
// estimator gate. All three are deterministic functions of the bytes, so
// gated selection stays a deterministic process (§II.C).
struct SampleSignals {
  double entropy_ratio = 1.0;   ///< order-0 Huffman bound (lin-independent)
  double run_fraction = 0.0;    ///< adjacent equal-byte pair rate
  double match_fraction = 0.0;  ///< repeated 3-byte window probe rate
};

// Order-0 entropy bound as a ratio: 8 bits per byte over the sample's
// Shannon entropy. The histogram pass rides the SIMD tier dispatch. A
// single-valued sample reports the exact two-byte Huffman special case
// instead, which is what an entropy coder actually achieves there.
double EntropyRatioBound(ByteSpan data) {
  std::array<uint64_t, 256> hist{};
  simd::Kernels().histogram_update(data.data(), data.size(), 1, hist.data());
  const double n = static_cast<double>(data.size());
  double entropy = 0.0;
  int distinct = 0;
  for (uint64_t count : hist) {
    if (count == 0) continue;
    ++distinct;
    const double p = static_cast<double>(count) / n;
    entropy -= p * std::log2(p);
  }
  if (distinct <= 1) return n / 2.0;
  return 8.0 / entropy;
}

double RunFraction(ByteSpan data) {
  if (data.size() < 2) return 0.0;
  size_t equal = 0;
  for (size_t i = 1; i < data.size(); ++i) {
    equal += data[i] == data[i - 1] ? 1 : 0;
  }
  return static_cast<double>(equal) / static_cast<double>(data.size() - 1);
}

// Fraction of probed 3-byte windows whose bytes were already seen at the
// hash table's previous position — an upper-bound proxy for the LZ match
// rate (probe distances ignore codec window limits, so it only errs
// toward predicting more matches).
double MatchProbeRate(ByteSpan data) {
  if (data.size() < 3) return 0.0;
  constexpr size_t kProbeTarget = 4096;
  constexpr uint32_t kTableBits = 12;
  std::array<uint32_t, 1u << kTableBits> last{};  // position + 1; 0 = empty
  const size_t windows = data.size() - 2;
  const size_t stride = std::max<size_t>(1, windows / kProbeTarget);
  size_t probes = 0;
  size_t hits = 0;
  for (size_t i = 0; i < windows; i += stride) {
    const uint32_t v = static_cast<uint32_t>(data[i]) |
                       static_cast<uint32_t>(data[i + 1]) << 8 |
                       static_cast<uint32_t>(data[i + 2]) << 16;
    const uint32_t h = (v * 2654435761u) >> (32 - kTableBits);
    if (last[h] != 0) {
      const size_t p = last[h] - 1;
      hits += (data[p] == data[i] && data[p + 1] == data[i + 1] &&
               data[p + 2] == data[i + 2])
                  ? 1
                  : 0;
    }
    last[h] = static_cast<uint32_t>(i + 1);
    ++probes;
  }
  return static_cast<double>(hits) / static_cast<double>(probes);
}

// Optimistic predicted ratio for one candidate codec. Every formula is an
// upper bound (or a generously inflated estimate) of what the codec can
// achieve given the signals: the gate must only prune candidates whose
// trial could not have changed the decision, so erring high merely costs
// an extra trial while erring low could flip a selection.
double PredictRatio(CodecId codec, const SampleSignals& s) {
  // 1/(1 - fraction), saturating at `cap` (the codec's own format bound).
  const auto coverage_ratio = [](double fraction, double cap) {
    return std::min(cap, 1.0 / std::max(1.0 - fraction, 1.0 / cap));
  };
  switch (codec) {
    case CodecId::kStored:
      return 1.0;
    case CodecId::kRle:
      // Best case two output bytes per 130-byte run.
      return coverage_ratio(s.run_fraction, 65.0);
    case CodecId::kHuffman:
      // Huffman output is >= n * H bits, so 8/H bounds the ratio.
      return s.entropy_ratio;
    case CodecId::kLzss:
      // Best case 17 token bits per 18-byte match; runs are matches too.
      return std::max(coverage_ratio(s.match_fraction, 8.5),
                      coverage_ratio(s.run_fraction, 8.5));
    case CodecId::kZlib:
      // Dictionary + entropy stages multiply, so bound by the product of
      // both optimistic factors. The saturation value must be deflate's
      // own format ceiling (~1032:1 — 258-byte matches at a couple of
      // bits each): when every probe hits, the fractions carry no upper
      // bound at all, and any tighter clamp would prune trials the codec
      // can win outright.
      return std::min(1032.0, 1.25 * s.entropy_ratio *
                                  std::max(coverage_ratio(s.match_fraction,
                                                          1032.0),
                                           coverage_ratio(s.run_fraction,
                                                          1032.0)));
    case CodecId::kLzans:
      // LZ77 over a 128 KiB window (4x zlib's) + tANS entropy stage: its
      // long-range matches reach block-sort-class ratios on structure
      // the 3-byte probes cannot see (e.g. num_plasma), so it shares the
      // bzip2/BWT bound — anything tighter starves the trial it would win.
    case CodecId::kBzip2:
    case CodecId::kBwt:
      // Block sorting (and lzans's RLE block escape) collapses whole
      // 128 KiB blocks to a handful of bytes, so the honest format
      // ceiling sits in the tens of thousands. Saturated probes must
      // predict that ceiling, not a round number: measured ratios on the
      // smooth-field profiles run past 2500:1, and a clamp below them
      // made the gate prune the exhaustive winner.
      return std::min(20000.0, 1.4 * s.entropy_ratio *
                                   std::max(coverage_ratio(s.match_fraction,
                                                           20000.0),
                                            coverage_ratio(s.run_fraction,
                                                           20000.0)));
  }
  // Codecs without a model are never pruned.
  return 1e12;
}

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
  Bytes sample;
  sample.reserve(want * width);
  Xoshiro256 rng(options.seed);
  for (uint64_t r = 0; r < runs && sample.size() < want * width; ++r) {
    const uint64_t per_run =
        std::max<uint64_t>(1, base_run + (r < extra_runs ? 1 : 0));
    const uint64_t max_start = n - per_run;
    const uint64_t start = max_start == 0 ? 0 : rng.NextBounded(max_start + 1);
    const uint8_t* p = data.data() + start * width;
    const uint64_t take =
        std::min<uint64_t>(per_run, want - sample.size() / width);
    sample.insert(sample.end(), p, p + take * width);
  }
  return sample;
}

Result<EupaDecision> EupaSelector::Select(ByteSpan data, size_t width,
                                          uint64_t compressible_mask) const {
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

  telemetry::ScopedSpan span("eupa.select");
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
  // also the tie-break order of the decision below.
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

  // Estimator gate (prune_margin > 0): predict each candidate's ratio
  // from cheap sample statistics, so strong candidates are trialed first
  // and set the incumbent early. prune_margin == 0 keeps the exhaustive
  // trial order bit-for-bit (no statistics are computed).
  const bool gated = options_.prune_margin > 0.0;
  if (gated) {
    // The entropy bound is linearization-independent (same byte multiset),
    // so compute it once; the locality-sensitive signals are per layout.
    const double entropy_ratio = EntropyRatioBound(gathered[0]);
    std::vector<SampleSignals> signals(linearizations.size());
    for (size_t li = 0; li < linearizations.size(); ++li) {
      signals[li].entropy_ratio = entropy_ratio;
      signals[li].run_fraction = RunFraction(gathered[li]);
      signals[li].match_fraction = MatchProbeRate(gathered[li]);
    }
    for (size_t c = 0; c < decision.evaluations.size(); ++c) {
      decision.evaluations[c].predicted_ratio = PredictRatio(
          decision.evaluations[c].codec, signals[lin_index[c]]);
    }
  }

  // Trial tiers: kRatio puts every codec in one tier; kSpeed gives each
  // codec the tier of its speed rank, so the walk below trials the
  // fastest codec first and a slower one only when no faster one reached
  // the ratio floor. Inside a tier, gated trials run predicted-best first.
  const auto tier = [&](size_t c) -> size_t {
    return options_.preference == Preference::kRatio
               ? 0
               : SpeedRank(decision.evaluations[c].codec);
  };
  std::vector<size_t> trial_order(decision.evaluations.size());
  std::iota(trial_order.begin(), trial_order.end(), 0);
  std::stable_sort(
      trial_order.begin(), trial_order.end(), [&](size_t a, size_t b) {
        if (tier(a) != tier(b)) return tier(a) < tier(b);
        return gated && decision.evaluations[a].predicted_ratio >
                            decision.evaluations[b].predicted_ratio;
      });

  static telemetry::Counter& trials_run =
      telemetry::GetCounter("eupa.trials_run");
  static telemetry::Counter& trials_pruned =
      telemetry::GetCounter("eupa.trials_pruned");
  static telemetry::Counter& measured =
      telemetry::GetCounter("eupa.candidates_measured");

  // The walk. Once a finished tier holds a candidate at or above
  // min_ratio, every later tier is pruned untrialed. Before that, the gate
  // prunes a candidate whose inflated prediction cannot beat the best
  // ratio measured so far: it could neither win its tier nor the
  // all-below-floor fallback.
  double best_measured = 0.0;
  bool floor_met = false;
  for (size_t i = 0; i < trial_order.size(); ++i) {
    const size_t c = trial_order[i];
    CandidateEvaluation& eval = decision.evaluations[c];
    if (i > 0 && tier(c) != tier(trial_order[i - 1])) {
      floor_met = best_measured >= options_.min_ratio;
    }
    const bool prune =
        floor_met ||
        (gated && best_measured > 0.0 &&
         eval.predicted_ratio * (1.0 + options_.prune_margin) < best_measured);
    if (prune) {
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
    best_measured = std::max(best_measured, eval.ratio);
    trials_run.Increment();
    measured.Increment();
  }

  // Decision (§II.C: "the EUPA-selector is a deterministic process"): the
  // best measured ratio, ties to the canonical order. Under kSpeed that is
  // the best layout of the tier that met the floor (every earlier tier
  // stayed below it), or the best ratio trialed when none did. Measured
  // throughput is evidence only, so the same bytes and options give the
  // same decision at any load.
  const CandidateEvaluation* best = nullptr;
  for (const auto& eval : decision.evaluations) {
    if (eval.pruned) continue;
    if (best == nullptr || eval.ratio > best->ratio) best = &eval;
  }
  if (best == nullptr) {
    return Status::Internal("EUPA selector produced no candidates");
  }
  decision.codec = best->codec;
  decision.linearization = best->linearization;
  return decision;
}

}  // namespace isobar
