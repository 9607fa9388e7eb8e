#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/analyzer.h"
#include "core/eupa_selector.h"
#include "datagen/registry.h"
#include "telemetry/metrics.h"
#include "util/random.h"

namespace isobar {
namespace {

Bytes NoisyStructured(size_t elements, uint64_t seed) {
  // width 8: low 6 bytes noise, bytes 6-7 structured.
  Bytes data;
  Xoshiro256 rng(seed);
  for (size_t i = 0; i < elements; ++i) {
    for (int b = 0; b < 6; ++b) data.push_back(static_cast<uint8_t>(rng.Next()));
    data.push_back(static_cast<uint8_t>((i / 64) % 16));
    data.push_back(0x3F);
  }
  return data;
}

TEST(EupaTest, DeterministicAcrossRuns) {
  const Bytes data = NoisyStructured(200000, 1);
  EupaOptions options;
  options.preference = Preference::kRatio;
  const EupaSelector selector(options);
  auto first = selector.Select(data, 8, 0xC0);
  auto second = selector.Select(data, 8, 0xC0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->codec, second->codec);
  EXPECT_EQ(first->linearization, second->linearization);
}

TEST(EupaTest, EvaluatesAllCandidateCombinations) {
  // kRatio: every (codec × linearization) candidate is accounted for,
  // either measured by a trial or pruned by the estimator gate.
  const Bytes data = NoisyStructured(100000, 2);
  EupaOptions options;
  options.preference = Preference::kRatio;
  const EupaSelector selector(options);
  auto decision = selector.Select(data, 8, 0xC0);
  ASSERT_TRUE(decision.ok());
  // 3 default codecs × 2 linearizations.
  EXPECT_EQ(decision->evaluations.size(), 6u);
  for (const auto& eval : decision->evaluations) {
    EXPECT_GT(eval.predicted_ratio, 0.0);
    if (eval.pruned) {
      EXPECT_DOUBLE_EQ(eval.ratio, 0.0);
      EXPECT_DOUBLE_EQ(eval.throughput_mbps, 0.0);
    } else {
      EXPECT_GT(eval.ratio, 0.0);
      EXPECT_GT(eval.throughput_mbps, 0.0);
    }
  }
}

TEST(EupaTest, RatioPreferencePicksBestMeasuredRatio) {
  const Bytes data = NoisyStructured(200000, 3);
  EupaOptions options;
  options.preference = Preference::kRatio;
  const EupaSelector selector(options);
  auto decision = selector.Select(data, 8, 0xC0);
  ASSERT_TRUE(decision.ok());
  double best = 0.0;
  for (const auto& eval : decision->evaluations) best = std::max(best, eval.ratio);
  for (const auto& eval : decision->evaluations) {
    if (eval.codec == decision->codec &&
        eval.linearization == decision->linearization) {
      EXPECT_DOUBLE_EQ(eval.ratio, best);
    }
  }
}

TEST(EupaTest, SpeedPreferenceRespectsRatioFloor) {
  // With an unreachable ratio floor the selector must fall back to the
  // best-ratio candidate instead of failing.
  const Bytes data = NoisyStructured(100000, 4);
  EupaOptions options;
  options.preference = Preference::kSpeed;
  options.min_ratio = 1e9;
  const EupaSelector selector(options);
  auto decision = selector.Select(data, 8, 0xC0);
  ASSERT_TRUE(decision.ok());
  double best = 0.0;
  for (const auto& eval : decision->evaluations) best = std::max(best, eval.ratio);
  for (const auto& eval : decision->evaluations) {
    if (eval.codec == decision->codec &&
        eval.linearization == decision->linearization) {
      EXPECT_DOUBLE_EQ(eval.ratio, best);
    }
  }
}

TEST(EupaTest, ForcedCodecIsHonored) {
  const Bytes data = NoisyStructured(50000, 5);
  EupaOptions options;
  options.forced_codec = CodecId::kRle;
  const EupaSelector selector(options);
  auto decision = selector.Select(data, 8, 0xC0);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->codec, CodecId::kRle);
  // Linearization was still measured: both arms evaluated with RLE.
  EXPECT_EQ(decision->evaluations.size(), 2u);
}

TEST(EupaTest, FullyForcedPipelineSkipsMeasurement) {
  const Bytes data = NoisyStructured(50000, 6);
  EupaOptions options;
  options.forced_codec = CodecId::kBzip2;
  options.forced_linearization = Linearization::kColumn;
  const EupaSelector selector(options);
  auto decision = selector.Select(data, 8, 0xC0);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->codec, CodecId::kBzip2);
  EXPECT_EQ(decision->linearization, Linearization::kColumn);
  EXPECT_TRUE(decision->evaluations.empty());
}

TEST(EupaTest, CustomCandidateListUsed) {
  const Bytes data = NoisyStructured(50000, 7);
  EupaOptions options;
  options.candidate_codecs = {CodecId::kRle, CodecId::kLzss};
  const EupaSelector selector(options);
  auto decision = selector.Select(data, 8, 0xC0);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->codec == CodecId::kRle ||
              decision->codec == CodecId::kLzss);
  EXPECT_EQ(decision->evaluations.size(), 4u);
}

TEST(EupaTest, InputValidation) {
  const EupaSelector selector;
  EXPECT_FALSE(selector.Select({}, 8, 0xFF).ok());
  EXPECT_FALSE(selector.Select(Bytes(15, 0), 8, 0xFF).ok());
  EXPECT_FALSE(selector.Select(Bytes(16, 0), 0, 0xFF).ok());
  // Zero mask: there is nothing to measure.
  EXPECT_FALSE(selector.Select(Bytes(800, 0), 8, 0).ok());
  EupaOptions no_codecs;
  no_codecs.candidate_codecs.clear();
  EXPECT_FALSE(EupaSelector(no_codecs).Select(Bytes(800, 1), 8, 0xFF).ok());
}

TEST(EupaTest, TrainingSampleDrawsExactBudget) {
  const Bytes data = NoisyStructured(10000, 3);
  EupaOptions options;
  // 1000 % 3 != 0: the division remainder must be spread over runs, not
  // floored away (which starved the probe by up to runs-1 elements).
  options.sample_elements = 1000;
  options.sample_runs = 3;
  EXPECT_EQ(DrawTrainingSample(data, 8, options).size(), 1000u * 8);

  options.sample_runs = 7;
  EXPECT_EQ(DrawTrainingSample(data, 8, options).size(), 1000u * 8);

  // More runs than wanted elements: still exact and element-aligned.
  options.sample_elements = 5;
  options.sample_runs = 8;
  EXPECT_EQ(DrawTrainingSample(data, 8, options).size(), 5u * 8);

  // Budget at or above the input: the whole input, verbatim.
  options.sample_elements = 20000;
  EXPECT_EQ(DrawTrainingSample(data, 8, options).size(), data.size());
}

TEST(EupaTest, SampleSmallerThanDataStillDecides) {
  const Bytes data = NoisyStructured(500000, 8);
  EupaOptions options;
  options.sample_elements = 1024;
  const EupaSelector selector(options);
  auto decision = selector.Select(data, 8, 0xC0);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->evaluations.size(), 6u);
}

TEST(EupaTest, RejectsZeroSampleBudget) {
  const Bytes data = NoisyStructured(1000, 9);
  EupaOptions options;
  options.sample_elements = 0;
  EXPECT_FALSE(EupaSelector(options).Select(data, 8, 0xFF).ok());
  options.sample_elements = 1024;
  options.sample_runs = 0;
  EXPECT_FALSE(EupaSelector(options).Select(data, 8, 0xFF).ok());
}

// Candidate list covering every solver the estimator models.
std::vector<CodecId> AllSolvers() {
  return {CodecId::kZlib,    CodecId::kBzip2, CodecId::kRle,
          CodecId::kLzss,    CodecId::kHuffman, CodecId::kBwt,
          CodecId::kLzans};
}

EupaDecision SelectOrDie(const Bytes& data, size_t width, uint64_t mask,
                         Preference pref, double margin,
                         std::vector<CodecId> codecs) {
  EupaOptions options;
  options.preference = pref;
  options.prune_margin = margin;
  options.candidate_codecs = std::move(codecs);
  auto decision = EupaSelector(options).Select(data, width, mask);
  EXPECT_TRUE(decision.ok()) << decision.status().message();
  return *decision;
}

// What the gate is checked under: kRatio over every solver, and kSpeed
// over every solver and over the default set, where its decision is lzans
// row against lzans column.
struct GateCase {
  Preference pref;
  std::vector<CodecId> codecs;
};
std::vector<GateCase> GateCases() {
  return {{Preference::kRatio, AllSolvers()},
          {Preference::kSpeed, AllSolvers()},
          {Preference::kSpeed, EupaOptions{}.candidate_codecs}};
}

// The gate must never flip a selection: compression ratios are
// bit-deterministic, so gated and exhaustive runs must land on the same
// (codec, linearization) on any input — including adversarial ones aimed
// at each individual signal — under either preference. Under kSpeed the
// gate acts inside a speed tier, where pruning the one layout that meets
// the floor would send the walk on to a slower codec.
TEST(EupaTest, GateMatchesExhaustiveOnAdversarialInputs) {
  std::vector<std::pair<Bytes, size_t>> inputs;
  // All noise: every predictor near 1, nothing clearly wins.
  Bytes noise;
  Xoshiro256 rng(42);
  for (size_t i = 0; i < 131072; ++i) {
    noise.push_back(static_cast<uint8_t>(rng.Next()));
  }
  inputs.emplace_back(std::move(noise), 8);
  // All constant: the single-symbol entropy special case.
  inputs.emplace_back(Bytes(131072, 0x55), 8);
  // Alternating columns: row and column layouts diverge maximally.
  Bytes alternating;
  for (size_t i = 0; i < 65536; ++i) {
    alternating.push_back(0x01);
    alternating.push_back(0x02);
  }
  inputs.emplace_back(std::move(alternating), 2);

  for (const auto& [data, width] : inputs) {
    const uint64_t mask = width == 2 ? 0b11 : 0xFF;
    for (const auto& [pref, codecs] : GateCases()) {
      SCOPED_TRACE(testing::Message()
                   << PreferenceToString(pref) << ", " << codecs.size()
                   << " codecs, width " << width);
      const EupaDecision exhaustive =
          SelectOrDie(data, width, mask, pref, 0.0, codecs);
      const EupaDecision gated =
          SelectOrDie(data, width, mask, pref, 0.25, codecs);
      EXPECT_EQ(gated.codec, exhaustive.codec);
      EXPECT_EQ(gated.linearization, exhaustive.linearization);
      // Exhaustive mode leaves the estimator fields untouched; only
      // kSpeed's walk prunes (the tiers after the one that met the floor).
      for (const auto& eval : exhaustive.evaluations) {
        if (pref == Preference::kRatio) {
          EXPECT_FALSE(eval.pruned);
        }
        EXPECT_DOUBLE_EQ(eval.predicted_ratio, 0.0);
      }
      // Gated mode predicts every candidate and measures the survivors
      // identically to the exhaustive run.
      for (size_t i = 0; i < gated.evaluations.size(); ++i) {
        EXPECT_GT(gated.evaluations[i].predicted_ratio, 0.0);
        if (!gated.evaluations[i].pruned) {
          EXPECT_FALSE(exhaustive.evaluations[i].pruned);
          EXPECT_DOUBLE_EQ(gated.evaluations[i].ratio,
                           exhaustive.evaluations[i].ratio);
        }
      }
    }
  }
}

TEST(EupaTest, GateMatchesExhaustiveAcrossDatasetProfiles) {
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    auto dataset = GenerateDataset(spec, 40000);
    ASSERT_TRUE(dataset.ok()) << spec.name;
    const uint64_t mask = (uint64_t{1} << dataset->width()) - 1;
    for (const auto& [pref, codecs] : GateCases()) {
      SCOPED_TRACE(testing::Message()
                   << spec.name << ", " << PreferenceToString(pref) << ", "
                   << codecs.size() << " codecs");
      const EupaDecision exhaustive = SelectOrDie(
          dataset->data, dataset->width(), mask, pref, 0.0, codecs);
      const EupaDecision gated = SelectOrDie(
          dataset->data, dataset->width(), mask, pref, 0.25, codecs);
      EXPECT_EQ(gated.codec, exhaustive.codec);
      EXPECT_EQ(gated.linearization, exhaustive.linearization);
    }
  }
}

TEST(EupaTest, GatePrunesTrialsOnMixedWorkload) {
  // Structured columns under a ratio preference: once a strong candidate
  // is measured, weak predictors (RLE/Huffman on noisy layouts) must be
  // pruned without a trial, and the counters must record the split.
  const Bytes data = NoisyStructured(100000, 10);
  telemetry::SetEnabled(true);
  telemetry::Counter& run = telemetry::GetCounter("eupa.trials_run");
  telemetry::Counter& pruned = telemetry::GetCounter("eupa.trials_pruned");
  const uint64_t run_before = run.value();
  const uint64_t pruned_before = pruned.value();
  const EupaDecision gated =
      SelectOrDie(data, 8, 0xC0, Preference::kRatio, 0.25, AllSolvers());
  telemetry::SetEnabled(false);

  size_t pruned_evals = 0;
  for (const auto& eval : gated.evaluations) pruned_evals += eval.pruned ? 1 : 0;
  EXPECT_GT(pruned_evals, 0u);
  EXPECT_LT(pruned_evals, gated.evaluations.size());
  if (telemetry::kCompiledIn) {  // counters are inert with telemetry off
    EXPECT_EQ(pruned.value() - pruned_before, pruned_evals);
    EXPECT_EQ(run.value() - run_before,
              gated.evaluations.size() - pruned_evals);
  }

  // And the saved trials must not change the outcome.
  const EupaDecision exhaustive =
      SelectOrDie(data, 8, 0xC0, Preference::kRatio, 0.0, AllSolvers());
  EXPECT_EQ(gated.codec, exhaustive.codec);
  EXPECT_EQ(gated.linearization, exhaustive.linearization);
}

TEST(EupaTest, SpeedPreferenceTrialsOnlyTopRankedCodecAtDefaultFloor) {
  // At the default min_ratio of 1.0 the fastest-ranked candidate codec
  // reaches the floor on structured data, so the speed walk stops there:
  // exactly its linearizations are measured and every slower candidate is
  // pruned untrialed — whatever order the candidate list gives.
  const Bytes data = NoisyStructured(100000, 11);
  const struct {
    std::vector<CodecId> codecs;
    CodecId top;
  } cases[] = {
      {{CodecId::kZlib, CodecId::kBzip2, CodecId::kLzans}, CodecId::kLzans},
      {AllSolvers(), CodecId::kHuffman},
  };
  for (const auto& c : cases) {
    const EupaDecision decision =
        SelectOrDie(data, 8, 0xC0, Preference::kSpeed, 0.25, c.codecs);
    EXPECT_EQ(decision.codec, c.top);
    EXPECT_EQ(decision.evaluations.size(), 2 * c.codecs.size());
    for (const auto& eval : decision.evaluations) {
      if (eval.codec == c.top) {
        EXPECT_FALSE(eval.pruned) << CodecIdToString(eval.codec);
        EXPECT_GE(eval.ratio, 1.0);
      } else {
        EXPECT_TRUE(eval.pruned) << CodecIdToString(eval.codec);
        EXPECT_DOUBLE_EQ(eval.ratio, 0.0);
      }
    }
  }
}

TEST(EupaTest, SpeedWalkMovesDownTheRankBelowTheFloor) {
  // Ratios are bit-deterministic, so an exhaustive kRatio run tells us
  // where to put a floor that RLE (ranked faster) misses and zlib meets.
  const Bytes data = NoisyStructured(100000, 12);
  const std::vector<CodecId> codecs = {CodecId::kZlib, CodecId::kRle};
  const EupaDecision exhaustive =
      SelectOrDie(data, 8, 0xC0, Preference::kRatio, 0.0, codecs);
  double best_rle = 0.0;
  double best_zlib = 0.0;
  for (const auto& eval : exhaustive.evaluations) {
    double& best = eval.codec == CodecId::kRle ? best_rle : best_zlib;
    best = std::max(best, eval.ratio);
  }
  ASSERT_GT(best_zlib, best_rle);

  EupaOptions options;
  options.candidate_codecs = codecs;
  options.min_ratio = (best_rle + best_zlib) / 2.0;
  auto decision = EupaSelector(options).Select(data, 8, 0xC0);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->codec, CodecId::kZlib);
  size_t rle_trials = 0;
  for (const auto& eval : decision->evaluations) {
    if (eval.codec == CodecId::kRle) rle_trials += eval.pruned ? 0 : 1;
    if (eval.codec == decision->codec &&
        eval.linearization == decision->linearization) {
      EXPECT_DOUBLE_EQ(eval.ratio, best_zlib);
    }
  }
  // The faster tier was trialed (and missed) before the walk moved on.
  EXPECT_GT(rle_trials, 0u);
}

TEST(EupaTest, SpeedSelectionIgnoresMachineLoad) {
  // kSpeed decides on sample ratios alone: repeated selections on the same
  // bytes agree on the pipeline and on every measured ratio, with or
  // without a core kept busy underneath the trial timers.
  auto spec = FindDatasetSpec("gts_phi_l");
  ASSERT_TRUE(spec.ok());
  auto dataset = GenerateDataset(**spec, 65536);
  ASSERT_TRUE(dataset.ok());
  auto probe = Analyzer().Analyze(dataset->data, dataset->width());
  ASSERT_TRUE(probe.ok());
  const uint64_t mask = probe->improvable()
                            ? probe->compressible_mask
                            : (uint64_t{1} << dataset->width()) - 1;
  const EupaSelector selector;
  auto reference = selector.Select(dataset->data, dataset->width(), mask);
  ASSERT_TRUE(reference.ok());

  const auto expect_same = [&](const char* phase) {
    for (int run = 0; run < 20; ++run) {
      auto decision = selector.Select(dataset->data, dataset->width(), mask);
      ASSERT_TRUE(decision.ok());
      EXPECT_EQ(decision->codec, reference->codec) << phase << " run " << run;
      EXPECT_EQ(decision->linearization, reference->linearization)
          << phase << " run " << run;
      ASSERT_EQ(decision->evaluations.size(), reference->evaluations.size());
      for (size_t i = 0; i < decision->evaluations.size(); ++i) {
        EXPECT_EQ(decision->evaluations[i].pruned,
                  reference->evaluations[i].pruned);
        EXPECT_DOUBLE_EQ(decision->evaluations[i].ratio,
                         reference->evaluations[i].ratio)
            << phase << " run " << run << " candidate " << i;
      }
    }
  };
  expect_same("idle");
  std::atomic<bool> stop{false};
  std::thread hog([&stop] {
    volatile uint64_t spin = 0;
    while (!stop.load(std::memory_order_relaxed)) spin = spin + 1;
  });
  expect_same("hog");
  stop.store(true);
  hog.join();
}

TEST(EupaTest, ChoosesColumnWhenItClearlyWins) {
  // Construct data where column linearization is dramatically better: two
  // compressible columns whose values are constant per column but differ
  // from each other. Row linearization yields an alternating 2-byte
  // pattern; column linearization yields two long constant runs. Both are
  // compressible, but for RLE the column layout is strictly better.
  Bytes data;
  for (size_t i = 0; i < 100000; ++i) {
    data.push_back(0x01);
    data.push_back(0x02);
  }
  EupaOptions options;
  options.preference = Preference::kRatio;
  options.candidate_codecs = {CodecId::kRle};
  const EupaSelector selector(options);
  auto decision = selector.Select(data, 2, 0b11);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->linearization, Linearization::kColumn);
}

}  // namespace
}  // namespace isobar
