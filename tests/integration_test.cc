// End-to-end scenarios crossing module boundaries: synthetic data through
// analysis, EUPA, the full pipeline, alternative linearizations, and the
// FPC / fpzip baselines — the code paths behind the paper's evaluation.
#include <gtest/gtest.h>

#include "compressors/registry.h"
#include "core/isobar.h"
#include "datagen/registry.h"
#include "datagen/time_series.h"
#include "fpc/fpc_codec.h"
#include "fpzip/fpzip_codec.h"
#include "linearize/hilbert.h"
#include "linearize/permutation.h"
#include "stats/bit_frequency.h"

namespace isobar {
namespace {

Result<Dataset> Generate(const char* name, uint64_t elements) {
  ISOBAR_ASSIGN_OR_RETURN(const DatasetSpec* spec, FindDatasetSpec(name));
  return GenerateDataset(*spec, elements);
}

double StandardRatio(CodecId id, ByteSpan data) {
  auto codec = GetCodec(id);
  EXPECT_TRUE(codec.ok());
  Bytes out;
  EXPECT_TRUE((*codec)->Compress(data, &out).ok());
  return static_cast<double>(data.size()) / static_cast<double>(out.size());
}

// Fig. 1: hard-to-compress profiles show noise-like bit positions, easy
// ones do not.
TEST(IntegrationTest, BitFrequencyProfilesSeparateHardFromEasy) {
  auto hard = Generate("gts_chkp_zeon", 100000);
  auto easy = Generate("msg_sppm", 100000);
  ASSERT_TRUE(hard.ok());
  ASSERT_TRUE(easy.ok());

  auto hard_profile = ComputeBitFrequency(hard->bytes(), 8);
  auto easy_profile = ComputeBitFrequency(easy->bytes(), 8);
  ASSERT_TRUE(hard_profile.ok());
  ASSERT_TRUE(easy_profile.ok());

  // Count bit positions that are essentially coin flips (< 0.55).
  auto noisy_positions = [](const BitFrequencyProfile& p) {
    int count = 0;
    for (double prob : p.probability) {
      if (prob < 0.55) ++count;
    }
    return count;
  };
  EXPECT_GE(noisy_positions(*hard_profile), 40);  // ~48 noise bits
  EXPECT_LE(noisy_positions(*easy_profile), 8);
}

// Table V shape: on every improvable profile, ISOBAR+zlib must beat
// standalone zlib's ratio; on every non-improvable one, it must fall back
// to within container overhead of the standard result.
TEST(IntegrationTest, RatioImprovementShapeAcrossAllProfiles) {
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    auto dataset = GenerateDataset(spec, 250000);
    ASSERT_TRUE(dataset.ok()) << spec.name;

    CompressOptions options;
    options.eupa.forced_codec = CodecId::kZlib;
    options.eupa.forced_linearization = Linearization::kRow;
    options.chunk_elements = 250000;
    const IsobarCompressor compressor(options);
    CompressionStats stats;
    auto compressed =
        compressor.Compress(dataset->bytes(), dataset->width(), &stats);
    ASSERT_TRUE(compressed.ok()) << spec.name;

    const double standard = StandardRatio(CodecId::kZlib, dataset->bytes());
    if (spec.paper_verdict.improvable) {
      EXPECT_GT(stats.ratio(), standard) << spec.name;
    } else {
      // Undetermined: same bytes to the solver, only headers added.
      EXPECT_GT(stats.ratio(), standard * 0.99) << spec.name;
    }
  }
}

// §III.G / Figs. 9-10: the improvement survives Hilbert and random
// element reordering.
TEST(IntegrationTest, ImprovementRobustToLinearization) {
  auto spec = FindDatasetSpec("flash_gamc");
  ASSERT_TRUE(spec.ok());
  // 65536 = 256 x 256 grid for the Hilbert walk.
  auto dataset = GenerateDataset(**spec, 65536);
  ASSERT_TRUE(dataset.ok());

  const uint32_t dims[] = {256, 256};
  Bytes hilbert;
  ASSERT_TRUE(HilbertReorder(dataset->bytes(), 8, dims, &hilbert).ok());
  Bytes random;
  ASSERT_TRUE(ApplyPermutation(dataset->bytes(), 8,
                               RandomPermutation(65536, 9), &random).ok());

  CompressOptions options;
  options.eupa.forced_codec = CodecId::kZlib;
  options.eupa.forced_linearization = Linearization::kRow;
  const IsobarCompressor compressor(options);

  double delta_cr[3];
  const ByteSpan variants[] = {dataset->bytes(), ByteSpan(hilbert),
                               ByteSpan(random)};
  for (int i = 0; i < 3; ++i) {
    CompressionStats stats;
    auto compressed = compressor.Compress(variants[i], 8, &stats);
    ASSERT_TRUE(compressed.ok());
    EXPECT_TRUE(stats.improvable) << "variant " << i;
    const double standard = StandardRatio(CodecId::kZlib, variants[i]);
    delta_cr[i] = (stats.ratio() / standard - 1.0) * 100.0;
    EXPECT_GT(delta_cr[i], 5.0) << "variant " << i;
  }
  // Improvement within a few points of each other across orderings.
  EXPECT_NEAR(delta_cr[1], delta_cr[0], 10.0);
  EXPECT_NEAR(delta_cr[2], delta_cr[0], 10.0);
}

// §III.F: verdict, EUPA choice, and ratio are stable across time steps.
TEST(IntegrationTest, ConsistencyAcrossSimulationTimeSteps) {
  auto spec = FindDatasetSpec("gts_phi_l");
  ASSERT_TRUE(spec.ok());
  TimeSeriesGenerator series(**spec, 150000);

  CompressOptions options;
  options.eupa.sample_elements = 16384;
  // kRatio with candidates whose ratio ordering is decisively separated:
  // zlib and bzip2 are ratio-near-tied on this dataset family, so per-seed
  // noise would flip the winner between them. The claim under test is
  // stability across time steps, not tie-breaking.
  options.eupa.preference = Preference::kRatio;
  options.eupa.candidate_codecs = {CodecId::kZlib, CodecId::kRle,
                                   CodecId::kHuffman};
  const IsobarCompressor compressor(options);

  double first_ratio = 0.0;
  CodecId first_codec{};
  Linearization first_lin{};
  for (uint64_t t = 0; t < 6; ++t) {
    auto step = series.Step(t);
    ASSERT_TRUE(step.ok());
    CompressionStats stats;
    auto compressed = compressor.Compress(step->bytes(), 8, &stats);
    ASSERT_TRUE(compressed.ok());
    EXPECT_TRUE(stats.improvable) << "step " << t;
    if (t == 0) {
      first_ratio = stats.ratio();
      first_codec = stats.decision.codec;
      first_lin = stats.decision.linearization;
    } else {
      EXPECT_EQ(stats.decision.codec, first_codec) << "step " << t;
      EXPECT_EQ(stats.decision.linearization, first_lin) << "step " << t;
      EXPECT_NEAR(stats.ratio(), first_ratio, first_ratio * 0.05)
          << "step " << t;
    }
  }
}

// Table X shape: all three compressors round-trip the same data; ISOBAR's
// ratio is competitive on the hard-to-compress profiles.
TEST(IntegrationTest, BaselinesAgreeOnContentAndIsobarIsCompetitive) {
  auto dataset = Generate("gts_chkp_zion", 250000);
  ASSERT_TRUE(dataset.ok());

  // ISOBAR.
  CompressOptions options;
  const IsobarCompressor compressor(options);
  CompressionStats stats;
  auto isobar_out = compressor.Compress(dataset->bytes(), 8, &stats);
  ASSERT_TRUE(isobar_out.ok());
  auto isobar_restored = IsobarCompressor::Decompress(*isobar_out);
  ASSERT_TRUE(isobar_restored.ok());
  EXPECT_EQ(*isobar_restored, dataset->data);

  // FPC.
  const FpcCodec fpc;
  Bytes fpc_out, fpc_restored;
  ASSERT_TRUE(fpc.Compress(dataset->bytes(), &fpc_out).ok());
  ASSERT_TRUE(
      fpc.Decompress(fpc_out, dataset->data.size(), &fpc_restored).ok());
  EXPECT_EQ(fpc_restored, dataset->data);

  // fpzip.
  const FpzipCodec fpzip(8);
  Bytes fpzip_out, fpzip_restored;
  ASSERT_TRUE(fpzip.Compress(dataset->bytes(), &fpzip_out).ok());
  ASSERT_TRUE(
      fpzip.Decompress(fpzip_out, dataset->data.size(), &fpzip_restored).ok());
  EXPECT_EQ(fpzip_restored, dataset->data);

  const double fpc_ratio = static_cast<double>(dataset->data.size()) /
                           static_cast<double>(fpc_out.size());
  EXPECT_GT(stats.ratio(), 1.0);
  EXPECT_GT(fpc_ratio, 1.0);
  // Table X: ISOBAR's ratio beats FPC on the GTS checkpoint datasets.
  EXPECT_GT(stats.ratio(), fpc_ratio * 0.95);
}

// The paper's workflow works end-to-end when a user overrides everything
// explicitly (§II.C "complete flexibility").
TEST(IntegrationTest, ExplicitPipelineOverrides) {
  auto dataset = Generate("xgc_iphase", 150000);
  ASSERT_TRUE(dataset.ok());
  for (CodecId codec : {CodecId::kZlib, CodecId::kBzip2, CodecId::kLzss}) {
    for (Linearization lin :
         {Linearization::kRow, Linearization::kColumn}) {
      CompressOptions options;
      options.eupa.forced_codec = codec;
      options.eupa.forced_linearization = lin;
      const IsobarCompressor compressor(options);
      auto compressed = compressor.Compress(dataset->bytes(), 8);
      ASSERT_TRUE(compressed.ok())
          << CodecIdToString(codec) << "/" << LinearizationToString(lin);
      auto restored = IsobarCompressor::Decompress(*compressed);
      ASSERT_TRUE(restored.ok());
      EXPECT_EQ(*restored, dataset->data);
    }
  }
}

// Decompression of the speed-preference container touches only the
// compressed signal bytes; the noise moves with memcpy-like scatter. The
// output must still be exact for both preferences.
TEST(IntegrationTest, BothPreferencesProduceIdenticalPlaintext) {
  auto dataset = Generate("s3d_temp", 300000);
  ASSERT_TRUE(dataset.ok());
  for (Preference pref : {Preference::kSpeed, Preference::kRatio}) {
    CompressOptions options;
    options.eupa.preference = pref;
    const IsobarCompressor compressor(options);
    auto compressed = compressor.Compress(dataset->bytes(), 4);
    ASSERT_TRUE(compressed.ok());
    auto restored = IsobarCompressor::Decompress(*compressed);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*restored, dataset->data);
  }
}

// The estimator gate only skips trials whose outcome could not matter,
// so the container a ratio-preference pipeline produces must be
// byte-identical with the gate on (default margin) and off (exhaustive
// trials) — across structured, noisy, and mixed profiles.
TEST(IntegrationTest, ContainerBytesIdenticalWithAndWithoutEupaPruning) {
  for (const char* profile : {"msg_sppm", "gts_chkp_zeon", "gts_phi_l"}) {
    auto dataset = Generate(profile, 200000);
    ASSERT_TRUE(dataset.ok()) << profile;
    Bytes gated, exhaustive;
    for (double margin : {0.25, 0.0}) {
      CompressOptions options;
      options.eupa.preference = Preference::kRatio;
      options.eupa.prune_margin = margin;
      options.num_threads = 1;
      const IsobarCompressor compressor(options);
      auto compressed =
          compressor.Compress(dataset->bytes(), dataset->width());
      ASSERT_TRUE(compressed.ok()) << profile;
      (margin > 0.0 ? gated : exhaustive) = std::move(*compressed);
    }
    EXPECT_EQ(gated, exhaustive) << profile;
    auto restored = IsobarCompressor::Decompress(gated);
    ASSERT_TRUE(restored.ok()) << profile;
    EXPECT_EQ(*restored, dataset->data) << profile;
  }
}

}  // namespace
}  // namespace isobar
