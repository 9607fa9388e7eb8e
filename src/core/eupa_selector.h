#ifndef ISOBAR_CORE_EUPA_SELECTOR_H_
#define ISOBAR_CORE_EUPA_SELECTOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "compressors/codec.h"
#include "linearize/transpose.h"
#include "util/bytes.h"
#include "util/status.h"

namespace isobar {

/// End-user performance preference (§II.C): best compression ratio, or
/// highest throughput with an acceptable ratio.
enum class Preference : uint8_t {
  kRatio = 0,
  kSpeed = 1,
};

std::string_view PreferenceToString(Preference preference);

/// Configuration of the End User's Preference Adaptive Selector.
struct EupaOptions {
  Preference preference = Preference::kSpeed;

  /// With kSpeed, the selector walks the candidate codecs down a fixed
  /// speed rank (fastest encode + decode first) and stops at the first
  /// codec whose best sample ratio, over the linearizations, reaches this
  /// floor; that layout wins and slower codecs are never trialed. When no
  /// codec reaches it, the best ratio trialed wins. 1.0 = accept anything
  /// that does not expand the data.
  double min_ratio = 1.0;

  /// Estimator gate (§II.C high-throughput selection): before any trial
  /// compression runs, each candidate gets a cheap predicted ratio from
  /// sample statistics (order-0 entropy bound, run density, match-probe
  /// rate). A candidate is pruned — its trial never runs — when even its
  /// predicted ratio inflated by this margin cannot beat the best ratio
  /// measured so far. Under kRatio that applies across every candidate;
  /// under kSpeed, as the speed walk proceeds (it may skip a linearization
  /// of the codec being trialed, or a slower candidate that could not beat
  /// a ratio measured below the floor). 0 disables the gate; the trials then
  /// run in canonical order, and kRatio trials the whole matrix. The
  /// default margin is generous enough that kRatio selection matches
  /// exhaustive search on every tier-1 input; see docs/PERFORMANCE.md for
  /// the calibration notes.
  double prune_margin = 0.25;

  /// Elements in the training sample drawn from the input. The sample is
  /// taken as several contiguous runs at deterministic pseudo-random
  /// offsets so both locality-sensitive (LZ window) and frequency
  /// statistics are represented. The default keeps the selector's own
  /// cost (notably the bzip2 trial) a small fraction of the pipeline.
  uint64_t sample_elements = 16 * 1024;
  uint64_t sample_runs = 8;
  uint64_t seed = 0x15D0BA5ull;

  /// Solvers the selector may trial. The paper's pair plus the homegrown
  /// LZ77+tANS codec, whose decode speed dominates the auto-speed front
  /// and whose 128 KiB window competes with zlib on ratio. kSpeed walks
  /// them in speed-rank order (lzans, zlib, bzip2), not list order.
  std::vector<CodecId> candidate_codecs = {CodecId::kZlib, CodecId::kBzip2,
                                           CodecId::kLzans};

  /// Explicit overrides (§II.C: "explicit specification of input
  /// parameters is also permitted"). A forced dimension is not measured.
  std::optional<CodecId> forced_codec;
  std::optional<Linearization> forced_linearization;
};

/// CI/test hook: the codec named by the ISOBAR_FORCE_CODEC environment
/// variable, or nullopt when unset or unrecognized. The pipeline entry
/// points (batch compressor, stream writer) apply it only when the caller
/// did not force a codec themselves, so an entire ctest run can be
/// re-executed with every auto-selected pipeline pinned to one solver —
/// mirroring the ISOBAR_SIMD=scalar lane. EupaSelector itself never reads
/// it: selector-semantics tests see exactly the options they construct.
std::optional<CodecId> ForcedCodecFromEnv();

/// Measured performance of one (codec × linearization) candidate on the
/// training sample.
struct CandidateEvaluation {
  CodecId codec = CodecId::kZlib;
  Linearization linearization = Linearization::kRow;
  double ratio = 0.0;             ///< sample bytes / compressed bytes
  /// Wall-clock throughput of the trial compression. Reported evidence
  /// only: no decision reads it, so selection is independent of load.
  double throughput_mbps = 0.0;
  /// Estimator-predicted ratio from sample statistics; populated whenever
  /// the estimator gate is active (prune_margin > 0), 0 otherwise.
  double predicted_ratio = 0.0;
  /// True when the candidate's trial compression never ran: the gate
  /// skipped it, or (kSpeed) a faster-ranked codec already reached
  /// min_ratio. The measured fields (ratio, throughput_mbps) are then 0.
  bool pruned = false;
};

/// The selector's verdict plus the evidence it was based on.
struct EupaDecision {
  CodecId codec = CodecId::kZlib;
  Linearization linearization = Linearization::kRow;
  Preference preference = Preference::kSpeed;
  std::vector<CandidateEvaluation> evaluations;
};

/// Draws up to `options.sample_elements` elements from `data` (elements of
/// `width` bytes) as `options.sample_runs` contiguous element-aligned runs
/// at deterministic pseudo-random offsets, concatenated. When the input
/// holds at least sample_elements elements the sample is exactly
/// sample_elements long — the division remainder is spread over the first
/// runs instead of being floored away. Select() uses this internally;
/// exposed so the sampling contract stays testable.
Bytes DrawTrainingSample(ByteSpan data, size_t width,
                         const EupaOptions& options);

/// Deterministic selector choosing the (solver × linearization) pipeline
/// that best serves the end user's preference, by trial-compressing
/// candidates on a training sample of the compressible partition. The
/// decision reads only sample ratios, which are a function of the input
/// bytes and the options, so it does not vary with load or thread count.
class EupaSelector {
 public:
  explicit EupaSelector(EupaOptions options = {});

  const EupaOptions& options() const { return options_; }

  /// Chooses a pipeline for `data` (elements of `width` bytes) whose
  /// analyzer verdict is `compressible_mask`. For undetermined inputs pass
  /// the full mask: the selector then measures whole-element candidates,
  /// mirroring the paper's behaviour of still choosing the optimal standard
  /// method for non-improvable data.
  Result<EupaDecision> Select(ByteSpan data, size_t width,
                              uint64_t compressible_mask) const;

 private:
  EupaOptions options_;
};

}  // namespace isobar

#endif  // ISOBAR_CORE_EUPA_SELECTOR_H_
