#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "backend/backend.hpp"
#include "noise/calibration.hpp"
#include "transpile/executor.hpp"

namespace qucad {

/// Finite-shot statevector backend: hardware-like readout statistics at
/// statevector cost. Per sample it
///
///  1. replays the compiled pure program ONCE (the same structure-keyed
///     CompiledProgram the training path replays — one compilation serves
///     every sample and every theta),
///  2. builds the cumulative distribution over basis states in caller
///     scratch (no allocation per sample after the first batch),
///  3. draws `shots` bitstrings from that CDF (one uniform + binary search
///     per shot, seeded per sample with seed + in-batch index so a fixed
///     batch layout reproduces bit for bit), and
///  4. flips each measured readout bit with its per-qubit confusion
///     probability from the Calibration (p(1|0) / p(0|1)) before
///     accumulating the slot's ±1 outcome.
///
/// Step 4 is distribution-identical to applying the classical readout
/// confusion matrix to the full 2^n probability vector (the confusion is
/// independent per qubit) but costs O(readout slots) per shot instead of
/// O(n 2^n) per sample.
///
/// Logits converge to PureExecutor::run_z (plus readout-error bias) as
/// shots grows — shot noise on each `<Z>` estimate has standard deviation
/// <= 1/sqrt(shots) — and are bitwise-reproducible under a fixed seed.
/// Like every backend, logits are ordered by readout slot (class k at
/// entry k), never indexed by qubit id.
///
/// Construction is cheap when the underlying PureExecutor comes from
/// CompiledEvalCache (structure-keyed): a new theta or shot budget reuses
/// the cached compiled program. All run methods are const and safe to call
/// concurrently.
class SampledStatevectorBackend final : public ExecutionBackend {
 public:
  /// `slot_readout[k]` is the confusion of readout slot k (the calibration
  /// readout error of the physical qubit hosting class k); pass an empty
  /// vector for confusion-free sampling. `theta` is bound at construction,
  /// mirroring how the density backend binds theta at lowering. Pass
  /// `deterministic = false` when `seed` was drawn from entropy rather than
  /// supplied by the caller, so capabilities() reports the truth.
  SampledStatevectorBackend(std::shared_ptr<const PureExecutor> executor,
                            std::vector<double> theta,
                            std::vector<ReadoutError> slot_readout, int shots,
                            std::uint64_t seed, bool deterministic = true);

  BackendKind kind() const override { return BackendKind::kSampled; }
  const BackendCapabilities& capabilities() const override;
  BackendDiagnostics diagnostics() const override;

  std::vector<double> run_logits(std::span<const double> x) const override;

  /// Sample i draws its shot stream from seed + i, where i is the sample's
  /// index WITHIN this batch (the run_z_batch convention) — so a fixed
  /// batch layout is bitwise reproducible, but splitting the same samples
  /// into different batches redraws their streams. Consumers that need
  /// exact reproducibility must keep the request->batch assignment fixed
  /// (the serving layer documents the same caveat).
  ///
  /// Full blocks of kBlockLanes samples replay at that width and the ragged
  /// tail at width 1, then each lane's final state is sampled. A lane's
  /// amplitudes do not depend on the width (sim/batched_state.hpp), so
  /// sample i's shot stream — and its logits — are bit-for-bit those of a
  /// backend seeded seed + i answering run_logits alone. Every row is
  /// validated against the program's input arity up front, on the calling
  /// thread.
  std::vector<std::vector<double>> run_logits_batch(
      std::span<const std::vector<double>> xs,
      ThreadPool* pool = nullptr) const override;

  int shots() const { return shots_; }
  std::uint64_t seed() const { return seed_; }
  const PureExecutor& executor() const { return *executor_; }

 private:
  /// Replays the L samples of `xs` once, then draws lane l's logits into
  /// `zs[l]` from the shot stream seeded `first_seed + l`.
  template <std::size_t L>
  void sample_lanes(const LaneInputs<L>& xs, std::uint64_t first_seed,
                    std::vector<double>* zs) const;

  /// The shot-draw loop: `shots_` draws from `cdf` (running total `total`)
  /// under an Rng seeded with `sample_seed`, confusion flips included.
  std::vector<double> draw_logits(const std::vector<double>& cdf, double total,
                                  std::uint64_t sample_seed) const;

  std::shared_ptr<const PureExecutor> executor_;
  std::vector<double> theta_;
  std::vector<ReadoutError> slot_readout_;  ///< empty = no confusion
  int shots_;
  std::uint64_t seed_;
  BackendCapabilities capabilities_;
};

}  // namespace qucad
