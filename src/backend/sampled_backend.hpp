#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "backend/backend.hpp"
#include "noise/calibration.hpp"
#include "noise/slot_readout.hpp"
#include "transpile/executor.hpp"

namespace qucad {

/// Finite-shot statevector backend: hardware-like readout statistics at
/// statevector cost. Per sample it replays the compiled pure program once
/// (the structure-keyed CompiledProgram the training path replays) and
/// reads the final state out through its SlotReadout
/// (noise/slot_readout.hpp): per-slot calibration confusion, then `shots`
/// outcomes drawn from seed + in-batch index. The density backend with
/// BackendConfig::shots > 0 ends in the same kernel.
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

  /// PureExecutor::run_z_batch read out through this backend's slots.
  /// Sample i draws its shot stream from seed + i, where i is the sample's
  /// index WITHIN this batch — so a fixed batch layout is bitwise
  /// reproducible, but splitting the same samples into different batches
  /// redraws their streams (the serving layer documents the same caveat).
  /// A lane's amplitudes do not depend on the replay width
  /// (sim/batched_state.hpp), so sample i's logits are bit-for-bit those of
  /// a backend seeded seed + i answering run_logits alone.
  std::vector<std::vector<double>> run_logits_batch(
      std::span<const std::vector<double>> xs,
      ThreadPool* pool = nullptr) const override;

 private:
  std::shared_ptr<const PureExecutor> executor_;
  std::vector<double> theta_;
  SlotReadout readout_;
  int shots_;
  std::uint64_t seed_;
  BackendCapabilities capabilities_;
};

}  // namespace qucad
