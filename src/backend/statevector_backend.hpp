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

/// The one backend fronting the noise-free compiled statevector engine
/// (PureExecutor), registered for both statevector kinds:
///
///  - shots == 0 is kPureStatevector: exact `<Z>` per readout slot, bitwise
///    PureExecutor::run_z;
///  - shots > 0 is kSampled: hardware-like readout statistics at
///    statevector cost. Per sample the compiled pure program is replayed
///    once and read out through the backend's SlotReadout
///    (noise/slot_readout.hpp): per-slot calibration confusion, then
///    `shots` outcomes drawn from seed + in-batch index. The density
///    backend with BackendConfig::shots > 0 ends in the same kernel.
///
/// Shot estimates converge to the exact logits (plus readout-error bias) as
/// shots grows — shot noise on each `<Z>` estimate has standard deviation
/// <= 1/sqrt(shots) — and are bitwise-reproducible under a fixed seed.
/// Like every backend, logits are ordered by readout slot (class k at
/// entry k), never indexed by qubit id.
///
/// Theta is bound at construction; the underlying compiled program stays
/// structure-keyed and symbolic, so a PureExecutor from CompiledEvalCache
/// is shared across theta updates and shot budgets. All run methods are
/// const and safe to call concurrently.
class StatevectorBackend final : public ExecutionBackend {
 public:
  /// `slot_readout[k]` is the confusion of readout slot k (the calibration
  /// readout error of the physical qubit hosting class k); pass an empty
  /// vector for confusion-free readout. Pass `deterministic = false` when
  /// `seed` was drawn from entropy rather than supplied by the caller, so
  /// capabilities() reports the truth.
  StatevectorBackend(std::shared_ptr<const PureExecutor> executor,
                     std::vector<double> theta,
                     std::vector<ReadoutError> slot_readout, int shots,
                     std::uint64_t seed, bool deterministic = true);

  BackendKind kind() const override { return kind_; }
  const BackendCapabilities& capabilities() const override {
    return capabilities_;
  }
  BackendDiagnostics diagnostics() const override;

  std::vector<double> run_logits(std::span<const double> x) const override;

  /// PureExecutor::run_z_batch read out through this backend's slots.
  /// With shots > 0, sample i draws its shot stream from seed + i, where i
  /// is the sample's index WITHIN this batch — so a fixed batch layout is
  /// bitwise reproducible, but splitting the same samples into different
  /// batches redraws their streams (the serving layer documents the same
  /// caveat). A lane's amplitudes do not depend on the replay width
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
  BackendKind kind_;
  BackendCapabilities capabilities_;
};

}  // namespace qucad
