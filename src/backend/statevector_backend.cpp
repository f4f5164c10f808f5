#include "backend/statevector_backend.hpp"

#include <utility>

#include "common/require.hpp"

namespace qucad {

StatevectorBackend::StatevectorBackend(
    std::shared_ptr<const PureExecutor> executor, std::vector<double> theta,
    std::vector<ReadoutError> slot_readout, int shots, std::uint64_t seed)
    : executor_(std::move(executor)),
      theta_(std::move(theta)),
      shots_(shots),
      seed_(seed),
      kind_(shots > 0 ? BackendKind::kSampled : BackendKind::kPureStatevector) {
  require(executor_ != nullptr,
          "statevector backend needs a compiled executor");
  require(shots_ >= 0, "statevector backend shots must be non-negative");
  readout_ = SlotReadout(executor_->program().num_qubits(),
                         executor_->readout_slots(), std::move(slot_readout));
}

BackendDiagnostics StatevectorBackend::diagnostics() const {
  return program_diagnostics(kind_, executor_->program(), shots_);
}

std::vector<std::vector<double>> StatevectorBackend::run_logits_batch(
    std::span<const std::vector<double>> xs, ThreadPool* pool) const {
  return executor_->run_z_batch(xs, theta_, pool, &readout_, shots_, seed_);
}

}  // namespace qucad
