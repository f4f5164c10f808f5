#include "backend/statevector_backend.hpp"

#include <utility>

#include "common/require.hpp"

namespace qucad {

StatevectorBackend::StatevectorBackend(
    std::shared_ptr<const PureExecutor> executor, std::vector<double> theta,
    std::vector<ReadoutError> slot_readout, int shots, std::uint64_t seed,
    bool deterministic)
    : executor_(std::move(executor)),
      theta_(std::move(theta)),
      shots_(shots),
      seed_(seed),
      kind_(shots > 0 ? BackendKind::kSampled : BackendKind::kPureStatevector),
      capabilities_(backend_kind_capabilities(kind_)) {
  require(executor_ != nullptr,
          "statevector backend needs a compiled executor");
  require(shots_ >= 0, "statevector backend shots must be non-negative");
  capabilities_.readout_error = !slot_readout.empty();
  readout_ = SlotReadout(executor_->circuit().num_qubits(),
                         executor_->circuit().readout_physical(),
                         std::move(slot_readout));
  // An entropy-drawn seed still reproduces within this instance's lifetime,
  // but not across builds — which is what the flag is for consumers.
  capabilities_.deterministic = deterministic;
}

BackendDiagnostics StatevectorBackend::diagnostics() const {
  return program_diagnostics(kind_, executor_->program(), shots_);
}

std::vector<double> StatevectorBackend::run_logits(
    std::span<const double> x) const {
  executor_->program().require_inputs(x);
  std::vector<double> z;
  executor_->run_z_lanes<1>({x.data()}, theta_, &z, &readout_, shots_, seed_);
  return z;
}

std::vector<std::vector<double>> StatevectorBackend::run_logits_batch(
    std::span<const std::vector<double>> xs, ThreadPool* pool) const {
  return executor_->run_z_batch(xs, theta_, pool, &readout_, shots_, seed_);
}

}  // namespace qucad
