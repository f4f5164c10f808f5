#include "backend/backend.hpp"

#include "common/thread_pool.hpp"

namespace qucad {

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kDensityNoisy: return "density_noisy";
    case BackendKind::kPureStatevector: return "pure_statevector";
    case BackendKind::kSampled: return "sampled_statevector";
  }
  return "unknown";
}

const BackendCapabilities& backend_kind_capabilities(BackendKind kind) {
  static const BackendCapabilities density{/*models_noise=*/true,
                                           /*finite_shots=*/false,
                                           /*readout_error=*/true,
                                           /*gradients=*/false,
                                           /*deterministic=*/true,
                                           /*batched_replay=*/true};
  static const BackendCapabilities pure{/*models_noise=*/false,
                                        /*finite_shots=*/false,
                                        /*readout_error=*/false,
                                        /*gradients=*/true,
                                        /*deterministic=*/true,
                                        /*batched_replay=*/true};
  static const BackendCapabilities sampled{/*models_noise=*/false,
                                           /*finite_shots=*/true,
                                           /*readout_error=*/true,
                                           /*gradients=*/false,
                                           /*deterministic=*/true,
                                           /*batched_replay=*/true};
  // Kinds beyond the built-ins (custom registry registrations) claim
  // nothing statically — consult the built instance's capabilities().
  static const BackendCapabilities unknown{/*models_noise=*/false,
                                           /*finite_shots=*/false,
                                           /*readout_error=*/false,
                                           /*gradients=*/false,
                                           /*deterministic=*/false,
                                           /*batched_replay=*/false};
  switch (kind) {
    case BackendKind::kDensityNoisy: return density;
    case BackendKind::kPureStatevector: return pure;
    case BackendKind::kSampled: return sampled;
  }
  return unknown;
}

BackendDiagnostics program_diagnostics(BackendKind kind,
                                       const CompiledProgram& program,
                                       int shots) {
  return {backend_kind_name(kind), kind, program.num_qubits(), shots,
          program.stats().source_ops, program.stats().compiled_ops};
}

Status BackendConfig::validate() const {
  if (shots < 0) {
    return Status::invalid_argument("backend shots must be non-negative");
  }
  if (kind == BackendKind::kPureStatevector && shots > 0) {
    return Status::invalid_argument(
        "the pure statevector backend computes expectations; use kSampled "
        "for finite-shot readout");
  }
  if (kind == BackendKind::kSampled && shots == 0) {
    return Status::invalid_argument(
        "kSampled draws finite-shot estimates and needs shots > 0");
  }
  if (deterministic && !seed.has_value()) {
    return Status::invalid_argument(
        "deterministic sampling requested without a seed");
  }
  return Status();
}

std::vector<std::vector<double>> ExecutionBackend::run_logits_batch(
    std::span<const std::vector<double>> xs, ThreadPool* pool) const {
  std::vector<std::vector<double>> zs(xs.size());
  ThreadPool& workers = pool ? *pool : ThreadPool::global();
  workers.parallel_for(xs.size(),
                       [&](std::size_t i) { zs[i] = run_logits(xs[i]); });
  return zs;
}

}  // namespace qucad
