#include "backend/backend.hpp"

#include <utility>

namespace qucad {

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kDensityNoisy: return "density_noisy";
    case BackendKind::kPureStatevector: return "pure_statevector";
    case BackendKind::kSampled: return "sampled_statevector";
  }
  return "unknown";
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
  return Status();
}

std::vector<double> ExecutionBackend::run_logits(
    std::span<const double> x) const {
  const std::vector<std::vector<double>> one{
      std::vector<double>(x.begin(), x.end())};
  return std::move(run_logits_batch(one)[0]);
}

}  // namespace qucad
