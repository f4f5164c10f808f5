#include "backend/registry.hpp"

#include <random>
#include <utility>

#include "backend/statevector_backend.hpp"
#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "qnn/eval_cache.hpp"

namespace qucad {

namespace {

/// Adapter fronting the exact density-matrix engine (NoisyExecutor): the
/// fused run_z_batch sweep with per-thread scratch reuse. With shots > 0
/// sample i draws from seed + i through the executor's readout kernel.
class DensityMatrixBackend final : public ExecutionBackend {
 public:
  DensityMatrixBackend(std::shared_ptr<const NoisyExecutor> executor,
                       int shots, std::uint64_t seed)
      : executor_(std::move(executor)), shots_(shots), seed_(seed) {}

  BackendKind kind() const override { return BackendKind::kDensityNoisy; }
  BackendDiagnostics diagnostics() const override {
    return program_diagnostics(BackendKind::kDensityNoisy,
                               executor_->program(), shots_);
  }

  std::vector<std::vector<double>> run_logits_batch(
      std::span<const std::vector<double>> xs,
      ThreadPool* pool = nullptr) const override {
    // SoA lane replay: full blocks at width 8, the tail at width 1 — see
    // NoisyExecutor::run_z_batch.
    return executor_->run_z_batch(xs, shots_, seed_, pool);
  }

 private:
  std::shared_ptr<const NoisyExecutor> executor_;
  int shots_;
  std::uint64_t seed_;
};

/// The base seed of a backend's shot streams: 0 when it draws no shots,
/// else the configured one, or one drawn from the OS entropy pool when the
/// seed is unset.
std::uint64_t resolve_seed(const BackendConfig& config) {
  if (config.shots == 0) return 0;
  return config.seed.has_value() ? *config.seed : std::random_device{}();
}

Status missing(const char* field, const char* kind) {
  return Status::invalid_argument(std::string("backend context is missing ") +
                                  field + " (required by " + kind + ")");
}

std::shared_ptr<const PureExecutor> resolve_pure_executor(
    const BackendContext& context) {
  if (context.use_cache) {
    return CompiledEvalCache::global().get_or_build_pure(
        context.model->circuit, context.model->readout_qubits);
  }
  return build_pure_executor(context.model->circuit,
                             context.model->readout_qubits);
}

StatusOr<std::shared_ptr<const ExecutionBackend>> make_density(
    const BackendConfig& config, const BackendContext& context) {
  const char* kind = backend_kind_name(BackendKind::kDensityNoisy);
  if (context.model == nullptr) return missing("the model", kind);
  if (context.transpiled == nullptr) return missing("the routed model", kind);
  if (context.calibration == nullptr) return missing("a calibration", kind);
  std::shared_ptr<const NoisyExecutor> executor =
      context.use_cache
          ? CompiledEvalCache::global().get_or_build(
                *context.model, *context.transpiled, context.theta,
                *context.calibration, context.noise)
          : build_noisy_executor(*context.model, *context.transpiled,
                                 context.theta, *context.calibration,
                                 context.noise);
  return std::shared_ptr<const ExecutionBackend>(
      std::make_shared<const DensityMatrixBackend>(
          std::move(executor), config.shots, resolve_seed(config)));
}

/// Both statevector kinds: kPureStatevector is the shots == 0 case (exact,
/// confusion-free), kSampled the shots > 0 one (readout confusion from the
/// calibration when the noise options keep it).
StatusOr<std::shared_ptr<const ExecutionBackend>> make_statevector(
    const BackendConfig& config, const BackendContext& context) {
  if (context.model == nullptr) {
    return missing("the model", backend_kind_name(config.kind));
  }
  std::vector<ReadoutError> slot_readout;
  if (config.shots > 0 && context.calibration != nullptr &&
      context.noise.include_readout_error) {
    StatusOr<std::vector<ReadoutError>> errors = slot_readout_errors(
        *context.model, context.transpiled, *context.calibration);
    if (!errors.ok()) return errors.status();
    slot_readout = *std::move(errors);
  }
  return std::shared_ptr<const ExecutionBackend>(
      std::make_shared<const StatevectorBackend>(
          resolve_pure_executor(context),
          std::vector<double>(context.theta.begin(), context.theta.end()),
          std::move(slot_readout), config.shots, resolve_seed(config)));
}

}  // namespace

StatusOr<std::vector<ReadoutError>> slot_readout_errors(
    const QnnModel& model, const TranspiledModel* transpiled,
    const Calibration& calibration) {
  std::vector<ReadoutError> errors;
  errors.reserve(model.readout_qubits.size());
  for (int lq : model.readout_qubits) {
    const int pq = transpiled != nullptr ? transpiled->readout_physical(lq) : lq;
    if (pq < 0 || pq >= calibration.num_qubits()) {
      return Status::invalid_argument(
          "readout qubit " + std::to_string(pq) +
          " is outside the calibration (" +
          std::to_string(calibration.num_qubits()) + " qubits)");
    }
    errors.push_back(calibration.readout(pq));
  }
  return errors;
}

BackendRegistry::BackendRegistry() : factories_(3) {
  factories_[static_cast<std::size_t>(BackendKind::kDensityNoisy)] =
      make_density;
  factories_[static_cast<std::size_t>(BackendKind::kPureStatevector)] =
      make_statevector;
  factories_[static_cast<std::size_t>(BackendKind::kSampled)] =
      make_statevector;
}

BackendRegistry& BackendRegistry::global() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_factory(BackendKind kind, Factory factory) {
  require(factory != nullptr, "backend factory must be callable");
  const std::size_t index = static_cast<std::size_t>(kind);
  std::lock_guard<std::mutex> lock(mutex_);
  // BackendKind is an 8-bit enum, so experimental kinds beyond the
  // built-in enumerators grow the table on demand (at most 256 slots).
  if (index >= factories_.size()) factories_.resize(index + 1);
  factories_[index] = std::move(factory);
}

StatusOr<std::shared_ptr<const ExecutionBackend>> BackendRegistry::make(
    const BackendConfig& config, const BackendContext& context) const {
  if (Status status = config.validate(); !status.ok()) return status;
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t index = static_cast<std::size_t>(config.kind);
    if (index >= factories_.size() || factories_[index] == nullptr) {
      return Status::invalid_argument(
          "no factory registered for backend kind " +
          std::to_string(static_cast<int>(config.kind)));
    }
    factory = factories_[index];
  }
  return factory(config, context);
}

StatusOr<std::shared_ptr<const ExecutionBackend>> make_backend(
    const BackendConfig& config, const BackendContext& context) {
  return BackendRegistry::global().make(config, context);
}

}  // namespace qucad
