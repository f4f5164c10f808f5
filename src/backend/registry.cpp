#include "backend/registry.hpp"

#include <random>
#include <utility>

#include "backend/sampled_backend.hpp"
#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "qnn/eval_cache.hpp"

namespace qucad {

namespace {

/// Adapter fronting the exact density-matrix engine (NoisyExecutor). Keeps
/// the concrete fast paths: run_logits_batch is the fused run_z_batch sweep
/// with per-thread scratch reuse. With shots > 0 both run methods draw
/// sample i from seed + i through the executor's readout kernel.
class DensityMatrixBackend final : public ExecutionBackend {
 public:
  DensityMatrixBackend(std::shared_ptr<const NoisyExecutor> executor,
                       int shots, std::uint64_t seed, bool readout_active,
                       bool deterministic)
      : executor_(std::move(executor)),
        shots_(shots),
        seed_(seed),
        capabilities_(backend_kind_capabilities(BackendKind::kDensityNoisy)) {
    capabilities_.finite_shots = shots_ > 0;
    capabilities_.readout_error = readout_active;
    capabilities_.deterministic = deterministic;
  }

  BackendKind kind() const override { return BackendKind::kDensityNoisy; }
  const BackendCapabilities& capabilities() const override {
    return capabilities_;
  }
  BackendDiagnostics diagnostics() const override {
    return program_diagnostics(BackendKind::kDensityNoisy,
                               executor_->program(), shots_);
  }

  std::vector<double> run_logits(std::span<const double> x) const override {
    return executor_->run_z(x, shots_, seed_);
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
  BackendCapabilities capabilities_;
};

/// Adapter fronting the noise-free compiled statevector engine
/// (PureExecutor). Theta is bound at construction; the underlying compiled
/// program stays structure-keyed and symbolic, so backend builds across
/// theta updates share one cache entry.
class PureStatevectorBackend final : public ExecutionBackend {
 public:
  PureStatevectorBackend(std::shared_ptr<const PureExecutor> executor,
                         std::vector<double> theta)
      : executor_(std::move(executor)), theta_(std::move(theta)) {}

  BackendKind kind() const override { return BackendKind::kPureStatevector; }
  const BackendCapabilities& capabilities() const override {
    return backend_kind_capabilities(BackendKind::kPureStatevector);
  }
  BackendDiagnostics diagnostics() const override {
    return program_diagnostics(BackendKind::kPureStatevector,
                               executor_->program(), 0);
  }

  std::vector<double> run_logits(std::span<const double> x) const override {
    return executor_->run_z(x, theta_);
  }

  std::vector<std::vector<double>> run_logits_batch(
      std::span<const std::vector<double>> xs,
      ThreadPool* pool = nullptr) const override {
    // SoA lane replay: full blocks at width 8, the tail at width 1 — see
    // PureExecutor::run_z_batch.
    return executor_->run_z_batch(xs, theta_, pool);
  }

 private:
  std::shared_ptr<const PureExecutor> executor_;
  std::vector<double> theta_;
};

/// The base seed of a shot-drawing backend: the configured one, or — when
/// the config waives determinism and leaves the seed unset — one drawn from
/// the OS entropy pool.
std::uint64_t resolve_seed(const BackendConfig& config) {
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
  // Confusion is a no-op (all-zero errors) when the noise options disable
  // it, and the capability flag must say so.
  const bool readout_active = context.noise.include_readout_error &&
                              executor->noise().num_qubits() > 0;
  const bool draws_shots = config.shots > 0;
  return std::shared_ptr<const ExecutionBackend>(
      std::make_shared<const DensityMatrixBackend>(
          std::move(executor), config.shots,
          draws_shots ? resolve_seed(config) : 0, readout_active,
          /*deterministic=*/!draws_shots || config.seed.has_value()));
}

StatusOr<std::shared_ptr<const ExecutionBackend>> make_pure(
    const BackendConfig& config, const BackendContext& context) {
  (void)config;
  if (context.model == nullptr) {
    return missing("the model", backend_kind_name(BackendKind::kPureStatevector));
  }
  return std::shared_ptr<const ExecutionBackend>(
      std::make_shared<const PureStatevectorBackend>(
          resolve_pure_executor(context),
          std::vector<double>(context.theta.begin(), context.theta.end())));
}

StatusOr<std::shared_ptr<const ExecutionBackend>> make_sampled(
    const BackendConfig& config, const BackendContext& context) {
  if (context.model == nullptr) {
    return missing("the model", backend_kind_name(BackendKind::kSampled));
  }
  std::vector<ReadoutError> slot_readout;
  if (context.calibration != nullptr && context.noise.include_readout_error) {
    StatusOr<std::vector<ReadoutError>> errors = slot_readout_errors(
        *context.model, context.transpiled, *context.calibration);
    if (!errors.ok()) return errors.status();
    slot_readout = *std::move(errors);
  }
  return std::shared_ptr<const ExecutionBackend>(
      std::make_shared<const SampledStatevectorBackend>(
          resolve_pure_executor(context),
          std::vector<double>(context.theta.begin(), context.theta.end()),
          std::move(slot_readout), config.shots, resolve_seed(config),
          /*deterministic=*/config.seed.has_value()));
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
      make_pure;
  factories_[static_cast<std::size_t>(BackendKind::kSampled)] = make_sampled;
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
