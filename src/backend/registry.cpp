#include "backend/registry.hpp"

#include <random>
#include <utility>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "qnn/eval_cache.hpp"

namespace qucad {

namespace {

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

StatusOr<std::shared_ptr<const ExecutionBackend>> make_density(
    const BackendConfig& config, const BackendContext& context) {
  const char* kind = backend_kind_name(BackendKind::kDensityNoisy);
  if (context.model == nullptr) return missing("the model", kind);
  if (context.transpiled == nullptr) return missing("the routed model", kind);
  if (context.calibration == nullptr) return missing("a calibration", kind);
  std::shared_ptr<const CompiledExecutor> executor =
      context.use_cache
          ? CompiledEvalCache::global().get_or_build(
                *context.model, *context.transpiled, context.theta,
                *context.calibration, context.noise)
          : build_noisy_executor(*context.model, *context.transpiled,
                                 context.theta, *context.calibration,
                                 context.noise);
  // Theta was bound when the circuit was lowered; the executor's readout
  // carries the calibration's confusion.
  return std::shared_ptr<const ExecutionBackend>(
      std::make_shared<const CompiledBackend>(
          BackendKind::kDensityNoisy, std::move(executor),
          std::vector<double>{}, config.shots, resolve_seed(config)));
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
      std::make_shared<const CompiledBackend>(
          config.kind,
          build_pure_executor(context.model->circuit,
                              context.model->readout_qubits),
          std::vector<double>(context.theta.begin(), context.theta.end()),
          config.shots, resolve_seed(config), std::move(slot_readout)));
}

}  // namespace

CompiledBackend::CompiledBackend(
    BackendKind kind, std::shared_ptr<const CompiledExecutor> executor,
    std::vector<double> theta, int shots, std::uint64_t seed,
    std::vector<ReadoutError> slot_readout)
    : executor_(std::move(executor)),
      theta_(std::move(theta)),
      shots_(shots),
      seed_(seed),
      kind_(kind) {
  require(executor_ != nullptr, "backend needs a compiled executor");
  require(shots_ >= 0, "backend shots must be non-negative");
  if (!slot_readout.empty()) {
    readout_.emplace(executor_->program().num_qubits(),
                     executor_->readout_slots(), std::move(slot_readout));
  }
}

BackendDiagnostics CompiledBackend::diagnostics() const {
  const CompiledProgram& program = executor_->program();
  return {backend_kind_name(kind_), kind_, program.num_qubits(), shots_,
          program.stats().source_ops, program.stats().compiled_ops};
}

std::vector<std::vector<double>> CompiledBackend::run_logits_batch(
    std::span<const std::vector<double>> xs, ThreadPool* pool) const {
  return executor_->run_z_batch(xs, theta_, shots_, seed_, pool,
                                readout_ ? &*readout_ : nullptr);
}

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

BackendRegistry::Factory BackendRegistry::factory_for(BackendKind kind) const {
  const std::size_t index = static_cast<std::size_t>(kind);
  std::lock_guard<std::mutex> lock(mutex_);
  return index < factories_.size() ? factories_[index] : Factory{};
}

Status BackendRegistry::validate(const BackendConfig& config) const {
  if (Status status = config.validate(); !status.ok()) return status;
  if (factory_for(config.kind) == nullptr) {
    return Status::invalid_argument(
        "no factory registered for backend kind " +
        std::to_string(static_cast<int>(config.kind)));
  }
  return Status();
}

StatusOr<std::shared_ptr<const ExecutionBackend>> BackendRegistry::make(
    const BackendConfig& config, const BackendContext& context) const {
  if (Status status = validate(config); !status.ok()) return status;
  // Factories are replaced, never removed, so the validated kind has one.
  return factory_for(config.kind)(config, context);
}

StatusOr<std::shared_ptr<const ExecutionBackend>> make_backend(
    const BackendConfig& config, const BackendContext& context) {
  return BackendRegistry::global().make(config, context);
}

}  // namespace qucad
