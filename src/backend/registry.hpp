#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "backend/backend.hpp"
#include "noise/calibration.hpp"
#include "noise/noise_model.hpp"
#include "qnn/model.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {

/// Everything a backend factory may need to bind one evaluation
/// configuration. Pointers are non-owning views into caller state that must
/// outlive the make() call only (the built backend copies or compiles what
/// it keeps). Which fields are required depends on the kind:
///
///  - kDensityNoisy:    model, transpiled, theta, calibration
///  - kPureStatevector: model, theta
///  - kSampled:         model, theta; calibration (+ transpiled for the
///                      logical->physical readout mapping) when readout
///                      confusion is wanted
struct BackendContext {
  const QnnModel* model = nullptr;
  const TranspiledModel* transpiled = nullptr;
  std::span<const double> theta;
  const Calibration* calibration = nullptr;
  /// Noise-model construction knobs for the density backend; the sampled
  /// backend honors include_readout_error.
  NoiseModelOptions noise;
  /// Resolve compiled executors through CompiledEvalCache::global() so every
  /// backend kind shares the one executor cache (a repeated configuration —
  /// or a theta update on the structure-keyed pure program — is a hit).
  bool use_cache = true;
};

/// Factory map from BackendKind to backend builder — the single seam every
/// consumer (evaluator, harness, serving, benches) selects its execution
/// regime through, and the extension point for future regimes (sharded
/// pools, remote/hardware stubs): replace a built-in factory, or register
/// one under a new kind value beyond the built-in enumerators
/// (`static_cast<BackendKind>(n)`, n < 256 — the table grows on demand),
/// and every config-driven consumer can use it. Thread-safe.
class BackendRegistry {
 public:
  using Factory =
      std::function<StatusOr<std::shared_ptr<const ExecutionBackend>>(
          const BackendConfig&, const BackendContext&)>;

  /// A registry with the three built-in factories pre-registered.
  BackendRegistry();

  /// Process-wide registry used by every config-driven consumer.
  static BackendRegistry& global();

  /// Installs the factory for `kind`, replacing a built-in or adding an
  /// experimental kind (tests, downstream engines; built-ins are restored
  /// by constructing a fresh registry).
  void register_factory(BackendKind kind, Factory factory);

  /// Validates `config` and builds the backend for it. Missing context
  /// fields, unknown kinds, and inconsistent configs come back as Status
  /// values. The shot budget and seed come from `config` for every kind.
  StatusOr<std::shared_ptr<const ExecutionBackend>> make(
      const BackendConfig& config, const BackendContext& context) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Factory> factories_;  // indexed by BackendKind; grows on demand
};

/// Convenience: BackendRegistry::global().make(config, context).
StatusOr<std::shared_ptr<const ExecutionBackend>> make_backend(
    const BackendConfig& config, const BackendContext& context);

/// Per-slot readout confusion of `model`'s readout qubits under
/// `calibration`: entry k is the confusion of the physical qubit hosting
/// class k (`transpiled.readout_physical(model.readout_qubits[k])`; pass
/// nullptr for an unrouted circuit, where logical ids are physical ids).
/// This is the mapping the sampled backend applies. A readout qubit the
/// calibration does not cover is an invalid-argument Status (this sits on
/// the registry's no-throw path).
StatusOr<std::vector<ReadoutError>> slot_readout_errors(
    const QnnModel& model, const TranspiledModel* transpiled,
    const Calibration& calibration);

}  // namespace qucad
