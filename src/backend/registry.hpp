#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "backend/backend.hpp"
#include "noise/calibration.hpp"
#include "noise/noise_model.hpp"
#include "noise/slot_readout.hpp"
#include "qnn/model.hpp"
#include "transpile/executor.hpp"
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
  /// Noise-model construction knobs for the density backend; kSampled
  /// honors include_readout_error.
  NoiseModelOptions noise;
  /// Resolve compiled executors through CompiledEvalCache::global() so every
  /// backend kind shares the one executor cache (a repeated configuration —
  /// or a theta update on the structure-keyed pure program — is a hit).
  bool use_cache = true;
};

/// The one adapter behind every built-in kind: a CompiledExecutor bound to
/// theta, a shot budget and a base seed, optionally read out through its
/// own per-slot confusion instead of the executor's. kDensityNoisy fronts a
/// noisy density program (theta bound at lowering, the calibration's
/// confusion in the executor's readout); kPureStatevector and kSampled
/// front the structure-keyed noiseless program from CompiledEvalCache, so
/// one executor is shared across theta updates and shot budgets, and
/// kSampled reads out through the calibration's slot confusion.
///
/// run_logits_batch is CompiledExecutor::run_z_batch: with shots > 0,
/// sample i draws its shot stream from seed + i, where i is the sample's
/// index WITHIN this batch — so a fixed batch layout is bitwise
/// reproducible, but splitting the same samples into different batches
/// redraws their streams (the serving layer documents the same caveat). A
/// lane's result does not depend on the replay width, so sample i's logits
/// are bit-for-bit those of a backend seeded seed + i answering run_logits
/// alone. Shot estimates converge to the exact logits (plus readout-error
/// bias) as shots grows.
class CompiledBackend final : public ExecutionBackend {
 public:
  /// `slot_readout[k]` is the confusion of readout slot k (the calibration
  /// readout error of the physical qubit hosting class k); empty keeps the
  /// executor's own readout.
  CompiledBackend(BackendKind kind,
                  std::shared_ptr<const CompiledExecutor> executor,
                  std::vector<double> theta, int shots, std::uint64_t seed,
                  std::vector<ReadoutError> slot_readout = {});

  BackendKind kind() const override { return kind_; }
  BackendDiagnostics diagnostics() const override;
  std::vector<std::vector<double>> run_logits_batch(
      std::span<const std::vector<double>> xs,
      ThreadPool* pool = nullptr) const override;

 private:
  std::shared_ptr<const CompiledExecutor> executor_;
  std::vector<double> theta_;
  std::optional<SlotReadout> readout_;
  int shots_;
  std::uint64_t seed_;
  BackendKind kind_;
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

  /// A registry with the built-in kinds pre-registered: each builds a
  /// CompiledBackend (one factory for kDensityNoisy, one for
  /// kPureStatevector and kSampled).
  BackendRegistry();

  /// Process-wide registry used by every config-driven consumer.
  static BackendRegistry& global();

  /// Installs the factory for `kind`, replacing a built-in or adding an
  /// experimental kind (tests, downstream engines; built-ins are restored
  /// by constructing a fresh registry).
  void register_factory(BackendKind kind, Factory factory);

  /// BackendConfig::validate() plus a registered factory for the kind: what
  /// make() checks before it builds, for callers that must refuse a config
  /// before their first build (the longitudinal and fleet harnesses).
  Status validate(const BackendConfig& config) const;

  /// Validates `config` and builds the backend for it. Missing context
  /// fields, unknown kinds, and inconsistent configs come back as Status
  /// values. The shot budget and seed come from `config` for every kind.
  StatusOr<std::shared_ptr<const ExecutionBackend>> make(
      const BackendConfig& config, const BackendContext& context) const;

 private:
  /// The factory registered for `kind`, or an empty one.
  Factory factory_for(BackendKind kind) const;

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
/// This is the mapping kSampled applies. A readout qubit the
/// calibration does not cover is an invalid-argument Status (this sits on
/// the registry's no-throw path).
StatusOr<std::vector<ReadoutError>> slot_readout_errors(
    const QnnModel& model, const TranspiledModel* transpiled,
    const Calibration& calibration);

}  // namespace qucad
