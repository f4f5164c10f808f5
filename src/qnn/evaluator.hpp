#pragma once

#include <span>

#include "backend/backend.hpp"
#include "common/status.hpp"
#include "data/dataset.hpp"
#include "noise/calibration.hpp"
#include "noise/noise_model.hpp"
#include "qnn/model.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {

class ThreadPool;

struct NoisyEvalOptions {
  NoiseModelOptions noise;
  /// Pool used to spread samples; nullptr = the process-global pool. Lets
  /// callers (and tests) pin the evaluation to a specific worker count.
  ThreadPool* pool = nullptr;
  /// Reuse compiled executors from CompiledEvalCache::global(). Repeated
  /// evaluations of the same (structure, theta, calibration, noise)
  /// configuration — repository keep-best loops, longitudinal harness runs —
  /// then skip re-lowering and re-compiling entirely. Disable to force a
  /// fresh build (e.g. when benchmarking compilation itself).
  bool use_cache = true;
  /// Which execution regime serves the evaluation (backend/backend.hpp).
  /// Default: the exact density-matrix backend — the historical behavior;
  /// `backend.shots` > 0 gives it finite-shot readout. kPureStatevector
  /// evaluates noise-free; kSampled gives hardware-like finite-shot logits
  /// at statevector cost. Dispatched through BackendRegistry::global(), so
  /// registered custom regimes work here too.
  BackendConfig backend;
};

struct NoisyEvalResult {
  double accuracy = 0.0;
  std::vector<int> predictions;
};

/// Config-driven evaluation of parameters on a dataset. With the default
/// options this is the exact noisy evaluation: the routed model is lowered +
/// compiled at `theta` once (compression peephole active, calibrated
/// channels folded in — cached across calls) and every sample is classified
/// with the compiled density-matrix program, parallel over samples. Other
/// execution regimes are one `options.backend` away (noise-free
/// statevector, finite-shot sampled readout) — the evaluation itself always
/// goes through the ExecutionBackend the registry builds for the config.
///
/// Class logits are read positionally: logit k is <Z> of readout slot k,
/// i.e. model.readout_qubits[k] routed to its physical home — correct for
/// any readout set, not just {0..k-1}.
NoisyEvalResult noisy_evaluate(const QnnModel& model,
                               const TranspiledModel& transpiled,
                               std::span<const double> theta,
                               const Dataset& data, const Calibration& calib,
                               const NoisyEvalOptions& options = {});

/// Status-returning form of noisy_evaluate: malformed inputs (empty dataset,
/// missing readout qubits, theta/feature arity mismatches, a calibration
/// that does not cover the routed device) come back as Status values instead
/// of thrown PreconditionError. This is the validation boundary the serving
/// layer (src/serve/) is built on; noisy_evaluate is now a thin throwing
/// shim over it for research call sites.
StatusOr<NoisyEvalResult> noisy_evaluate_or(const QnnModel& model,
                                            const TranspiledModel& transpiled,
                                            std::span<const double> theta,
                                            const Dataset& data,
                                            const Calibration& calib,
                                            const NoisyEvalOptions& options = {});

/// Accuracy-only convenience wrapper.
double noisy_accuracy(const QnnModel& model, const TranspiledModel& transpiled,
                      std::span<const double> theta, const Dataset& data,
                      const Calibration& calib,
                      const NoisyEvalOptions& options = {});

/// Ideal-simulator accuracy of the logical model.
double noise_free_accuracy(const QnnModel& model, std::span<const double> theta,
                           const Dataset& data);

}  // namespace qucad
