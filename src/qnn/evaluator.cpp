#include "qnn/evaluator.hpp"

#include "backend/registry.hpp"
#include "common/require.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "qnn/eval_cache.hpp"

namespace qucad {

StatusOr<NoisyEvalResult> noisy_evaluate_or(const QnnModel& model,
                                            const TranspiledModel& transpiled,
                                            std::span<const double> theta,
                                            const Dataset& data,
                                            const Calibration& calib,
                                            const NoisyEvalOptions& options) {
  if (data.size() == 0) return Status::invalid_argument("empty evaluation set");
  if (model.readout_qubits.empty()) {
    return Status::failed_precondition("model has no readout qubits");
  }
  if (static_cast<int>(theta.size()) != model.num_params()) {
    return Status::invalid_argument(
        "theta has " + std::to_string(theta.size()) + " parameters, model has " +
        std::to_string(model.num_params()));
  }
  const std::size_t num_inputs =
      static_cast<std::size_t>(model.num_inputs());
  for (const std::vector<double>& x : data.features) {
    if (x.size() < num_inputs) {
      return Status::invalid_argument(
          "sample has " + std::to_string(x.size()) +
          " features, the encoder reads " + std::to_string(num_inputs));
    }
  }
  if (calib.num_qubits() != transpiled.num_physical_qubits()) {
    return Status::invalid_argument(
        "calibration covers " + std::to_string(calib.num_qubits()) +
        " qubits, the routed circuit uses " +
        std::to_string(transpiled.num_physical_qubits()));
  }
  BackendContext context;
  context.model = &model;
  context.transpiled = &transpiled;
  context.theta = theta;
  context.calibration = &calib;
  context.noise = options.noise;
  context.use_cache = options.use_cache;
  StatusOr<std::shared_ptr<const ExecutionBackend>> backend =
      BackendRegistry::global().make(options.backend, context);
  if (!backend.ok()) return backend.status();

  const std::vector<std::vector<double>> zs =
      (*backend)->run_logits_batch(data.features, options.pool);

  NoisyEvalResult result;
  result.predictions.assign(data.size(), -1);
  std::size_t total_correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    // run_z output is ordered by readout slot: zs[i][k] is <Z> of class k
    // (model.readout_qubits[k] at its routed physical home). Indexing by
    // qubit id here would misread — or run past — the logit vector for any
    // model whose readout qubits are not {0..k-1}.
    const int pred = static_cast<int>(argmax(zs[i]));
    result.predictions[i] = pred;
    if (pred == data.labels[i]) ++total_correct;
  }
  result.accuracy =
      static_cast<double>(total_correct) / static_cast<double>(data.size());
  return result;
}

NoisyEvalResult noisy_evaluate(const QnnModel& model,
                               const TranspiledModel& transpiled,
                               std::span<const double> theta,
                               const Dataset& data, const Calibration& calib,
                               const NoisyEvalOptions& options) {
  StatusOr<NoisyEvalResult> result =
      noisy_evaluate_or(model, transpiled, theta, data, calib, options);
  // Research shim: surface validation failures the historical way (throw).
  // The message is only materialized on the failure path — this wrapper sits
  // inside keep-best and harness loops.
  if (!result.ok()) require(false, result.status().to_string());
  return std::move(result).value();
}

double noisy_accuracy(const QnnModel& model, const TranspiledModel& transpiled,
                      std::span<const double> theta, const Dataset& data,
                      const Calibration& calib, const NoisyEvalOptions& options) {
  return noisy_evaluate(model, transpiled, theta, data, calib, options).accuracy;
}

double noise_free_accuracy(const QnnModel& model, std::span<const double> theta,
                           const Dataset& data) {
  require(data.size() > 0, "empty evaluation set");
  // Replay the compiled statevector program instead of re-walking the
  // logical gate list (predict()): one compile serves every sample. Logits
  // stay positional — slot k is class k.
  const std::shared_ptr<const CompiledExecutor> executor =
      build_pure_executor(model.circuit, model.readout_qubits);
  // Batched replay: full sample blocks go through the SoA lane engine, the
  // ragged tail per sample (CompiledExecutor::run_z_batch).
  const std::vector<std::vector<double>> logits =
      executor->run_z_batch(data.features, theta);
  std::size_t total = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    total += static_cast<int>(argmax(logits[i])) == data.labels[i] ? 1 : 0;
  }
  return static_cast<double>(total) / static_cast<double>(data.size());
}

}  // namespace qucad
