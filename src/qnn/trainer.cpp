#include "qnn/trainer.hpp"

#include <algorithm>
#include <memory>

#include "common/require.hpp"
#include "qnn/eval_cache.hpp"
#include "qnn/gradients.hpp"
#include "qnn/optimizer.hpp"

namespace qucad {

TrainResult train_circuit(const Circuit& circuit,
                          const std::vector<int>& readout_qubits,
                          std::vector<double>& theta, const Dataset& data,
                          const TrainConfig& config,
                          const BatchCircuitHook& hook) {
  require(theta.size() == static_cast<std::size_t>(circuit.num_trainable()),
          "parameter vector size mismatch");
  require(config.epochs > 0 && config.batch_size > 0, "invalid train config");
  require(config.frozen.empty() || config.frozen.size() == theta.size(),
          "freeze mask size mismatch");
  require(data.size() > 0, "empty training set");

  Rng rng(config.seed);
  Adam optimizer(config.lr);
  // Values frozen parameters must keep throughout training.
  std::vector<double> pinned;
  if (!config.frozen.empty()) pinned = theta;
  TrainResult result;
  result.epoch_losses.reserve(static_cast<std::size_t>(config.epochs));

  // Stable structure: one program for every batch and epoch of this call
  // (theta is bound at replay, never compiled in).
  const std::shared_ptr<const CompiledExecutor> fixed_executor =
      hook ? nullptr : build_pure_executor(circuit, readout_qubits);

  const std::size_t n = data.size();
  const std::size_t batch_size =
      std::min<std::size_t>(static_cast<std::size_t>(config.batch_size), n);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const std::vector<std::size_t> order = rng.permutation(n);
    double epoch_loss = 0.0;
    double epoch_acc = 0.0;
    std::size_t num_batches = 0;

    for (std::size_t start = 0; start < n; start += batch_size) {
      const std::size_t end = std::min(start + batch_size, n);
      const std::span<const std::size_t> indices(order.data() + start, end - start);

      // Under a hook the structure changes every mini-batch (fresh sampled
      // noise), so each batch compiles its own program; one compilation
      // still amortizes over the batch's forward + adjoint replays.
      std::shared_ptr<const CompiledExecutor> executor = fixed_executor;
      if (hook) {
        Rng hook_rng = rng.fork();
        executor = build_pure_executor(hook(circuit, hook_rng), readout_qubits);
      }
      BatchGrad bg = batch_loss_grad(*executor, theta, data, indices,
                                     config.logit_scale);

      if (config.prox_anchor != nullptr && config.prox_rho > 0.0) {
        const std::vector<double>& anchor = *config.prox_anchor;
        require(anchor.size() == theta.size(), "prox anchor size mismatch");
        for (std::size_t i = 0; i < theta.size(); ++i) {
          bg.grad[i] += config.prox_rho * (theta[i] - anchor[i]);
        }
      }
      if (!config.frozen.empty()) {
        for (std::size_t i = 0; i < theta.size(); ++i) {
          if (config.frozen[i]) bg.grad[i] = 0.0;
        }
      }

      optimizer.step(theta, bg.grad);
      // Re-pin frozen parameters exactly (Adam momentum could drift them).
      if (!config.frozen.empty()) {
        for (std::size_t i = 0; i < theta.size(); ++i) {
          if (config.frozen[i]) theta[i] = pinned[i];
        }
      }

      epoch_loss += bg.loss;
      epoch_acc += bg.accuracy;
      ++num_batches;
    }

    result.epoch_losses.push_back(epoch_loss / static_cast<double>(num_batches));
    result.final_train_accuracy = epoch_acc / static_cast<double>(num_batches);
  }
  return result;
}

TrainResult train_model(const QnnModel& model, std::vector<double>& theta,
                        const Dataset& data, const TrainConfig& config) {
  return train_circuit(model.circuit, model.readout_qubits, theta, data, config);
}

}  // namespace qucad
