#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/circuit.hpp"
#include "data/dataset.hpp"
#include "qnn/model.hpp"

namespace qucad {

struct TrainConfig {
  int epochs = 30;
  int batch_size = 32;
  double lr = 0.05;
  double logit_scale = 5.0;
  std::uint64_t seed = 1234;

  /// Per-parameter freeze flags (1 = frozen); empty = all trainable.
  std::vector<std::uint8_t> frozen;

  /// ADMM proximal term: adds prox_rho * (theta - anchor) to the gradient.
  const std::vector<double>* prox_anchor = nullptr;
  double prox_rho = 0.0;
};

struct TrainResult {
  std::vector<double> epoch_losses;
  double final_train_accuracy = 0.0;
};

/// Hook that can rewrite the circuit once per mini-batch (used to inject
/// stochastic Pauli noise for noise-aware training). Receives a fresh Rng
/// stream; returning the base circuit unchanged trains noise-free.
using BatchCircuitHook = std::function<Circuit(const Circuit& base, Rng& rng)>;

/// Mini-batch Adam training of a circuit's trainable parameters against a
/// dataset, using exact adjoint gradients. The circuit is lowered once with
/// its trainable angles symbolic and each batch replays the compiled
/// op-stream (batch_loss_grad over a CompiledExecutor). The call compiles
/// one program (build_pure_executor) that every optimizer step replays,
/// since theta is bound at replay time; under a hook each mini-batch
/// compiles its freshly injected structure instead.
TrainResult train_circuit(const Circuit& circuit,
                          const std::vector<int>& readout_qubits,
                          std::vector<double>& theta, const Dataset& data,
                          const TrainConfig& config,
                          const BatchCircuitHook& hook = nullptr);

/// Convenience: noise-free training of a QnnModel.
TrainResult train_model(const QnnModel& model, std::vector<double>& theta,
                        const Dataset& data, const TrainConfig& config);

}  // namespace qucad
