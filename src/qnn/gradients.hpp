#pragma once

#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "data/dataset.hpp"
#include "transpile/executor.hpp"

namespace qucad {

/// Mean loss/gradient of a mini-batch.
struct BatchGrad {
  double loss = 0.0;
  double accuracy = 0.0;
  std::vector<double> grad;
};

/// Mean cross-entropy loss, accuracy and exact gradient over the selected
/// samples, computed with one adjoint pass per sample, spread over `pool`
/// (nullptr = the process-global pool).
///
/// Works on any circuit whose inputs are the dataset features: the logical
/// model circuit, the routed physical circuit (pass the physical readout
/// qubits), or a noise-injected variant.
BatchGrad batch_loss_grad(const Circuit& circuit,
                          const std::vector<int>& readout_qubits,
                          std::span<const double> theta, const Dataset& data,
                          std::span<const std::size_t> indices,
                          double logit_scale, ThreadPool* pool = nullptr);

/// Loss/accuracy only (skips the backward sweep).
BatchGrad batch_loss(const Circuit& circuit,
                     const std::vector<int>& readout_qubits,
                     std::span<const double> theta, const Dataset& data,
                     std::span<const std::size_t> indices, double logit_scale);

/// Compiled-engine variant of batch_loss_grad: replays the executor's
/// symbolic-theta program instead of re-walking a gate list, spread over
/// `pool` (nullptr = the process-global pool). Each block of kBlockLanes
/// samples runs one lane adjoint (one forward + one reverse sweep, lane-wide
/// duals); the ragged tail runs at width 1, or as one padded block when
/// the pool is short of threads (parallel_for_lanes). Class logits are read
/// positionally from the executor's readout slots — slot k is class k.
/// Agrees with the reference batch_loss_grad on the corresponding logical
/// circuit at 1e-10 (same unitary up to global phase); gradients are sized
/// to theta.size(). Selected feature rows are validated against the
/// program's input arity up front, on the calling thread.
BatchGrad batch_loss_grad(const CompiledExecutor& executor,
                          std::span<const double> theta, const Dataset& data,
                          std::span<const std::size_t> indices,
                          double logit_scale, ThreadPool* pool = nullptr);

/// Compiled-engine variant of batch_loss (forward replays only; same lane
/// blocking, validation, and `pool` contract as batch_loss_grad).
BatchGrad batch_loss(const CompiledExecutor& executor,
                     std::span<const double> theta, const Dataset& data,
                     std::span<const std::size_t> indices, double logit_scale,
                     ThreadPool* pool = nullptr);

}  // namespace qucad
