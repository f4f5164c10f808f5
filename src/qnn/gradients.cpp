#include "qnn/gradients.hpp"

#include <array>
#include <utility>

#include "common/require.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "qnn/loss.hpp"
#include "sim/adjoint.hpp"
#include "sim/compiled_adjoint.hpp"
#include "sim/statevector.hpp"

namespace qucad {

namespace {

std::vector<double> readout_logits(const std::vector<double>& z_all,
                                   const std::vector<int>& readout_qubits) {
  std::vector<double> logits;
  logits.reserve(readout_qubits.size());
  for (int q : readout_qubits) {
    logits.push_back(z_all[static_cast<std::size_t>(q)]);
  }
  return logits;
}

}  // namespace

BatchGrad batch_loss_grad(const Circuit& circuit,
                          const std::vector<int>& readout_qubits,
                          std::span<const double> theta, const Dataset& data,
                          std::span<const std::size_t> indices,
                          double logit_scale, ThreadPool* pool) {
  require(!indices.empty(), "empty batch");
  const std::size_t batch = indices.size();
  const std::size_t num_params = static_cast<std::size_t>(circuit.num_trainable());
  const int n = circuit.num_qubits();

  std::vector<double> losses(batch, 0.0);
  std::vector<int> correct(batch, 0);
  std::vector<std::vector<double>> grads(batch);

  ThreadPool& workers = pool ? *pool : ThreadPool::global();
  workers.parallel_for(batch, [&](std::size_t b) {
    const std::size_t row = indices[b];
    const std::vector<double>& x = data.features[row];
    const int label = data.labels[row];

    const AdjointResult result = adjoint_gradient(
        circuit, theta, x,
        [&](const std::vector<double>& z_all) {
          const std::vector<double> logits = readout_logits(z_all, readout_qubits);
          const std::vector<double> dlogits =
              cross_entropy_grad(logits, label, logit_scale);
          std::vector<double> weights(static_cast<std::size_t>(n), 0.0);
          for (std::size_t c = 0; c < readout_qubits.size(); ++c) {
            weights[static_cast<std::size_t>(readout_qubits[c])] += dlogits[c];
          }
          return weights;
        });

    const std::vector<double> logits =
        readout_logits(result.z_expectations, readout_qubits);
    losses[b] = cross_entropy(logits, label, logit_scale);
    correct[b] = static_cast<int>(argmax(logits)) == label ? 1 : 0;
    grads[b] = result.gradients;
  });

  BatchGrad out;
  out.grad.assign(num_params, 0.0);
  for (std::size_t b = 0; b < batch; ++b) {
    out.loss += losses[b];
    out.accuracy += correct[b];
    for (std::size_t p = 0; p < num_params; ++p) out.grad[p] += grads[b][p];
  }
  const double inv = 1.0 / static_cast<double>(batch);
  out.loss *= inv;
  out.accuracy *= inv;
  for (double& g : out.grad) g *= inv;
  return out;
}

BatchGrad batch_loss(const Circuit& circuit,
                     const std::vector<int>& readout_qubits,
                     std::span<const double> theta, const Dataset& data,
                     std::span<const std::size_t> indices, double logit_scale) {
  require(!indices.empty(), "empty batch");
  const std::size_t batch = indices.size();

  std::vector<double> losses(batch, 0.0);
  std::vector<int> correct(batch, 0);

  parallel_for(batch, [&](std::size_t b) {
    const std::size_t row = indices[b];
    StateVector sv(circuit.num_qubits());
    sv.run(circuit, theta, data.features[row]);
    std::vector<double> logits;
    logits.reserve(readout_qubits.size());
    for (int q : readout_qubits) logits.push_back(sv.expectation_z(q));
    losses[b] = cross_entropy(logits, data.labels[row], logit_scale);
    correct[b] = static_cast<int>(argmax(logits)) == data.labels[row] ? 1 : 0;
  });

  BatchGrad out;
  for (std::size_t b = 0; b < batch; ++b) {
    out.loss += losses[b];
    out.accuracy += correct[b];
  }
  out.loss /= static_cast<double>(batch);
  out.accuracy /= static_cast<double>(batch);
  return out;
}

BatchGrad batch_loss_grad(const CompiledExecutor& executor,
                          std::span<const double> theta, const Dataset& data,
                          std::span<const std::size_t> indices,
                          double logit_scale, ThreadPool* pool) {
  require(!indices.empty(), "empty batch");
  require(executor.num_trainable() <= static_cast<int>(theta.size()),
          "theta smaller than the executor's trainable parameter space");
  const std::size_t batch = indices.size();
  const std::size_t num_params = theta.size();
  const int n = executor.program().num_qubits();
  const std::vector<int>& slots = executor.readout_slots();
  // Validate the selected rows up front, on the calling thread — a ragged
  // row must not fail deep inside a worker's replay.
  for (const std::size_t row : indices) {
    executor.program().require_inputs(data.features[row]);
  }

  std::vector<double> losses(batch, 0.0);
  std::vector<int> correct(batch, 0);
  std::vector<std::vector<double>> grads(batch);

  // Positional class logits from a per-qubit <Z> vector, plus the matching
  // per-qubit observable weights dL/d<Z_q>.
  auto logits_of = [&](const std::vector<double>& z_all) {
    std::vector<double> logits;
    logits.reserve(slots.size());
    for (int q : slots) logits.push_back(z_all[static_cast<std::size_t>(q)]);
    return logits;
  };
  auto weights_of = [&](const std::vector<double>& logits, int label) {
    const std::vector<double> dlogits =
        cross_entropy_grad(logits, label, logit_scale);
    std::vector<double> weights(static_cast<std::size_t>(n), 0.0);
    for (std::size_t c = 0; c < slots.size(); ++c) {
      weights[static_cast<std::size_t>(slots[c])] += dlogits[c];
    }
    return weights;
  };

  // One lane adjoint per block: its samples share a forward replay and a
  // reverse sweep, each lane accumulating its own gradient vector.
  parallel_for_lanes(
      pool ? *pool : ThreadPool::global(), batch, true,
      [&](auto width, std::size_t first, std::size_t live) {
        constexpr std::size_t L = decltype(width)::value;
        LaneInputs<L> xs;
        std::array<int, L> labels;
        for (std::size_t l = 0; l < L; ++l) {
          const std::size_t row = indices[lane_row(first, l, live)];
          xs[l] = data.features[row].data();
          labels[l] = data.labels[row];
        }
        // Filled by the weight hook (which the adjoint invokes once per
        // lane, after the forward replay) and reused for the loss below.
        std::array<std::vector<double>, L> lane_logits;
        LaneAdjointResult result = compiled_adjoint_gradient_lanes<L>(
            executor.program(), theta, xs,
            [&](std::size_t lane, const std::vector<double>& z_all) {
              lane_logits[lane] = logits_of(z_all);
              return weights_of(lane_logits[lane], labels[lane]);
            });
        for (std::size_t l = 0; l < live; ++l) {
          const std::size_t b = first + l;
          losses[b] = cross_entropy(lane_logits[l], labels[l], logit_scale);
          correct[b] =
              static_cast<int>(argmax(lane_logits[l])) == labels[l] ? 1 : 0;
          grads[b] = std::move(result.gradients[l]);
          grads[b].resize(num_params, 0.0);
        }
      });

  BatchGrad out;
  out.grad.assign(num_params, 0.0);
  for (std::size_t b = 0; b < batch; ++b) {
    out.loss += losses[b];
    out.accuracy += correct[b];
    for (std::size_t p = 0; p < num_params; ++p) out.grad[p] += grads[b][p];
  }
  const double inv = 1.0 / static_cast<double>(batch);
  out.loss *= inv;
  out.accuracy *= inv;
  for (double& g : out.grad) g *= inv;
  return out;
}

BatchGrad batch_loss(const CompiledExecutor& executor,
                     std::span<const double> theta, const Dataset& data,
                     std::span<const std::size_t> indices, double logit_scale,
                     ThreadPool* pool) {
  require(!indices.empty(), "empty batch");
  const std::size_t batch = indices.size();
  for (const std::size_t row : indices) {
    executor.program().require_inputs(data.features[row]);
  }

  std::vector<double> losses(batch, 0.0);
  std::vector<int> correct(batch, 0);

  parallel_for_lanes(
      pool ? *pool : ThreadPool::global(), batch, true,
      [&](auto width, std::size_t first, std::size_t live) {
        constexpr std::size_t L = decltype(width)::value;
        LaneInputs<L> xs;
        for (std::size_t l = 0; l < L; ++l) {
          xs[l] = data.features[indices[lane_row(first, l, live)]].data();
        }
        std::array<std::vector<double>, L> logits;
        executor.run_z_lanes<L>(xs, theta, std::span(logits.data(), live));
        for (std::size_t l = 0; l < live; ++l) {
          const int label = data.labels[indices[first + l]];
          losses[first + l] = cross_entropy(logits[l], label, logit_scale);
          correct[first + l] =
              static_cast<int>(argmax(logits[l])) == label ? 1 : 0;
        }
      });

  BatchGrad out;
  for (std::size_t b = 0; b < batch; ++b) {
    out.loss += losses[b];
    out.accuracy += correct[b];
  }
  out.loss /= static_cast<double>(batch);
  out.accuracy /= static_cast<double>(batch);
  return out;
}

}  // namespace qucad
