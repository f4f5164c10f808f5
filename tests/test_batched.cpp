// Equivalence and regression suite for the SoA lane replay
// (sim/batched_state.hpp): a sample's results must be bitwise the same
// whether it replays in a full kBlockLanes block or alone at width 1 —
// density and pure forward, the adjoint, and the sampled backend's shot
// streams alike, over every batch size around the block width — and the
// batch entry points must reject short feature rows up front, on the
// calling thread.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "data/mnist_synth.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/eval_cache.hpp"
#include "qnn/evaluator.hpp"
#include "qnn/gradients.hpp"
#include "qnn/model.hpp"
#include "qnn/trainer.hpp"
#include "sim/batched_state.hpp"
#include "sim/statevector.hpp"
#include "transpile/executor.hpp"
#include "transpile/transpiler.hpp"

#include "test_support.hpp"

namespace qucad {
namespace {

using test::kAgreementTol;

constexpr std::size_t kLanes = kBlockLanes;

/// The paper model compiled symbolically plus enough synthetic samples to
/// cover two full lane blocks and a ragged tail.
struct BatchedFixture {
  QnnModel model = build_paper_model(4, 4, 4, 2);
  std::vector<double> theta = init_params(model, 11);
  std::shared_ptr<const PureExecutor> executor =
      build_pure_executor(model.circuit, model.readout_qubits);
  Dataset data = make_mnist4(2 * kLanes + 3, 17);
};

std::span<const std::vector<double>> first_rows(const Dataset& data,
                                                std::size_t n) {
  return std::span<const std::vector<double>>(data.features.data(), n);
}

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

TEST(BatchedReplay, LaneAdjointMatchesLogicalReference) {
  // Pin the whole chain, not just lane-vs-scalar: the lane gradient on a
  // ragged batch must agree with the uncompiled logical-circuit reference.
  const BatchedFixture fx;
  const auto indices = iota_indices(kLanes + 3);
  const BatchGrad lane =
      batch_loss_grad(*fx.executor, fx.theta, fx.data, indices, 5.0);
  const BatchGrad logical = batch_loss_grad(
      fx.model.circuit, fx.model.readout_qubits, fx.theta, fx.data, indices, 5.0);
  EXPECT_NEAR(lane.loss, logical.loss, kAgreementTol);
  EXPECT_DOUBLE_EQ(lane.accuracy, logical.accuracy);
  ASSERT_EQ(lane.grad.size(), logical.grad.size());
  for (std::size_t p = 0; p < lane.grad.size(); ++p) {
    EXPECT_NEAR(lane.grad[p], logical.grad[p], kAgreementTol)
        << "parameter " << p;
  }
}

TEST(BatchedReplay, ReadoutSlotsStayPositional) {
  // Readout on qubits {1, 3}: slot 0 must read qubit 1 and slot 1 qubit 3.
  // A qubit-indexed write in the lane readout would scatter these into the
  // wrong (or out-of-range) entries of the logit vector.
  Circuit c(4);
  c.ry(0, input(0));       // consume the input so rows need >= 1 feature
  c.x(1);                  // slot 0: <Z> = -1 exactly
  c.ry(3, trainable(0));   // slot 1: <Z> = cos(theta0)
  const auto executor = build_pure_executor(c, {1, 3});
  const std::vector<double> theta{0.7};

  std::vector<std::vector<double>> xs(kLanes + 2);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = {0.1 * static_cast<double>(i)};
  }
  const auto lane = executor->run_z_batch(xs, theta);
  ASSERT_EQ(lane.size(), xs.size());
  for (std::size_t i = 0; i < lane.size(); ++i) {
    ASSERT_EQ(lane[i].size(), 2u);
    EXPECT_NEAR(lane[i][0], -1.0, kAgreementTol) << "sample " << i;
    EXPECT_NEAR(lane[i][1], std::cos(0.7), kAgreementTol) << "sample " << i;
    EXPECT_EQ(lane[i], executor->run_z(xs[i], theta)) << "sample " << i;
  }
}

TEST(SampledBatched, LaneBlocksDrawBitwiseIdenticalShotStreams) {
  // Sample i of a batch draws from seed + i whichever width replays it. A
  // backend seeded seed + i therefore reproduces sample i's stream through
  // the width-1 single-sample path (run_logits draws from its own seed + 0),
  // giving a bitwise reference for every lane of every block — including
  // lane positions the in-batch width-1 tail can never cover — with and
  // without readout confusion.
  const BatchedFixture fx;
  const std::uint64_t seed = 41;
  const int shots = 256;
  const std::size_t n = 2 * kLanes + 3;  // two lane blocks + width-1 tail
  const auto xs = first_rows(fx.data, n);

  const std::vector<ReadoutError> confusions[] = {
      {},  // confusion-free: the multinomial draws from the raw marginals
      {ReadoutError{0.1, 0.2}, ReadoutError{0.05, 0.3}, ReadoutError{0.02, 0.04},
       ReadoutError{0.15, 0.0}},  // confused bins change every binomial's p
  };
  for (const auto& slot_readout : confusions) {
    const StatevectorBackend batch(fx.executor, fx.theta, slot_readout, shots,
                                   seed);
    const auto zs = batch.run_logits_batch(xs);
    ASSERT_EQ(zs.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const StatevectorBackend per(fx.executor, fx.theta, slot_readout, shots,
                                   seed + i);
      EXPECT_EQ(per.run_logits(xs[i]), zs[i])
          << "sample " << i << (slot_readout.empty() ? "" : " (with confusion)");
    }
  }
}

TEST(BatchedValidation, ShortRowsFailUpFrontAtEveryBatchEntryPoint) {
  const BatchedFixture fx;
  // One row shorter than the encoder's arity, buried mid-batch so the
  // failure must come from the up-front sweep, not a worker's replay.
  std::vector<std::vector<double>> ragged(fx.data.features.begin(),
                                          fx.data.features.begin() + kLanes);
  ragged[3] = {0.5, 0.5};  // the compiled program reads 4 inputs

  EXPECT_THROW(fx.executor->run_z_batch(ragged, fx.theta), PreconditionError);
  EXPECT_THROW(fx.executor->run_z(ragged[3], fx.theta), PreconditionError);

  const StatevectorBackend sampled(fx.executor, fx.theta, {}, 32, 7);
  EXPECT_THROW(sampled.run_logits_batch(ragged), PreconditionError);
  EXPECT_THROW(sampled.run_logits(ragged[3]), PreconditionError);

  Dataset short_row = fx.data;
  short_row.features[3] = {0.5, 0.5};
  const auto indices = iota_indices(kLanes);
  EXPECT_THROW(
      batch_loss_grad(*fx.executor, fx.theta, short_row, indices, 5.0),
      PreconditionError);
  EXPECT_THROW(batch_loss(*fx.executor, fx.theta, short_row, indices, 5.0),
               PreconditionError);
  // Selecting only full rows must still pass: validation covers the
  // selected rows, not the whole dataset.
  const std::vector<std::size_t> full_rows{0, 1, 2, 4};
  EXPECT_NO_THROW(
      batch_loss_grad(*fx.executor, fx.theta, short_row, full_rows, 5.0));
}

/// The paper model lowered onto belem with calibrated noise folded in — the
/// density-engine counterpart of BatchedFixture.
struct NoisyBatchedFixture {
  CalibrationHistory history{FluctuationScenario::belem(), 2, 4242};
  QnnModel model = build_paper_model(4, 4, 2, 1);
  std::vector<double> theta = init_params(model, 11);
  TranspiledModel transpiled =
      transpile_model(model.circuit, model.readout_qubits, CouplingMap::belem(),
                      &history.day(0));
  Dataset data = make_mnist4(2 * kLanes + 3, 19);
  std::shared_ptr<const NoisyExecutor> noisy =
      build_noisy_executor(model, transpiled, theta, history.day(0), {});
};

TEST(BatchedValidation, NoisyBatchAndEvaluatorRejectShortRows) {
  const NoisyBatchedFixture fx;
  Dataset data = fx.data;
  data.features[2] = {0.25};  // 1 feature, the encoder reads 4

  EXPECT_THROW(fx.noisy->run_z_batch(data.features), PreconditionError);

  // The Status surface reports the same defect as invalid_argument instead
  // of throwing from a worker thread.
  const auto result = noisy_evaluate_or(fx.model, fx.transpiled, fx.theta,
                                        data, fx.history.day(0), {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// The four sweeps below run every batch size through two full blocks plus a
// tail: 1..17 covers tail-only (< kLanes), exactly one block, block + ragged
// tail, and two blocks + tail. "Scalar" is the width-1 single-sample path:
// each batch result must be bitwise the same sample answered alone, and the
// gate-by-gate oracles pin the absolute values at 1e-10.

TEST(BatchedReplay, LaneForwardBitwiseMatchesScalarAcrossRaggedSizes) {
  const BatchedFixture fx;
  const StatevectorBackend sampled(fx.executor, fx.theta, {}, 256, 41);
  const auto& slots = fx.executor->circuit().readout_physical();
  for (std::size_t n = 1; n <= 2 * kLanes + 1; ++n) {
    SCOPED_TRACE("batch size " + std::to_string(n));
    const auto xs = first_rows(fx.data, n);
    const auto pure = fx.executor->run_z_batch(xs, fx.theta);
    const auto logits = sampled.run_logits_batch(xs);
    ASSERT_EQ(pure.size(), n);
    ASSERT_EQ(logits.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("sample " + std::to_string(i));
      // Bitwise, not near: the sampled backend's shot streams depend on the
      // block amplitudes being exactly the width-1 amplitudes.
      EXPECT_EQ(pure[i], fx.executor->run_z(xs[i], fx.theta));
      // Sample i draws from seed + i whichever width replays it.
      const StatevectorBackend alone(fx.executor, fx.theta, {}, 256, 41 + i);
      EXPECT_EQ(logits[i], alone.run_logits(xs[i]));

      const StateVector oracle =
          run_physical_pure(fx.executor->circuit(), xs[i], fx.theta);
      ASSERT_EQ(pure[i].size(), slots.size());
      for (std::size_t k = 0; k < slots.size(); ++k) {
        EXPECT_NEAR(pure[i][k], oracle.expectation_z(slots[k]), kAgreementTol)
            << "slot " << k;
      }
    }
  }
}

TEST(BatchedReplay, LaneAdjointMatchesScalarAcrossRaggedSizes) {
  // A batch's mean loss/gradient must be bitwise the mean of its samples'
  // single-sample results, summed in sample order.
  const BatchedFixture fx;
  const double logit_scale = 5.0;
  for (std::size_t n = 1; n <= 2 * kLanes + 1; ++n) {
    SCOPED_TRACE("batch size " + std::to_string(n));
    const auto indices = iota_indices(n);
    const BatchGrad batch =
        batch_loss_grad(*fx.executor, fx.theta, fx.data, indices, logit_scale);
    const BatchGrad forward =
        batch_loss(*fx.executor, fx.theta, fx.data, indices, logit_scale);
    ASSERT_EQ(batch.grad.size(), fx.theta.size());
    BatchGrad summed;
    summed.grad.assign(fx.theta.size(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<std::size_t> one{i};
      const BatchGrad single =
          batch_loss_grad(*fx.executor, fx.theta, fx.data, one, logit_scale);
      summed.loss += single.loss;
      summed.accuracy += single.accuracy;
      for (std::size_t p = 0; p < summed.grad.size(); ++p) {
        summed.grad[p] += single.grad[p];
      }
    }
    const double inv = 1.0 / static_cast<double>(n);
    for (double& g : summed.grad) g *= inv;
    EXPECT_EQ(batch.loss, summed.loss * inv);
    EXPECT_EQ(batch.accuracy, summed.accuracy * inv);
    EXPECT_EQ(batch.grad, summed.grad);
    EXPECT_NEAR(forward.loss, batch.loss, kAgreementTol)
        << "forward-only loss must equal the gradient pass loss";
    EXPECT_DOUBLE_EQ(forward.accuracy, batch.accuracy);
  }
}

TEST(BatchedNoisy, LaneReplayBitwiseMatchesScalarAcrossRaggedSizes) {
  // Exact (shots = 0) expectations: the block density replay must be
  // bitwise the width-1 one, and both inside the documented 1e-10 envelope
  // of the uncompiled gate-by-gate reference.
  const NoisyBatchedFixture fx;
  for (std::size_t n = 1; n <= 2 * kLanes + 1; ++n) {
    SCOPED_TRACE("batch size " + std::to_string(n));
    const auto xs = first_rows(fx.data, n);
    const auto density = fx.noisy->run_z_batch(xs);
    ASSERT_EQ(density.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("sample " + std::to_string(i));
      EXPECT_EQ(density[i], fx.noisy->run_z(xs[i]));
      const auto reference = fx.noisy->run_z_reference(xs[i]);
      ASSERT_EQ(density[i].size(), reference.size());
      for (std::size_t k = 0; k < reference.size(); ++k) {
        EXPECT_NEAR(density[i][k], reference[k], kAgreementTol) << "slot " << k;
      }
    }
  }
}

TEST(BatchedNoisy, LaneShotSamplingBitwiseMatchesScalar) {
  // shots > 0: sample i draws from Rng(seed + i) whichever width replays
  // it, and the block diagonal feeds the same SlotReadout kernel — so
  // sampled results are bitwise identical too, blocks and tail alike.
  const NoisyBatchedFixture fx;
  for (std::size_t n = 1; n <= 2 * kLanes + 1; ++n) {
    SCOPED_TRACE("batch size " + std::to_string(n));
    const auto xs = first_rows(fx.data, n);
    for (const int shots : {1, 128, 8192}) {
      const auto sampled = fx.noisy->run_z_batch(xs, shots, 41);
      ASSERT_EQ(sampled.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sampled[i], fx.noisy->run_z(xs[i], shots, 41 + i))
            << "sample " << i << " shots " << shots;
      }
    }
  }
}

TEST(BatchedThreadPool, ConcurrentBatchesAgreeWithSerialReference) {
  // The lane engines keep per-thread SoA scratch; hammer the shared
  // executor + sampled backend from several caller threads at once (each
  // fanning out over the same pool, and running chunks itself) and require
  // every result to match the reference. Named *ThreadPool* so the TSan
  // preset's test filter picks this suite up.
  const BatchedFixture fx;
  // An explicit 4-thread pool, so the multi-worker path runs even on a
  // 1-core machine.
  ThreadPool pool(4);
  const auto xs = first_rows(fx.data, 2 * kLanes + 1);
  const auto expected_z = fx.executor->run_z_batch(xs, fx.theta);
  const StatevectorBackend sampled(fx.executor, fx.theta, {}, 64, 9);
  const auto expected_logits = sampled.run_logits_batch(xs);
  const auto indices = iota_indices(xs.size());
  const BatchGrad expected_grad =
      batch_loss_grad(*fx.executor, fx.theta, fx.data, indices, 5.0);

  constexpr int kThreads = 4;
  std::array<bool, kThreads> ok{};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool agree = true;
      for (int round = 0; round < 3; ++round) {
        agree &= fx.executor->run_z_batch(xs, fx.theta, &pool) == expected_z;
        agree &= sampled.run_logits_batch(xs, &pool) == expected_logits;
        const BatchGrad grad = batch_loss_grad(*fx.executor, fx.theta, fx.data,
                                               indices, 5.0, &pool);
        agree &= grad.grad == expected_grad.grad &&
                 grad.loss == expected_grad.loss;
      }
      ok[static_cast<std::size_t>(t)] = agree;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(t)]) << "caller thread " << t;
  }
}

TEST(BatchedCapabilities, LaneEnginesAdvertiseBatchedReplay) {
  EXPECT_TRUE(
      backend_kind_capabilities(BackendKind::kPureStatevector).batched_replay);
  EXPECT_TRUE(backend_kind_capabilities(BackendKind::kSampled).batched_replay);
  EXPECT_TRUE(
      backend_kind_capabilities(BackendKind::kDensityNoisy).batched_replay);
}

}  // namespace
}  // namespace qucad
