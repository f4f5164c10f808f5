// Equivalence and regression suite for the SoA lane replay
// (sim/batched_state.hpp): a sample's results must be bitwise the same
// whether it replays in a full kBlockLanes block or alone at width 1 —
// density and pure forward, the adjoint, and the sampled backend's shot
// streams alike, over every batch size around the block width — and the
// batch entry points must reject short feature rows up front, on the
// calling thread. The replay's per-ISA clones are pinned bitwise against the
// baseline-built kernels on whatever CPU runs the suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "backend/registry.hpp"
#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "data/mnist_synth.hpp"
#include "noise/calibration_history.hpp"
#include "noise/noise_model.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/eval_cache.hpp"
#include "qnn/evaluator.hpp"
#include "qnn/gradients.hpp"
#include "qnn/model.hpp"
#include "qnn/trainer.hpp"
#include "sim/batched_state.hpp"
#include "sim/compiled_ops.hpp"
#include "sim/isa_clones.hpp"
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
  std::shared_ptr<const CompiledExecutor> executor =
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
  // Two lane blocks + a 3-row tail: width-1 rows on a pool of five or more
  // threads, one padded block on a narrower one (parallel_for_lanes).
  const std::size_t n = 2 * kLanes + 3;
  const auto xs = first_rows(fx.data, n);

  const std::vector<ReadoutError> confusions[] = {
      {},  // confusion-free: the multinomial draws from the raw marginals
      {ReadoutError{0.1, 0.2}, ReadoutError{0.05, 0.3}, ReadoutError{0.02, 0.04},
       ReadoutError{0.15, 0.0}},  // confused bins change every binomial's p
  };
  for (const auto& slot_readout : confusions) {
    const CompiledBackend batch(BackendKind::kSampled, fx.executor, fx.theta,
                                shots, seed, slot_readout);
    const auto zs = batch.run_logits_batch(xs);
    ASSERT_EQ(zs.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const CompiledBackend per(BackendKind::kSampled, fx.executor, fx.theta,
                                shots, seed + i, slot_readout);
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

  const CompiledBackend sampled(BackendKind::kSampled, fx.executor, fx.theta,
                                32, 7);
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
  std::shared_ptr<const CompiledExecutor> noisy =
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
  const CompiledBackend sampled(BackendKind::kSampled, fx.executor, fx.theta,
                                256, 41);
  const PhysicalCircuit circuit =
      lower_pure_circuit(fx.model.circuit, fx.model.readout_qubits);
  const auto& slots = fx.executor->readout_slots();
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
      const CompiledBackend alone(BackendKind::kSampled, fx.executor,
                                  fx.theta, 256, 41 + i);
      EXPECT_EQ(logits[i], alone.run_logits(xs[i]));

      const StateVector oracle = run_physical_pure(circuit, xs[i], fx.theta);
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
  const PhysicalCircuit circuit =
      lower_noisy_circuit(fx.model, fx.transpiled, fx.theta);
  const NoiseModel noise(fx.history.day(0));
  for (std::size_t n = 1; n <= 2 * kLanes + 1; ++n) {
    SCOPED_TRACE("batch size " + std::to_string(n));
    const auto xs = first_rows(fx.data, n);
    const auto density = fx.noisy->run_z_batch(xs);
    ASSERT_EQ(density.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("sample " + std::to_string(i));
      EXPECT_EQ(density[i], fx.noisy->run_z(xs[i]));
      const auto reference = run_z_reference(circuit, noise, xs[i]);
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
      const auto sampled = fx.noisy->run_z_batch(xs, {}, shots, 41);
      ASSERT_EQ(sampled.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sampled[i], fx.noisy->run_z(xs[i], {}, shots, 41 + i))
            << "sample " << i << " shots " << shots;
      }
    }
  }
}

constexpr std::array<cplx, 4> kIdentity2{cplx{1.0, 0.0}, cplx{0.0, 0.0},
                                         cplx{0.0, 0.0}, cplx{1.0, 0.0}};

/// A random 2x2 unitary: e^{i phi} RZ(a) RY(b) RZ(c), every entry nonzero.
std::array<cplx, 4> random_unitary2(Rng& rng) {
  const double a = rng.uniform(-test::kPi, test::kPi);
  const double b = rng.uniform(0.1, 3.0);
  const double c = rng.uniform(-test::kPi, test::kPi);
  const cplx phase = std::polar(1.0, rng.uniform(-test::kPi, test::kPi));
  const double cb = std::cos(b / 2.0);
  const double sb = std::sin(b / 2.0);
  return {phase * std::polar(cb, -(a + c) / 2.0),
          -(phase * std::polar(sb, -(a - c) / 2.0)),
          phase * std::polar(sb, (a - c) / 2.0),
          phase * std::polar(cb, (a + c) / 2.0)};
}

/// Bytewise equality of lane `lane` of `state` and the oracle's entries.
template <std::size_t L>
void expect_lane_bitwise_oracle(const BatchedDensityMatrix<L>& state,
                                std::size_t lane, const DensityMatrix& oracle) {
  const std::vector<cplx>& rho = oracle.data();
  for (std::size_t i = 0; i < rho.size(); ++i) {
    const double re = rho[i].real();
    const double im = rho[i].imag();
    const double* got_re = state.re() + i * L + lane;
    const double* got_im = state.im() + i * L + lane;
    if (std::memcmp(got_re, &re, sizeof re) != 0 ||
        std::memcmp(got_im, &im, sizeof im) != 0) {
      ADD_FAILURE() << "width " << L << " lane " << lane << " entry " << i
                    << ": (" << *got_re << ", " << *got_im << ") vs oracle "
                    << rho[i];
      return;
    }
  }
}

TEST(BatchedDensity, UnitaryPassesAreBitwiseTheOracle) {
  // Every unitary lane kernel reproduces DensityMatrix's arithmetic, so a
  // random stream of them leaves each lane bitwise equal to a gate-by-gate
  // oracle run of its own matrices. Per-lane ops give every lane its own
  // matrix; the width-1 state follows lane 0.
  constexpr int kQubits = 4;
  Rng rng(2024);
  BatchedDensityMatrix<1> one(kQubits);
  BatchedDensityMatrix<kLanes> block(kQubits);
  std::vector<DensityMatrix> oracles(kLanes, DensityMatrix(kQubits));
  const cplx zero{0.0, 0.0};
  std::array<std::array<cplx, 4>, kLanes> ms;
  for (int step = 0; step < 400; ++step) {
    const int q0 = rng.integer(0, kQubits - 1);
    int q1 = rng.integer(0, kQubits - 2);
    if (q1 >= q0) ++q1;
    switch (rng.integer(0, 5)) {
      case 0: {
        const std::array<cplx, 4> u = random_unitary2(rng);
        one.apply1(q0, u);
        block.apply1(q0, u);
        for (DensityMatrix& o : oracles) o.apply1(q0, u);
        break;
      }
      case 1:
        for (auto& m : ms) m = random_unitary2(rng);
        one.apply1_lanes(q0, ms.data());
        block.apply1_lanes(q0, ms.data());
        for (std::size_t l = 0; l < kLanes; ++l) oracles[l].apply1(q0, ms[l]);
        break;
      case 2: {
        const cplx d0 = std::polar(1.0, rng.uniform(-test::kPi, test::kPi));
        const cplx d1 = std::polar(1.0, rng.uniform(-test::kPi, test::kPi));
        one.apply_diag1(q0, d0, d1);
        block.apply_diag1(q0, d0, d1);
        for (DensityMatrix& o : oracles) o.apply_diag1(q0, d0, d1);
        break;
      }
      case 3:
        for (auto& m : ms) {
          m = {std::polar(1.0, rng.uniform(-test::kPi, test::kPi)), zero, zero,
               std::polar(1.0, rng.uniform(-test::kPi, test::kPi))};
        }
        one.apply_diag1_lanes(q0, ms.data());
        block.apply_diag1_lanes(q0, ms.data());
        for (std::size_t l = 0; l < kLanes; ++l) {
          oracles[l].apply_diag1(q0, ms[l][0], ms[l][3]);
        }
        break;
      case 4:
        one.apply_cx(q0, q1);
        block.apply_cx(q0, q1);
        for (DensityMatrix& o : oracles) {
          o.apply_gate(Gate{GateKind::CX, q0, q1, {}, 0.0}, 0.0);
        }
        break;
      default:
        for (auto& m : ms) m = random_unitary2(rng);
        one.apply_crot_lanes(q0, q1, ms.data());
        block.apply_crot_lanes(q0, q1, ms.data());
        for (std::size_t l = 0; l < kLanes; ++l) {
          // Block-diagonal: M on control 0, X M X on control 1 (local index
          // 2 * bit(control) + bit(target)).
          const std::array<cplx, 4>& m = ms[l];
          oracles[l].apply2(q0, q1, {m[0], m[1], zero, zero,  //
                                     m[2], m[3], zero, zero,  //
                                     zero, zero, m[3], m[2],  //
                                     zero, zero, m[1], m[0]});
        }
        break;
    }
  }
  expect_lane_bitwise_oracle(one, 0, oracles[0]);
  for (std::size_t l = 0; l < kLanes; ++l) {
    expect_lane_bitwise_oracle(block, l, oracles[l]);
  }
}

TEST(BatchedDensity, CxSiteMatchesTheOracleSequenceAtBothWidths) {
  // apply_channel2 is a CX and its error site in one closed-form pass: to
  // 1e-12 the oracle's CX, two-qubit depolarizing, then thermal relaxation
  // on min(q) and on max(q), with the control on either side of the pair.
  // Every lane starts from its own mixed state, and each lane's entries are
  // bitwise the same at width 1 and at width kLanes.
  constexpr int kQubits = 4;
  CxNoise cn;
  cn.depolarizing_p = 0.08;
  cn.thermal_first = ThermalChannel{0.03, 0.01};
  cn.thermal_second = ThermalChannel{0.015, 0.025};
  const FusedChannel2 site = fuse_cx_channel(cn);
  PulseNoise pn;
  pn.depolarizing_p = 0.05;
  pn.thermal = ThermalChannel{0.04, 0.02};
  for (const auto& [control, target] :
       {std::pair{1, 3}, std::pair{3, 1}, std::pair{0, 1}, std::pair{2, 0}}) {
    SCOPED_TRACE("control " + std::to_string(control) + " target " +
                 std::to_string(target));
    Rng rng(static_cast<std::uint64_t>(31 + 4 * control + target));
    BatchedDensityMatrix<kLanes> block(kQubits);
    std::vector<BatchedDensityMatrix<1>> ones(kLanes,
                                              BatchedDensityMatrix<1>(kQubits));
    std::vector<DensityMatrix> oracles(kLanes, DensityMatrix(kQubits));
    std::array<std::array<cplx, 4>, kLanes> ms;
    for (int round = 0; round < 2; ++round) {
      for (int q = 0; q < kQubits; ++q) {
        for (auto& m : ms) m = random_unitary2(rng);
        block.apply1_lanes(q, ms.data());
        block.apply_channel1(q, kIdentity2, fuse_pulse_channel(pn));
        for (std::size_t l = 0; l < kLanes; ++l) {
          ones[l].apply1_lanes(q, &ms[l]);
          ones[l].apply_channel1(q, kIdentity2, fuse_pulse_channel(pn));
          oracles[l].apply1(q, ms[l]);
          oracles[l].apply_depolarizing1(q, pn.depolarizing_p);
          oracles[l].apply_thermal1(q, pn.thermal.gamma, pn.thermal.lambda);
        }
      }
      block.apply_cx(round, round + 2);
      for (std::size_t l = 0; l < kLanes; ++l) {
        ones[l].apply_cx(round, round + 2);
        oracles[l].apply_gate(Gate{GateKind::CX, round, round + 2, {}, 0.0},
                              0.0);
      }
    }
    block.apply_channel2(control, target, site);
    const int a = std::min(control, target);
    const int b = std::max(control, target);
    for (std::size_t l = 0; l < kLanes; ++l) {
      ones[l].apply_channel2(control, target, site);
      DensityMatrix& o = oracles[l];
      o.apply_gate(Gate{GateKind::CX, control, target, {}, 0.0}, 0.0);
      o.apply_depolarizing2(a, b, cn.depolarizing_p);
      o.apply_thermal1(a, cn.thermal_first.gamma, cn.thermal_first.lambda);
      o.apply_thermal1(b, cn.thermal_second.gamma, cn.thermal_second.lambda);
      const std::vector<cplx>& rho = o.data();
      for (std::size_t i = 0; i < rho.size(); ++i) {
        const cplx got{block.re()[i * kLanes + l], block.im()[i * kLanes + l]};
        EXPECT_NEAR(std::abs(got - rho[i]), 0.0, test::kTightTol)
            << "lane " << l << " entry " << i;
        const double one_re = ones[l].re()[i];
        const double one_im = ones[l].im()[i];
        EXPECT_EQ(std::memcmp(&one_re, &block.re()[i * kLanes + l],
                              sizeof(double)),
                  0)
            << "re, lane " << l << " entry " << i;
        EXPECT_EQ(std::memcmp(&one_im, &block.im()[i * kLanes + l],
                              sizeof(double)),
                  0)
            << "im, lane " << l << " entry " << i;
      }
    }
  }
}

TEST(BatchedDensity, PulseSiteMatchesTheOracleSequenceAtBothWidths) {
  // apply_channel1 is a pulse and its error site in one closed-form pass: to
  // 1e-12 the oracle's unitary, depolarizing and thermal steps, for random
  // U(2) pulses with a global phase and for depolarizing-only, thermal-only
  // and combined sites. Every lane starts from its own mixed state, and each
  // lane's entries are bitwise the same at width 1 and at width kLanes.
  constexpr int kQubits = 3;
  std::vector<PulseNoise> sites(3);
  sites[0].depolarizing_p = 0.06;
  sites[1].thermal = ThermalChannel{0.05, 0.03};
  sites[2].depolarizing_p = 0.02;
  sites[2].thermal = ThermalChannel{0.015, 0.04};
  Rng rng(77);
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const PulseNoise& pn = sites[s];
    const FusedChannel1 site = fuse_pulse_channel(pn);
    ASSERT_FALSE(site.is_identity());
    for (int q = 0; q < kQubits; ++q) {
      SCOPED_TRACE("site " + std::to_string(s) + " qubit " +
                   std::to_string(q));
      BatchedDensityMatrix<kLanes> block(kQubits);
      std::vector<BatchedDensityMatrix<1>> ones(
          kLanes, BatchedDensityMatrix<1>(kQubits));
      std::vector<DensityMatrix> oracles(kLanes, DensityMatrix(kQubits));
      // Per-lane mixed states: per-lane rotations, the CX relabel and a
      // depolarizing site on every qubit, twice over.
      std::array<std::array<cplx, 4>, kLanes> ms;
      for (int round = 0; round < 2; ++round) {
        for (int k = 0; k < kQubits; ++k) {
          for (auto& m : ms) m = random_unitary2(rng);
          block.apply1_lanes(k, ms.data());
          block.apply_channel1(k, kIdentity2, fuse_pulse_channel(sites[0]));
          for (std::size_t l = 0; l < kLanes; ++l) {
            ones[l].apply1_lanes(k, &ms[l]);
            ones[l].apply_channel1(k, kIdentity2, fuse_pulse_channel(sites[0]));
            oracles[l].apply1(k, ms[l]);
            oracles[l].apply_depolarizing1(k, sites[0].depolarizing_p);
          }
        }
        block.apply_cx(round, round + 1);
        for (std::size_t l = 0; l < kLanes; ++l) {
          ones[l].apply_cx(round, round + 1);
          oracles[l].apply_gate(Gate{GateKind::CX, round, round + 1, {}, 0.0},
                                0.0);
        }
      }
      const std::array<cplx, 4> u = random_unitary2(rng);
      block.apply_channel1(q, u, site);
      for (std::size_t l = 0; l < kLanes; ++l) {
        ones[l].apply_channel1(q, u, site);
        DensityMatrix& o = oracles[l];
        o.apply1(q, u);
        o.apply_depolarizing1(q, pn.depolarizing_p);
        o.apply_thermal1(q, pn.thermal.gamma, pn.thermal.lambda);
        const std::vector<cplx>& rho = o.data();
        for (std::size_t i = 0; i < rho.size(); ++i) {
          const cplx got{block.re()[i * kLanes + l],
                         block.im()[i * kLanes + l]};
          EXPECT_NEAR(std::abs(got - rho[i]), 0.0, test::kTightTol)
              << "lane " << l << " entry " << i;
          const double one_re = ones[l].re()[i];
          const double one_im = ones[l].im()[i];
          EXPECT_EQ(std::memcmp(&one_re, &block.re()[i * kLanes + l],
                                sizeof(double)),
                    0)
              << "re, lane " << l << " entry " << i;
          EXPECT_EQ(std::memcmp(&one_im, &block.im()[i * kLanes + l],
                                sizeof(double)),
                    0)
              << "im, lane " << l << " entry " << i;
        }
      }
    }
  }
}

// Cross-ISA pins. CompiledProgram::run_lanes / run_pure_lanes dispatch to
// per-ISA clones of the replay (sim/isa_clones.hpp) that inline their own
// copies of the lane kernels, while the out-of-line BatchedDensityMatrix /
// BatchedStateVector members this test calls are built for the baseline ISA.
// Driving one program op by op through the out-of-line kernels and through
// the clone the host resolves must give bitwise the same planes.

/// A compiled program with its theta and one block of feature rows.
struct RandomRoutedProgram {
  CompiledProgram program;
  std::vector<double> theta;
  std::vector<std::vector<double>> rows;
};

/// A random routed program: angle encoder, random literal gates, the paper
/// ansatz, read out on qubits {1, 3} and routed onto belem with SWAPs.
/// Input and trainable RZ angles stay symbolic; `noisy` folds the day's
/// calibrated channels in.
RandomRoutedProgram random_routed_program(std::uint64_t seed, bool noisy) {
  Rng rng(seed);
  const CalibrationHistory history(FluctuationScenario::belem(), 1, seed);
  Circuit c = angle_encoder(4, 4);
  c.append(test::random_circuit(rng, 4, 24));
  c.append(build_paper_ansatz(4, 2));
  const TranspiledModel transpiled =
      transpile_model(c, {1, 3}, CouplingMap::belem(), &history.day(0));
  EXPECT_GT(transpiled.routed.swap_count, 0) << "seed " << seed;
  RandomRoutedProgram out;
  out.program = CompiledProgram::compile(
      lower_model_symbolic(transpiled),
      noisy ? NoiseModel(history.day(0)) : NoiseModel());
  out.theta.resize(static_cast<std::size_t>(c.num_trainable()));
  for (double& t : out.theta) t = rng.uniform(-test::kPi, test::kPi);
  out.rows.resize(kLanes);
  for (auto& row : out.rows) {
    row.resize(4);
    for (double& v : row) v = rng.uniform(0.0, 1.0);
  }
  return out;
}

/// The program's op kinds, as a coverage check on the random programs.
std::vector<bool> op_kinds_present(const CompiledProgram& program) {
  std::vector<bool> present(static_cast<std::size_t>(COpKind::Channel2) + 1);
  for (const CompiledOp& op : program.ops()) {
    present[static_cast<std::size_t>(op.kind)] = true;
  }
  return present;
}

std::array<cplx, 4> sym_diag_at(const CompiledOp& /*op*/, double angle) {
  const auto [d0, d1] = rz_diag(angle);
  return {d0, cplx{0.0, 0.0}, cplx{0.0, 0.0}, d1};
}

/// Replays `program` op by op through the out-of-line kernels of `state`,
/// with run_lanes' per-op dispatch: per-lane matrices for input-symbolic
/// angles, the uniform kernels for everything else.
template <typename State, std::size_t L>
void replay_out_of_line(const CompiledProgram& program, State& state,
                        const LaneInputs<L>& xs,
                        std::span<const double> theta) {
  state.reset();
  std::array<std::array<cplx, 4>, L> ms;
  auto lane_matrices = [&](const CompiledOp& op, auto matrix_at) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::span<const double> x(
          xs[l], static_cast<std::size_t>(program.num_inputs()));
      ms[l] = matrix_at(op, resolve_sym_angle(program.slot(op), x, theta));
    }
    return ms.data();
  };
  auto sym_uni_at = [&](const CompiledOp& op, double angle) {
    return sym_uni_matrix(program.prefix(op), angle);
  };
  auto crot_inner_at = [&](const CompiledOp& op, double angle) {
    return crot_inner_matrix(program.crot(op), angle);
  };
  for (const CompiledOp& op : program.ops()) {
    switch (op.kind) {
      case COpKind::Unitary1:
        state.apply1(op.q0, program.unitary(op));
        break;
      case COpKind::Diag1:
        state.apply_diag1(op.q0, program.diagonal(op)[0],
                          program.diagonal(op)[1]);
        break;
      case COpKind::SymDiag1: {
        const auto* m = lane_matrices(op, sym_diag_at);
        if (program.slot(op).input_index >= 0) {
          state.apply_diag1_lanes(op.q0, m);
        } else {
          state.apply_diag1(op.q0, m[0][0], m[0][3]);
        }
        break;
      }
      case COpKind::SymUni1: {
        const auto* m = lane_matrices(op, sym_uni_at);
        if (program.slot(op).input_index >= 0) {
          state.apply1_lanes(op.q0, m);
        } else {
          state.apply1(op.q0, m[0]);
        }
        break;
      }
      case COpKind::CRot2:
        state.apply_crot_lanes(op.q0, op.q1, lane_matrices(op, crot_inner_at));
        break;
      case COpKind::Cx:
        state.apply_cx(op.q0, op.q1);
        break;
      case COpKind::Channel1:
        if constexpr (std::is_same_v<State, BatchedDensityMatrix<L>>) {
          state.apply_channel1(op.q0, program.unitary(op),
                               program.channel1(op));
        }
        break;
      case COpKind::Channel2:
        if constexpr (std::is_same_v<State, BatchedDensityMatrix<L>>) {
          state.apply_channel2(op.q0, op.q1, program.channel2(op));
        }
        break;
    }
  }
}

/// Bytewise equality of two SoA states' real and imaginary planes.
template <typename State>
void expect_planes_bitwise_equal(const State& actual, const State& expected,
                                 std::size_t entries) {
  const std::size_t n = entries * State::kLanes;
  for (const auto& [a, e, plane] :
       {std::tuple{actual.re(), expected.re(), "re"},
        std::tuple{actual.im(), expected.im(), "im"}}) {
    if (std::memcmp(a, e, n * sizeof(double)) == 0) continue;
    std::size_t i = 0;
    while (std::memcmp(a + i, e + i, sizeof(double)) == 0) ++i;
    ADD_FAILURE() << plane << " plane differs first at entry " << i / State::kLanes
                  << " lane " << i % State::kLanes << ": " << a[i]
                  << " vs out-of-line " << e[i];
  }
}

/// Runs the clone-dispatched replay (`run`) and the out-of-line one on the
/// same rows at width L, and pins their planes bitwise.
template <typename State, typename Run>
void check_width(const RandomRoutedProgram& p, std::size_t entries, Run run) {
  constexpr std::size_t L = State::kLanes;
  const int n = p.program.num_qubits();
  State cloned(n);
  State out_of_line(n);
  for (std::size_t first = 0; first + L <= p.rows.size(); first += L) {
    SCOPED_TRACE("width " + std::to_string(L) + " first row " +
                 std::to_string(first));
    const auto xs = lane_rows<L>(p.rows, first, L);
    run(cloned, xs);
    replay_out_of_line(p.program, out_of_line, xs, p.theta);
    expect_planes_bitwise_equal(cloned, out_of_line, entries);
  }
}

TEST(BatchedNoisy, ClonedReplayBitwiseMatchesOutOfLineKernels) {
  // Noisy programs carry the channels, each noisy CX as one Channel2 site
  // (the CX relabel inside its channel pass) with the control on either
  // side of the pair; CX sandwiches fuse to CRot2 only where the CX has no
  // error site, so the noiseless density replay covers the density CRot2
  // kernel and the bare Cx relabel.
  SCOPED_TRACE(std::string("engine_isa ") + engine_isa());
  std::vector<bool> kinds(static_cast<std::size_t>(COpKind::Channel2) + 1);
  bool site_control_low = false;
  bool site_control_high = false;
  for (const bool noisy : {true, false}) {
    for (const std::uint64_t seed : {3u, 17u, 29u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (noisy ? " noisy" : " noiseless"));
      const RandomRoutedProgram p = random_routed_program(seed, noisy);
      const std::vector<bool> present = op_kinds_present(p.program);
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        kinds[k] = kinds[k] || present[k];
      }
      for (const CompiledOp& op : p.program.ops()) {
        if (op.kind != COpKind::Channel2) continue;
        site_control_low = site_control_low || op.q0 < op.q1;
        site_control_high = site_control_high || op.q0 > op.q1;
      }
      const std::size_t dim = std::size_t{1} << p.program.num_qubits();
      auto run = [&](auto& bdm, const auto& xs) {
        p.program.run_lanes(bdm, xs, p.theta);
      };
      check_width<BatchedDensityMatrix<1>>(p, dim * dim, run);
      check_width<BatchedDensityMatrix<kBlockLanes>>(p, dim * dim, run);
    }
  }
  for (const COpKind kind : {COpKind::SymUni1, COpKind::CRot2, COpKind::Cx,
                             COpKind::Channel1, COpKind::Channel2}) {
    EXPECT_TRUE(kinds[static_cast<std::size_t>(kind)])
        << "op kind " << static_cast<int>(kind) << " not exercised";
  }
  EXPECT_TRUE(site_control_low) << "no CX site with control = min";
  EXPECT_TRUE(site_control_high) << "no CX site with control = max";
}

TEST(BatchedReplay, ClonedReplayBitwiseMatchesOutOfLineKernels) {
  SCOPED_TRACE(std::string("engine_isa ") + engine_isa());
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomRoutedProgram p = random_routed_program(seed, false);
    ASSERT_FALSE(p.program.has_channels());
    const std::vector<bool> kinds = op_kinds_present(p.program);
    for (const COpKind kind : {COpKind::SymUni1, COpKind::CRot2, COpKind::Cx}) {
      EXPECT_TRUE(kinds[static_cast<std::size_t>(kind)])
          << "op kind " << static_cast<int>(kind) << " not exercised";
    }
    const std::size_t dim = std::size_t{1} << p.program.num_qubits();
    auto run = [&](auto& bsv, const auto& xs) {
      p.program.run_pure_lanes(bsv, xs, p.theta);
    };
    check_width<BatchedStateVector<1>>(p, dim, run);
    check_width<BatchedStateVector<kBlockLanes>>(p, dim, run);
  }
}

/// Op kinds a reverse sweep exercised, the symbolic ones counted only with
/// a trainable slot (whose gradient overlap the sweep reads first).
std::vector<bool> reverse_kinds_present(const CompiledProgram& program) {
  std::vector<bool> present(static_cast<std::size_t>(COpKind::Channel2) + 1);
  for (const CompiledOp& op : program.ops()) {
    const bool symbolic = op.kind == COpKind::SymDiag1 ||
                          op.kind == COpKind::SymUni1 ||
                          op.kind == COpKind::CRot2;
    if (!symbolic || program.slot(op).theta_index >= 0) {
      present[static_cast<std::size_t>(op.kind)] = true;
    }
  }
  return present;
}

/// Un-applies `program` op by op from `state` through the out-of-line
/// kernels, with the reverse sweep's per-op dispatch: the daggered
/// `resolved` matrices per lane for input-symbolic angles, the uniform
/// kernels for everything else.
template <std::size_t L>
void unreplay_out_of_line(const CompiledProgram& program,
                          const std::vector<std::array<cplx, 4>>& resolved,
                          BatchedStateVector<L>& state) {
  auto dagger = [](const std::array<cplx, 4>& m) {
    return std::array<cplx, 4>{std::conj(m[0]), std::conj(m[2]),
                               std::conj(m[1]), std::conj(m[3])};
  };
  std::array<std::array<cplx, 4>, L> ms;
  const std::vector<CompiledOp>& ops = program.ops();
  for (std::size_t idx = ops.size(); idx-- > 0;) {
    const CompiledOp& op = ops[idx];
    for (std::size_t l = 0; l < L; ++l) {
      ms[l] = dagger(resolved[idx * L + l]);
    }
    const bool per_lane = (op.kind == COpKind::SymDiag1 ||
                           op.kind == COpKind::SymUni1) &&
                          program.slot(op).input_index >= 0;
    switch (op.kind) {
      case COpKind::Unitary1:
        state.apply1(op.q0, dagger(program.unitary(op)));
        break;
      case COpKind::Diag1:
        state.apply_diag1(op.q0, std::conj(program.diagonal(op)[0]),
                          std::conj(program.diagonal(op)[1]));
        break;
      case COpKind::SymDiag1:
        if (per_lane) {
          state.apply_diag1_lanes(op.q0, ms.data());
        } else {
          state.apply_diag1(op.q0, ms[0][0], ms[0][3]);
        }
        break;
      case COpKind::SymUni1:
        if (per_lane) {
          state.apply1_lanes(op.q0, ms.data());
        } else {
          state.apply1(op.q0, ms[0]);
        }
        break;
      case COpKind::CRot2:
        state.apply_crot_lanes(op.q0, op.q1, ms.data());
        break;
      case COpKind::Cx:
        state.apply_cx(op.q0, op.q1);
        break;
      case COpKind::Channel1:
      case COpKind::Channel2:
        ADD_FAILURE() << "noiseless program holds a channel op";
        break;
    }
  }
}

/// Runs the clone-dispatched reverse sweep and the out-of-line un-apply
/// from the same forward state at width L, and pins ket and lam bitwise.
template <std::size_t L>
void check_reverse_width(const RandomRoutedProgram& p) {
  const int n = p.program.num_qubits();
  const std::size_t dim = std::size_t{1} << n;
  for (std::size_t first = 0; first + L <= p.rows.size(); first += L) {
    SCOPED_TRACE("width " + std::to_string(L) + " first row " +
                 std::to_string(first));
    BatchedStateVector<L> ket(n);
    std::vector<std::array<cplx, 4>> resolved;
    p.program.run_pure_lanes(ket, lane_rows<L>(p.rows, first, L), p.theta,
                             &resolved);
    // lam = Z_0 |psi>, the adjoint's O |psi> for O = Z_0.
    BatchedStateVector<L> lam = ket;
    lam.apply_diag1(0, cplx{1.0, 0.0}, cplx{-1.0, 0.0});
    BatchedStateVector<L> ket_out_of_line = ket;
    BatchedStateVector<L> lam_out_of_line = lam;
    std::vector<std::vector<double>> gradients(
        L, std::vector<double>(p.theta.size(), 0.0));
    p.program.reverse_pure_lanes(ket, lam, resolved, gradients);
    unreplay_out_of_line(p.program, resolved, ket_out_of_line);
    unreplay_out_of_line(p.program, resolved, lam_out_of_line);
    expect_planes_bitwise_equal(ket, ket_out_of_line, dim);
    expect_planes_bitwise_equal(lam, lam_out_of_line, dim);
  }
}

TEST(BatchedReplay, ClonedReverseSweepBitwiseMatchesOutOfLineKernels) {
  // The sweep's un-apply calls the BatchedStateVector members the forward
  // replay uses; its clones must inline them bitwise, trainable overlaps
  // read in between included.
  SCOPED_TRACE(std::string("engine_isa ") + engine_isa());
  std::vector<bool> kinds(static_cast<std::size_t>(COpKind::Channel2) + 1);
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomRoutedProgram p = random_routed_program(seed, false);
    ASSERT_FALSE(p.program.has_channels());
    const std::vector<bool> present = reverse_kinds_present(p.program);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      kinds[k] = kinds[k] || present[k];
    }
    check_reverse_width<1>(p);
    check_reverse_width<kBlockLanes>(p);
  }
  for (const COpKind kind :
       {COpKind::Unitary1, COpKind::Diag1, COpKind::SymDiag1,
        COpKind::SymUni1, COpKind::CRot2, COpKind::Cx}) {
    EXPECT_TRUE(kinds[static_cast<std::size_t>(kind)])
        << "op kind " << static_cast<int>(kind) << " not exercised";
  }
}

#if QUCAD_HAVE_ISA_CLONES
/// a * b + c dispatched through QUCAD_ISA_CLONES with contraction allowed
/// (and optimized, since unoptimized builds never contract): every listed
/// clone level has FMA and rounds once, the default clone multiplies and
/// adds with two roundings.
QUCAD_ISA_CLONES __attribute__((optimize("O2", "fp-contract=fast"))) double
clone_mul_add(double a, double b, double c) {
  return a * b + c;
}
#endif

TEST(BatchedIsa, EngineIsaNamesTheCloneTheDispatchRuns) {
#if QUCAD_HAVE_ISA_CLONES
  const std::string isa = engine_isa();
  // The resolver's rule: the first (widest) listed level this CPU supports,
  // else the default clone.
  std::string widest;
  __builtin_cpu_init();
#define QUCAD_TEST_PICK_LEVEL(level) \
  if (widest.empty() && __builtin_cpu_supports(level)) widest = level;
  QUCAD_ISA_CLONE_LEVELS(QUCAD_TEST_PICK_LEVEL)
#undef QUCAD_TEST_PICK_LEVEL
  EXPECT_EQ(isa, widest.empty() ? "x86-64" : widest);

  // (1 + 2^-30)(1 - 2^-30) - 1 is -2^-60 exactly when fused and 0 when the
  // product is rounded first, so the probe shows whether a listed level's
  // clone or the default one ran.
  volatile double a = 1.0 + 0x1p-30;
  volatile double b = 1.0 - 0x1p-30;
  volatile double c = -1.0;
  const bool fused = clone_mul_add(a, b, c) == -0x1p-60;
  EXPECT_EQ(fused, isa != "x86-64") << "engine_isa " << isa;
#else
  EXPECT_STREQ(engine_isa(), "baseline");
#endif
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
  const CompiledBackend sampled(BackendKind::kSampled, fx.executor, fx.theta,
                                64, 9);
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
        agree &= fx.executor->run_z_batch(xs, fx.theta, 0, 99, &pool) ==
                 expected_z;
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

// Layout and schedule of the lane blocks: both SoA planes start on a cache
// line, and parallel_for_lanes pads a ragged tail into one block only when
// the replays outnumber the pool's threads.

bool cache_line_aligned(const double* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

template <typename State>
void expect_planes_aligned(const State& state) {
  EXPECT_TRUE(cache_line_aligned(state.re()))
      << "re plane at " << state.re() << ", width " << State::kLanes << ", "
      << state.num_qubits() << " qubits";
  EXPECT_TRUE(cache_line_aligned(state.im()))
      << "im plane at " << state.im() << ", width " << State::kLanes << ", "
      << state.num_qubits() << " qubits";
}

TEST(BatchedLayout, PlanesStartOnCacheLines) {
  for (const int n : {1, 2, 3, 4, 5, 6}) {
    expect_planes_aligned(BatchedDensityMatrix<1>(n));
    expect_planes_aligned(BatchedDensityMatrix<kBlockLanes>(n));
    expect_planes_aligned(BatchedStateVector<1>(n));
    expect_planes_aligned(BatchedStateVector<kBlockLanes>(n));
  }
  // This thread's scratch, rebuilt when the qubit count changes.
  for (const int n : {3, 4, 2}) {
    const auto& dm = lane_scratch<BatchedDensityMatrix<kBlockLanes>>(n);
    ASSERT_EQ(dm.num_qubits(), n);
    expect_planes_aligned(dm);
    const auto& sv = lane_scratch<BatchedStateVector<1>>(n);
    ASSERT_EQ(sv.num_qubits(), n);
    expect_planes_aligned(sv);
  }
}

/// One replay call: (width, first, live).
using LaneCall = std::tuple<std::size_t, std::size_t, std::size_t>;

/// The calls parallel_for_lanes makes for `n` samples on a pool of
/// `threads`, in sample order.
std::vector<LaneCall> lane_schedule(std::size_t n, bool full_blocks,
                                    std::size_t threads) {
  ThreadPool pool(threads);
  std::mutex mutex;
  std::vector<LaneCall> calls;
  parallel_for_lanes(pool, n, full_blocks,
                     [&](auto width, std::size_t first, std::size_t live) {
                       const std::lock_guard<std::mutex> lock(mutex);
                       calls.emplace_back(decltype(width)::value, first, live);
                     });
  std::sort(calls.begin(), calls.end(),
            [](const LaneCall& a, const LaneCall& b) {
              return std::get<1>(a) < std::get<1>(b);
            });
  return calls;
}

/// `count` width-1 calls from sample `first` on.
std::vector<LaneCall> singles(std::size_t first, std::size_t count) {
  std::vector<LaneCall> calls;
  for (std::size_t i = first; i < first + count; ++i) {
    calls.emplace_back(1, i, 1);
  }
  return calls;
}

TEST(BatchedLayout, RaggedTailPadsOnlyWhenReplaysOutnumberThePool) {
  // Four threads: the tail rows run beside the blocks while every replay
  // has a thread (10 = 1 + 2 replays, 4 = 4), and pad once they queue
  // (12 = 1 + 4, 5 = 5).
  EXPECT_EQ(lane_schedule(12, true, 4),
            (std::vector<LaneCall>{{kLanes, 0, kLanes}, {kLanes, 8, 4}}));
  auto ten = singles(8, 2);
  ten.insert(ten.begin(), LaneCall{kLanes, 0, kLanes});
  EXPECT_EQ(lane_schedule(10, true, 4), ten);
  EXPECT_EQ(lane_schedule(4, true, 4), singles(0, 4));
  EXPECT_EQ(lane_schedule(5, true, 4), (std::vector<LaneCall>{{kLanes, 0, 5}}));
  EXPECT_EQ(lane_schedule(2, true, 4), singles(0, 2));
  EXPECT_EQ(lane_schedule(1, true, 4), singles(0, 1));
  EXPECT_TRUE(lane_schedule(0, true, 4).empty());

  // One thread: every tail of two or more rows pads; a lone row never does.
  EXPECT_EQ(lane_schedule(2, true, 1), (std::vector<LaneCall>{{kLanes, 0, 2}}));
  EXPECT_EQ(lane_schedule(10, true, 1),
            (std::vector<LaneCall>{{kLanes, 0, kLanes}, {kLanes, 8, 2}}));
  EXPECT_EQ(lane_schedule(1, true, 1), singles(0, 1));
  auto nine = singles(8, 1);
  nine.insert(nine.begin(), LaneCall{kLanes, 0, kLanes});
  EXPECT_EQ(lane_schedule(9, true, 1), nine);

  // Without full blocks (density circuits past the block cap) every row
  // replays alone.
  EXPECT_EQ(lane_schedule(12, false, 1), singles(0, 12));
  EXPECT_EQ(lane_schedule(12, false, 4), singles(0, 12));

  // Padding lanes repeat the last live row.
  const BatchedFixture fx;
  const auto rows = first_rows(fx.data, 12);
  const LaneInputs<kBlockLanes> xs = lane_rows<kBlockLanes>(rows, 8, 4);
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_EQ(xs[l], rows[std::min<std::size_t>(8 + l, 11)].data())
        << "lane " << l;
  }
}

}  // namespace
}  // namespace qucad
