// Equivalence suite for the compiled statevector training path: the
// symbolic-theta compiled program (lower_model_symbolic / build_pure_executor
// + compiled_adjoint_gradient_lanes) must reproduce the logical-circuit
// reference engines — StateVector::run, adjoint_gradient,
// parameter_shift_gradient, batch_loss_grad — to 1e-10 on randomized
// parameterized circuits, and the structure-keyed executor cache must hit
// across theta updates while recomputing results (no stale logits).

#include <gtest/gtest.h>

#include <cmath>

#include "common/require.hpp"
#include "data/seismic_synth.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/eval_cache.hpp"
#include "qnn/gradients.hpp"
#include "qnn/model.hpp"
#include "qnn/trainer.hpp"
#include "sim/adjoint.hpp"
#include "sim/compiled_adjoint.hpp"
#include "transpile/transpiler.hpp"

#include "test_support.hpp"

namespace qucad {
namespace {

using test::kAgreementTol;
using test::kPi;

/// Random circuit mixing trainable rotations (all six kinds), input-encoding
/// rotations, and fixed gates — the full vocabulary the symbolic lowering
/// must translate.
Circuit random_param_circuit(Rng& rng, int nq, int gates, int num_inputs,
                             int& num_trainable) {
  Circuit c(nq);
  num_trainable = 0;
  for (int g = 0; g < gates; ++g) {
    const int q0 = rng.integer(0, nq - 1);
    int q1 = rng.integer(0, nq - 2);
    if (q1 >= q0) ++q1;
    const double lit = rng.uniform(-kPi, kPi);
    switch (rng.integer(0, 11)) {
      case 0: c.rx(q0, trainable(num_trainable++)); break;
      case 1: c.ry(q0, trainable(num_trainable++)); break;
      case 2: c.rz(q0, trainable(num_trainable++)); break;
      case 3: c.crx(q0, q1, trainable(num_trainable++)); break;
      case 4: c.cry(q0, q1, trainable(num_trainable++)); break;
      case 5: c.crz(q0, q1, trainable(num_trainable++)); break;
      case 6: c.ry(q0, input(rng.integer(0, num_inputs - 1))); break;
      case 7: c.rz(q0, input(rng.integer(0, num_inputs - 1))); break;
      case 8: c.h(q0); break;
      case 9: c.cx(q0, q1); break;
      case 10: c.rx(q0, lit); break;
      default: c.sx(q0); break;
    }
  }
  return c;
}

std::vector<double> random_vector(Rng& rng, int n, double lo = -kPi,
                                  double hi = kPi) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& t : v) t = rng.uniform(lo, hi);
  return v;
}

/// The compiled adjoint of one sample under observable weights that ignore
/// the forward expectations: compiled_adjoint_gradient_lanes at width 1,
/// lane 0 unpacked. z_expectations has one entry per qubit.
AdjointResult compiled_adjoint(const CompiledExecutor& executor,
                               std::span<const double> theta,
                               std::span<const double> x,
                               const std::vector<double>& weights) {
  LaneAdjointResult lanes = compiled_adjoint_gradient_lanes<1>(
      executor.program(), theta, {x.data()},
      [&](std::size_t, const std::vector<double>&) { return weights; });
  return {std::move(lanes.z_expectations[0]), std::move(lanes.gradients[0])};
}

std::vector<int> all_qubits(int nq) {
  std::vector<int> q(static_cast<std::size_t>(nq));
  for (int i = 0; i < nq; ++i) q[static_cast<std::size_t>(i)] = i;
  return q;
}

class CompiledPureTest : public test::SeededTest {};

TEST(PhysOpTheta, AffineThetaResolution) {
  PhysOp op{PhysOpKind::RZ, 0, -1, 1.0, -1, 1.0, 2, -0.5};
  const std::vector<double> theta{0.0, 0.0, 3.0};
  EXPECT_DOUBLE_EQ(op.resolve_angle({}, theta), -0.5);  // -0.5*3 + 1
  EXPECT_TRUE(op.is_symbolic());
  EXPECT_THROW(op.resolve_angle({}, {}), PreconditionError);
}

TEST(LowerSymbolic, RequiresThetaOnlyWhenBinding) {
  Circuit c(2);
  c.ry(0, trainable(0)).cx(0, 1);
  RoutedCircuit wrapped;
  wrapped.circuit = c;
  wrapped.final_mapping = {0, 1};
  EXPECT_THROW(lower_to_basis(wrapped, {}), PreconditionError);
  BasisOptions symbolic;
  symbolic.keep_trainable_symbolic = true;
  const PhysicalCircuit phys = lower_to_basis(wrapped, {}, symbolic);
  EXPECT_EQ(phys.num_trainable(), 1);
}

TEST_F(CompiledPureTest, ForwardMatchesLogicalAndBoundLowering) {
  for (int trial = 0; trial < 6; ++trial) {
    const int nq = 3 + trial % 3;
    const int num_inputs = 2;
    int num_trainable = 0;
    const Circuit c =
        random_param_circuit(rng(), nq, 14 + trial, num_inputs, num_trainable);
    const auto theta = random_vector(rng(), num_trainable);
    const auto x = random_vector(rng(), num_inputs, 0.0, kPi);

    const auto executor = build_pure_executor(c, all_qubits(nq));
    // One symbolic program: trainable slots survive the lowering.
    EXPECT_EQ(executor->num_trainable(),
              num_trainable > 0 ? num_trainable : 0);

    // Ground truth 1: the logical statevector walk.
    StateVector sv(nq);
    sv.run(c, theta, x);
    // Ground truth 2: the gate-by-gate physical replay of the same symbolic
    // circuit.
    const StateVector phys_ref =
        run_physical_pure(lower_pure_circuit(c, all_qubits(nq)), x, theta);

    const auto z = executor->run_z(x, theta);
    ASSERT_EQ(z.size(), static_cast<std::size_t>(nq));
    for (int q = 0; q < nq; ++q) {
      EXPECT_NEAR(z[static_cast<std::size_t>(q)], sv.expectation_z(q),
                  kAgreementTol)
          << "trial " << trial << " qubit " << q;
      EXPECT_NEAR(z[static_cast<std::size_t>(q)], phys_ref.expectation_z(q),
                  kAgreementTol)
          << "trial " << trial << " qubit " << q << " (physical reference)";
    }
  }
}

TEST_F(CompiledPureTest, LowerModelSymbolicMatchesBoundLowerModel) {
  // Through real routing: symbolic lowering + replay at theta must match the
  // theta-bound lowering (compression peephole active) slot for slot.
  const QnnModel model = build_paper_model(4, 4, 2, 1);
  const TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits, CouplingMap::belem(), nullptr);
  for (int trial = 0; trial < 3; ++trial) {
    const auto theta = random_vector(rng(), model.num_params());
    const auto x = random_vector(rng(), model.num_inputs(), 0.0, kPi);

    const PhysicalCircuit bound = lower_model(transpiled, theta);
    const StateVector ref = run_physical_pure(bound, x);

    const PhysicalCircuit symbolic = lower_model_symbolic(transpiled);
    const CompiledExecutor executor(symbolic);
    const auto z = executor.run_z(x, theta);

    ASSERT_EQ(bound.readout_physical(), symbolic.readout_physical());
    ASSERT_EQ(z.size(), bound.readout_physical().size());
    for (std::size_t k = 0; k < z.size(); ++k) {
      EXPECT_NEAR(z[k],
                  ref.expectation_z(bound.readout_physical()[k]),
                  kAgreementTol)
          << "trial " << trial << " slot " << k;
    }
  }
}

TEST_F(CompiledPureTest, AdjointMatchesReferenceAdjoint) {
  for (int trial = 0; trial < 8; ++trial) {
    const int nq = 3 + trial % 3;
    const int num_inputs = 2;
    int num_trainable = 0;
    const Circuit c =
        random_param_circuit(rng(), nq, 16, num_inputs, num_trainable);
    if (num_trainable == 0) continue;
    const auto theta = random_vector(rng(), num_trainable);
    const auto x = random_vector(rng(), num_inputs, 0.0, kPi);
    const auto weights = random_vector(rng(), nq, -1.0, 1.0);

    const auto reference = adjoint_gradient(c, theta, x, weights);
    const auto executor = build_pure_executor(c, all_qubits(nq));
    const auto compiled = compiled_adjoint(*executor, theta, x, weights);

    ASSERT_EQ(compiled.z_expectations.size(), reference.z_expectations.size());
    for (int q = 0; q < nq; ++q) {
      EXPECT_NEAR(compiled.z_expectations[static_cast<std::size_t>(q)],
                  reference.z_expectations[static_cast<std::size_t>(q)],
                  kAgreementTol)
          << "trial " << trial << " qubit " << q;
    }
    ASSERT_EQ(compiled.gradients.size(), theta.size());
    for (std::size_t p = 0; p < theta.size(); ++p) {
      EXPECT_NEAR(compiled.gradients[p], reference.gradients[p], kAgreementTol)
          << "trial " << trial << " param " << p;
    }
  }
}

TEST_F(CompiledPureTest, AdjointMatchesParameterShift) {
  for (int trial = 0; trial < 3; ++trial) {
    const int nq = 3;
    int num_trainable = 0;
    const Circuit c = random_param_circuit(rng(), nq, 10, 1, num_trainable);
    if (num_trainable == 0) continue;
    const auto theta = random_vector(rng(), num_trainable);
    const std::vector<double> x{0.6};
    const auto weights = random_vector(rng(), nq, -1.0, 1.0);

    const auto shift = parameter_shift_gradient(c, theta, x, weights);
    const auto executor = build_pure_executor(c, all_qubits(nq));
    const auto compiled = compiled_adjoint(*executor, theta, x, weights);

    ASSERT_EQ(compiled.gradients.size(), shift.size());
    for (std::size_t p = 0; p < shift.size(); ++p) {
      EXPECT_NEAR(compiled.gradients[p], shift[p], 1e-8)
          << "trial " << trial << " param " << p;
    }
  }
}

TEST_F(CompiledPureTest, SharedParameterContributionsAccumulate) {
  // One trainable slot feeding two rotations: the chain rule sums the
  // per-occurrence contributions (the lowering also splits each controlled
  // rotation into a +-t/2 RZ pair internally, exercising the same path).
  Circuit c(2);
  c.ry(0, trainable(0)).cx(0, 1).rz(1, trainable(0)).cry(0, 1, trainable(1));
  const std::vector<double> theta{0.8, -1.3};
  const std::vector<double> weights{0.7, -0.4};

  const auto reference = adjoint_gradient(c, theta, {}, weights);
  const auto executor = build_pure_executor(c, all_qubits(2));
  const auto compiled = compiled_adjoint(*executor, theta, {}, weights);

  ASSERT_EQ(compiled.gradients.size(), 2u);
  EXPECT_NEAR(compiled.gradients[0], reference.gradients[0], kAgreementTol);
  EXPECT_NEAR(compiled.gradients[1], reference.gradients[1], kAgreementTol);
}

TEST_F(CompiledPureTest, TrailingTrainableRzIsElidedWithExactZeroGradient) {
  // A trainable RZ at the very end commutes with every Z observable: the
  // compiled program drops it as a trailing diagonal, but the gradient
  // vector must still carry its entry — exactly zero, as the reference
  // computes analytically.
  Circuit c(2);
  c.ry(0, trainable(0)).cx(0, 1).rz(1, trainable(1));
  const std::vector<double> theta{0.9, 2.1};
  const std::vector<double> weights{0.5, 1.0};

  const auto executor = build_pure_executor(c, all_qubits(2));
  EXPECT_GT(executor->program().stats().dropped_trailing, 0u);
  EXPECT_EQ(executor->num_trainable(), 2);

  const auto reference = adjoint_gradient(c, theta, {}, weights);
  const auto compiled = compiled_adjoint(*executor, theta, {}, weights);
  ASSERT_EQ(compiled.gradients.size(), 2u);
  EXPECT_NEAR(reference.gradients[1], 0.0, 1e-15);
  EXPECT_DOUBLE_EQ(compiled.gradients[1], 0.0);
  EXPECT_NEAR(compiled.gradients[0], reference.gradients[0], kAgreementTol);
}

TEST_F(CompiledPureTest, BatchLossGradMatchesReference) {
  const QnnModel model = build_paper_model(4, 4, 2, 1);
  const auto theta = random_vector(rng(), model.num_params());
  Dataset raw = make_seismic(32, 17);
  const Dataset data = FeatureScaler::fit(raw).transform(raw);
  std::vector<std::size_t> idx(data.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  const BatchGrad reference = batch_loss_grad(
      model.circuit, model.readout_qubits, theta, data, idx, 5.0);
  const auto executor = build_pure_executor(model.circuit, model.readout_qubits);
  const BatchGrad compiled = batch_loss_grad(*executor, theta, data, idx, 5.0);

  EXPECT_NEAR(compiled.loss, reference.loss, kAgreementTol);
  EXPECT_DOUBLE_EQ(compiled.accuracy, reference.accuracy);
  ASSERT_EQ(compiled.grad.size(), reference.grad.size());
  for (std::size_t p = 0; p < reference.grad.size(); ++p) {
    EXPECT_NEAR(compiled.grad[p], reference.grad[p], kAgreementTol)
        << "param " << p;
  }

  const BatchGrad ref_eval = batch_loss(model.circuit, model.readout_qubits,
                                        theta, data, idx, 5.0);
  const BatchGrad compiled_eval = batch_loss(*executor, theta, data, idx, 5.0);
  EXPECT_NEAR(compiled_eval.loss, ref_eval.loss, kAgreementTol);
  EXPECT_DOUBLE_EQ(compiled_eval.accuracy, ref_eval.accuracy);
}

TEST_F(CompiledPureTest, CacheHitsAcrossThetaUpdatesWithoutStaleLogits) {
  // The regression model from PR 2: readout_qubits = {1, 3} — slot order is
  // positional, never qubit-id-indexed.
  QnnModel model = build_paper_model(4, 4, 2, 1);
  model.readout_qubits = {1, 3};

  CompiledEvalCache cache(8);
  const auto theta_a = random_vector(rng(), model.num_params());
  const auto theta_b = random_vector(rng(), model.num_params());
  const auto x = random_vector(rng(), model.num_inputs(), 0.0, kPi);

  const auto exec_a = cache.get_or_build_pure(model.circuit, model.readout_qubits);
  EXPECT_EQ(cache.stats().misses, 1u);
  const auto exec_b = cache.get_or_build_pure(model.circuit, model.readout_qubits);
  // Same structure + new theta = the SAME compiled program (hit): theta is
  // not part of the key because it stays symbolic.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(exec_a.get(), exec_b.get());

  // ...while results are recomputed per replay: no stale logits.
  const auto z_a = exec_b->run_z(x, theta_a);
  const auto z_b = exec_b->run_z(x, theta_b);
  ASSERT_EQ(z_a.size(), 2u);
  const std::vector<double> logits_a{
      forward_logits(model, theta_a, x)};
  const std::vector<double> logits_b{
      forward_logits(model, theta_b, x)};
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_NEAR(z_a[k], logits_a[k], kAgreementTol) << "theta_a slot " << k;
    EXPECT_NEAR(z_b[k], logits_b[k], kAgreementTol) << "theta_b slot " << k;
  }
  EXPECT_GT(std::abs(z_a[0] - z_b[0]) + std::abs(z_a[1] - z_b[1]), 1e-6)
      << "distinct thetas should produce distinct logits";

  // A different structure (different readout slots) is a different entry.
  const auto exec_c = cache.get_or_build_pure(model.circuit, {0, 2});
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NE(exec_a.get(), exec_c.get());
}

}  // namespace
}  // namespace qucad
