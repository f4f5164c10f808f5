#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "mitigation/zne.hpp"
#include "noise/calibration_history.hpp"
#include "noise/slot_readout.hpp"
#include "sim/batched_state.hpp"
#include "transpile/executor.hpp"
#include "transpile/transpiler.hpp"

#include "test_support.hpp"

namespace qucad {
namespace {

RoutedCircuit wrap(const Circuit& c) {
  RoutedCircuit routed;
  routed.circuit = c;
  routed.initial_layout = trivial_layout(c.num_qubits());
  routed.final_mapping = routed.initial_layout;
  return routed;
}

/// A caller-built circuit may name any readout slot: every path that
/// indexes a per-qubit table with one (the executor's slot confusion, the
/// reference oracle's full-vector confusion, ZNE through the eval cache)
/// must reject a slot outside the device before reading anything.
void expect_readout_slot_rejected(int slot) {
  SCOPED_TRACE("readout slot " + std::to_string(slot));
  Circuit c(2);
  c.ry(0, 0.9).cry(0, 1, 1.1);
  PhysicalCircuit phys = lower_to_basis(wrap(c), {});
  phys.readout_physical() = {0, slot};
  Calibration cal(2, {{0, 1}});
  cal.set_readout(0, {0.1, 0.05});
  cal.set_readout(1, {0.1, 0.05});
  const NoiseModel noise(cal);
  EXPECT_THROW((void)CompiledExecutor(phys, noise), PreconditionError);
  EXPECT_THROW(run_z_reference(phys, noise, {}), PreconditionError);
  EXPECT_THROW(zne_expectations(phys, cal, {}), PreconditionError);
}

TEST(Executor, RejectsReadoutSlotPastTheLastQubit) {
  expect_readout_slot_rejected(2);
}

TEST(Executor, RejectsNegativeReadoutSlot) { expect_readout_slot_rejected(-1); }

TEST(Executor, NoiselessMatchesStateVector) {
  Circuit c(3);
  c.h(0).cry(0, 1, 0.8).crx(1, 2, 1.3).rz(2, 0.4);
  const PhysicalCircuit phys = lower_to_basis(wrap(c), {});

  Calibration zero(3, {{0, 1}, {1, 2}});
  NoiseModelOptions opts;
  opts.include_thermal_relaxation = false;
  opts.include_readout_error = false;
  const NoiseModel nm(zero, opts);
  const CompiledExecutor executor(phys, nm);

  StateVector sv(3);
  sv.run(c);
  const auto z = executor.run_z({});
  for (int q = 0; q < 3; ++q) {
    EXPECT_NEAR(z[static_cast<std::size_t>(q)], sv.expectation_z(q), 1e-9);
  }
}

TEST(Executor, LaneStateFollowsTheProgram) {
  // One data-encoded circuit, compiled three ways. A batch of exactly
  // kBlockLanes rows replays as one block at width kBlockLanes; run_z
  // replays at width 1.
  Circuit c(3);
  c.ry(0, input(0)).cry(0, 1, input(1)).crx(1, 2, 1.3).rz(2, input(0)).h(1);
  PhysicalCircuit phys = lower_to_basis(wrap(c), {});
  phys.readout_physical() = {2, 0, 1};
  std::vector<std::vector<double>> xs;
  for (std::size_t i = 0; i < kBlockLanes; ++i) {
    xs.push_back({0.2 + 0.3 * static_cast<double>(i),
                  1.1 - 0.2 * static_cast<double>(i)});
  }

  // All-identity noise (zero errors, thermal and readout off) folds no
  // channel into the program, so it replays on a statevector exactly as the
  // noiseless executor does: bitwise, at both widths.
  NoiseModelOptions opts;
  opts.include_thermal_relaxation = false;
  opts.include_readout_error = false;
  const CompiledExecutor identity(
      phys, NoiseModel(Calibration(3, {{0, 1}, {1, 2}}), opts));
  const CompiledExecutor noiseless(phys);
  ASSERT_FALSE(identity.program().has_channels());
  ASSERT_EQ(noiseless.run_z(xs[0]).size(), 3u);
  EXPECT_EQ(identity.run_z_batch(xs), noiseless.run_z_batch(xs));
  for (const std::vector<double>& x : xs) {
    EXPECT_EQ(identity.run_z(x), noiseless.run_z(x));
  }
  // ...and that replay is the statevector one, read out bitwise.
  const auto zs_pure = noiseless.run_z_batch(xs);
  BatchedStateVector<kBlockLanes> sv(3);
  noiseless.program().run_pure_lanes(
      sv, lane_rows<kBlockLanes>(xs, 0, kBlockLanes));
  const SlotReadout slots(3, noiseless.readout_slots(), {});
  std::vector<double> probs;
  for (std::size_t l = 0; l < kBlockLanes; ++l) {
    sv.lane_probabilities(l, probs);
    EXPECT_EQ(zs_pure[l], slots.z(probs, 0, 0)) << "lane " << l;
  }

  // Calibrated noise folds channels in: the density replay still matches
  // the gate-by-gate oracle, readout confusion included.
  Calibration cal(3, {{0, 1}, {1, 2}});
  cal.set_sx_error(0, 0.004);
  cal.set_sx_error(2, 0.006);
  cal.set_cx_error(0, 1, 0.05);
  cal.set_cx_error(1, 2, 0.08);
  cal.set_readout(1, {0.03, 0.07});
  const NoiseModel noise(cal);
  const CompiledExecutor noisy(phys, noise);
  ASSERT_TRUE(noisy.program().has_channels());
  const auto zs = noisy.run_z_batch(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto reference = run_z_reference(phys, noise, xs[i]);
    ASSERT_EQ(zs[i].size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_NEAR(zs[i][k], reference[k], test::kAgreementTol)
          << "sample " << i << " slot " << k;
    }
    EXPECT_EQ(noisy.run_z(xs[i]), zs[i]) << "sample " << i;
  }
}

TEST(Executor, DepolarizingShrinksExpectations) {
  Circuit c(2);
  c.ry(0, 0.9).cry(0, 1, 1.1);
  const PhysicalCircuit phys = lower_to_basis(wrap(c), {});

  Calibration noisy(2, {{0, 1}});
  noisy.set_cx_error(0, 1, 0.2);
  noisy.set_sx_error(0, 0.01);
  noisy.set_sx_error(1, 0.01);
  NoiseModelOptions opts;
  opts.include_thermal_relaxation = false;
  opts.include_readout_error = false;

  const CompiledExecutor clean(phys,
                               NoiseModel(Calibration(2, {{0, 1}}), opts));
  const CompiledExecutor dirty(phys, NoiseModel(noisy, opts));
  const auto z_clean = clean.run_z({});
  const auto z_dirty = dirty.run_z({});
  for (std::size_t q = 0; q < 2; ++q) {
    EXPECT_LT(std::abs(z_dirty[q]), std::abs(z_clean[q]) + 1e-12);
  }
}

TEST(Executor, ReadoutErrorBiasesExpectation) {
  // Qubit stays in |0>, but asymmetric readout pulls <Z> below 1.
  Circuit c(1);
  c.rz(0, 0.3);  // virtual only; state remains |0>
  const PhysicalCircuit phys = lower_to_basis(wrap(c), {});

  Calibration cal(1, {});
  cal.set_readout(0, {0.1, 0.0});
  NoiseModelOptions opts;
  opts.include_thermal_relaxation = false;
  const CompiledExecutor executor(phys, NoiseModel(cal, opts));
  const auto z = executor.run_z({});
  // P(read 1) = 0.1 -> <Z> = 0.8
  EXPECT_NEAR(z[0], 0.8, 1e-9);
}

TEST(Executor, ThermalRelaxationDecaysExcitedState) {
  Circuit c(1);
  c.x(0);
  for (int i = 0; i < 20; ++i) c.sx(0), c.sx(0), c.sx(0), c.sx(0);
  const PhysicalCircuit phys = lower_to_basis(wrap(c), {});

  Calibration cal(1, {});
  cal.set_t1_t2(0, 30.0, 25.0);  // short T1 so decay is visible
  NoiseModelOptions opts;
  opts.include_readout_error = false;
  const CompiledExecutor executor(phys, NoiseModel(cal, opts));
  const auto z = executor.run_z({});
  // Ideal result would be <Z> = -1 (odd number of X-like pulses keeps it
  // excited); amplitude damping pulls it toward +1.
  EXPECT_GT(z[0], -1.0 + 1e-4);
}

TEST(Executor, ShotSamplingConvergesToExact) {
  Circuit c(2);
  c.ry(0, 1.0).cry(0, 1, 0.7);
  const PhysicalCircuit phys = lower_to_basis(wrap(c), {});
  const CalibrationHistory h(FluctuationScenario::belem(), 3, 5);
  Calibration cal(2, {{0, 1}});
  cal.set_cx_error(0, 1, 0.03);
  const NoiseModel nm(cal);
  const CompiledExecutor executor(phys, nm);

  const auto exact = executor.run_z({});
  const auto sampled = executor.run_z({}, {}, 20000, 123);
  for (std::size_t q = 0; q < 2; ++q) {
    EXPECT_NEAR(sampled[q], exact[q], 0.03);
  }
}

TEST(Executor, ReadoutMappingFollowsRouting) {
  // Route a circuit that forces a swap; the executor must read the logical
  // qubit from its final physical home.
  Circuit c(2);
  c.x(0).cry(0, 1, test::kPi);
  const RoutedCircuit routed = route_circuit(c, CouplingMap::belem(), {0, 4});
  EXPECT_GT(routed.swap_count, 0);
  const PhysicalCircuit phys = lower_to_basis(routed, {});

  Calibration zero(5, CouplingMap::belem().edges());
  NoiseModelOptions opts;
  opts.include_thermal_relaxation = false;
  opts.include_readout_error = false;
  const CompiledExecutor executor(phys, NoiseModel(zero, opts));
  const auto z = executor.run_z({});
  // Logical 0 was X'd: <Z> = -1. Logical 1 got CRY(pi) with control 1:
  // rotates to |1>: <Z> = -1... CRY(pi)|0> = |1> exactly? RY(pi)|0> = |1>.
  EXPECT_NEAR(z[0], -1.0, 1e-9);
  EXPECT_NEAR(z[1], -1.0, 1e-9);
}

TEST(Executor, RunDensityTracePreserved) {
  Circuit c(3);
  c.h(0).cx(0, 1).cry(1, 2, 0.6);
  const PhysicalCircuit phys = lower_to_basis(wrap(c), {});
  const CalibrationHistory h(FluctuationScenario::belem(), 3, 5);
  Calibration cal(3, {{0, 1}, {1, 2}});
  cal.set_cx_error(0, 1, 0.05);
  cal.set_cx_error(1, 2, 0.08);
  const NoiseModel nm(cal);
  const DensityMatrix dm = run_density(phys, nm, {});
  EXPECT_NEAR(dm.trace_real(), 1.0, 1e-9);
  EXPECT_LE(dm.purity(), 1.0 + 1e-9);
}

}  // namespace
}  // namespace qucad
