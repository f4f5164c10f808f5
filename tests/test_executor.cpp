#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/require.hpp"
#include "mitigation/zne.hpp"
#include "noise/calibration_history.hpp"
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
  EXPECT_THROW((void)NoisyExecutor(phys, noise), PreconditionError);
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
  const NoisyExecutor executor(phys, nm);

  StateVector sv(3);
  sv.run(c);
  const auto z = executor.run_z({});
  for (int q = 0; q < 3; ++q) {
    EXPECT_NEAR(z[static_cast<std::size_t>(q)], sv.expectation_z(q), 1e-9);
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

  const NoisyExecutor clean(phys, NoiseModel(Calibration(2, {{0, 1}}), opts));
  const NoisyExecutor dirty(phys, NoiseModel(noisy, opts));
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
  const NoisyExecutor executor(phys, NoiseModel(cal, opts));
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
  const NoisyExecutor executor(phys, NoiseModel(cal, opts));
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
  const NoisyExecutor executor(phys, nm);

  const auto exact = executor.run_z({});
  const auto sampled = executor.run_z({}, 20000, 123);
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
  const NoisyExecutor executor(phys, NoiseModel(zero, opts));
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
