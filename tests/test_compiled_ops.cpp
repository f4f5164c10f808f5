// Equivalence suite for the compiled noisy-execution engine: the fused
// op-stream (sim/compiled_ops.hpp) must reproduce the legacy gate-by-gate
// density-matrix walk to 1e-10 on random transpiled circuits, with noise on
// and off, shots on and off — plus unit checks of the width-1 lane kernels
// (fused channels, the CX permutation fast path) against the DensityMatrix
// oracle, and the executor cache.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "data/mnist_synth.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/eval_cache.hpp"
#include "qnn/evaluator.hpp"
#include "transpile/transpiler.hpp"

#include "test_support.hpp"

namespace qucad {
namespace {

using test::kAgreementTol;

Calibration noisy_calibration(int nq, const std::vector<std::pair<int, int>>& edges,
                              Rng& rng) {
  Calibration cal(nq, edges);
  for (int q = 0; q < nq; ++q) {
    cal.set_sx_error(q, rng.uniform(0.0005, 0.01));
    cal.set_readout(q, ReadoutError{rng.uniform(0.005, 0.06), rng.uniform(0.005, 0.06)});
    const double t1 = rng.uniform(40.0, 150.0);
    cal.set_t1_t2(q, t1, rng.uniform(0.5 * t1, 1.8 * t1));
  }
  for (const auto& [a, b] : edges) {
    cal.set_cx_error(a, b, rng.uniform(0.004, 0.08));
  }
  return cal;
}

/// Routes a random logical circuit onto a line device and lowers it with
/// some data-dependent RZ slots so the compiled program keeps symbolic ops.
PhysicalCircuit random_transpiled(Rng& rng, int nq, int gates, int inputs) {
  Circuit c = test::random_circuit(rng, nq, gates);
  for (int i = 0; i < inputs; ++i) {
    c.rz(rng.integer(0, nq - 1), input(i));
    c.ry(rng.integer(0, nq - 1), input(i));
  }
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < nq; ++q) edges.emplace_back(q, q + 1);
  const RoutedCircuit routed =
      route_circuit(c, CouplingMap(nq, edges), trivial_layout(nq));
  return lower_to_basis(routed, {});
}

/// Row-major entry i of a width-1 lane density matrix.
cplx entry(const BatchedDensityMatrix<1>& rho, std::size_t i) {
  return {rho.re()[i], rho.im()[i]};
}

/// Runs a basis-lowered circuit on a width-1 lane density matrix with the
/// same gate matrices run_density uses.
void run_on_lanes(BatchedDensityMatrix<1>& rho, const PhysicalCircuit& c,
                  std::span<const double> x) {
  for (const PhysOp& op : c.ops()) {
    switch (op.kind) {
      case PhysOpKind::RZ: {
        const double angle = op.resolve_angle(x);
        rho.apply_diag1(op.q0, std::exp(cplx{0.0, -angle / 2.0}),
                        std::exp(cplx{0.0, angle / 2.0}));
        break;
      }
      case PhysOpKind::SX:
        rho.apply1(op.q0, sx_as_array2());
        break;
      case PhysOpKind::X:
        rho.apply1(op.q0, x_as_array2());
        break;
      case PhysOpKind::CX:
        rho.apply_cx(op.q0, op.q1);
        break;
    }
  }
}

void expect_matches_oracle(const BatchedDensityMatrix<1>& lanes,
                           const DensityMatrix& oracle) {
  for (std::size_t i = 0; i < oracle.data().size(); ++i) {
    EXPECT_NEAR(std::abs(entry(lanes, i) - oracle.data()[i]), 0.0,
                test::kTightTol)
        << "rho entry " << i;
  }
}

class CompiledOpsTest : public test::SeededTest {};

TEST_F(CompiledOpsTest, MatchesReferenceOnRandomCircuitsWithNoise) {
  for (int trial = 0; trial < 6; ++trial) {
    const int nq = 3 + trial % 3;  // 3..5 qubits
    const PhysicalCircuit phys = random_transpiled(rng(), nq, 14 + trial, 2);
    std::vector<std::pair<int, int>> edges;
    for (int q = 0; q + 1 < nq; ++q) edges.emplace_back(q, q + 1);
    const Calibration cal = noisy_calibration(nq, edges, rng());
    const NoiseModel noise(cal);
    const CompiledExecutor executor(phys, noise);

    std::vector<double> x{0.3, 1.1};
    const auto z_ref = run_z_reference(phys, noise, x);
    const auto z_compiled = executor.run_z(x);
    ASSERT_EQ(z_ref.size(), z_compiled.size());
    for (std::size_t k = 0; k < z_ref.size(); ++k) {
      EXPECT_NEAR(z_compiled[k], z_ref[k], kAgreementTol)
          << "trial " << trial << " slot " << k;
    }
  }
}

TEST_F(CompiledOpsTest, MatchesReferenceNoiseless) {
  for (int trial = 0; trial < 4; ++trial) {
    const int nq = 3 + trial % 2;
    const PhysicalCircuit phys = random_transpiled(rng(), nq, 12, 1);
    const CompiledExecutor executor(phys, NoiseModel{});

    const std::vector<double> x{0.7};
    const auto z_ref = run_z_reference(phys, NoiseModel{}, x);
    const auto z_compiled = executor.run_z(x);
    ASSERT_EQ(z_ref.size(), z_compiled.size());
    for (std::size_t k = 0; k < z_ref.size(); ++k) {
      EXPECT_NEAR(z_compiled[k], z_ref[k], kAgreementTol);
    }
    // Noiseless chains fuse aggressively: the stream must be much shorter
    // than the source circuit.
    EXPECT_LT(executor.program().stats().compiled_ops,
              executor.program().stats().source_ops);
  }
}

TEST_F(CompiledOpsTest, FullDensityMatrixMatchesWithElisionDisabled) {
  // A circuit that ends in a non-diagonal pulse on every qubit leaves no
  // trailing diagonal to elide, so the compiled program reproduces the
  // reference density matrix entry-for-entry, off-diagonals included.
  const int nq = 4;
  PhysicalCircuit phys = random_transpiled(rng(), nq, 16, 2);
  for (int q = 0; q < nq; ++q) phys.push({PhysOpKind::SX, q, -1, 0.0, -1, 1.0});
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < nq; ++q) edges.emplace_back(q, q + 1);
  const Calibration cal = noisy_calibration(nq, edges, rng());

  const NoiseModel noise(cal);
  const CompiledExecutor executor(phys, noise);
  EXPECT_EQ(executor.program().stats().dropped_trailing, 0u);

  const std::vector<double> x{0.4, 2.0};
  const DensityMatrix ref = run_density(phys, noise, x);
  BatchedDensityMatrix<1> compiled(nq);
  executor.program().run_lanes(compiled, {x.data()});
  for (std::size_t i = 0; i < ref.data().size(); ++i) {
    EXPECT_NEAR(std::abs(entry(compiled, i) - ref.data()[i]), 0.0,
                kAgreementTol)
        << "rho entry " << i;
  }
}

TEST_F(CompiledOpsTest, ShotSamplingMatchesLegacySeedForSeed) {
  // Shots draw from the same per-sample probabilities, so with identical
  // seeds the compiled path must converge to the same estimates as exact
  // expectations, and be deterministic run to run; a batch of one draws
  // sample 0 from the same seed.
  const PhysicalCircuit phys = random_transpiled(rng(), 3, 10, 1);
  std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}};
  const Calibration cal = noisy_calibration(3, edges, rng());
  const CompiledExecutor executor(phys, NoiseModel(cal));

  const std::vector<double> x{0.9};
  const auto s1 = executor.run_z(x, {}, 4000, 42);
  const auto s2 = executor.run_z(x, {}, 4000, 42);
  EXPECT_EQ(executor.run_z_batch(std::vector<std::vector<double>>{x}, {},
                                 4000, 42)[0],
            s1);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t k = 0; k < s1.size(); ++k) {
    EXPECT_DOUBLE_EQ(s1[k], s2[k]) << "shot sampling must be deterministic";
  }
  const auto exact = executor.run_z(x);
  for (std::size_t k = 0; k < s1.size(); ++k) {
    EXPECT_NEAR(s1[k], exact[k], 0.06);
  }
}

TEST_F(CompiledOpsTest, BatchMatchesSingleRuns) {
  // 4 qubits replays 8 samples as one full block; 9 qubits is wider than
  // the block cap, so every sample replays at width 1 (two are enough).
  for (const int nq : {4, 9}) {
    SCOPED_TRACE("qubits " + std::to_string(nq));
    const PhysicalCircuit phys = random_transpiled(rng(), nq, 12, 2);
    std::vector<std::pair<int, int>> edges;
    for (int q = 0; q + 1 < nq; ++q) edges.emplace_back(q, q + 1);
    const Calibration cal = noisy_calibration(nq, edges, rng());
    const NoiseModel noise(cal);
    const CompiledExecutor executor(phys, noise);

    std::vector<std::vector<double>> xs;
    for (int i = 0; i < (nq == 4 ? 8 : 2); ++i) {
      xs.push_back({rng().uniform(0.0, 3.0), rng().uniform(0.0, 3.0)});
    }
    const auto batch = executor.run_z_batch(xs);
    ASSERT_EQ(batch.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const auto single = executor.run_z(xs[i]);
      ASSERT_EQ(batch[i].size(), single.size());
      for (std::size_t k = 0; k < single.size(); ++k) {
        EXPECT_NEAR(batch[i][k], single[k], 1e-14);
      }
    }
    const auto reference = run_z_reference(phys, noise, xs[0]);
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_NEAR(batch[0][k], reference[k], kAgreementTol);
    }

    // Shot batches reproduce single-sample shot runs seeded 77 + i.
    const auto shot_batch = executor.run_z_batch(xs, {}, 500, 77);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const auto single = executor.run_z(xs[i], {}, 500, 77 + i);
      for (std::size_t k = 0; k < single.size(); ++k) {
        EXPECT_DOUBLE_EQ(shot_batch[i][k], single[k]);
      }
    }
  }
}

TEST(FusedChannels, PulseChannelMatchesSequentialApplication) {
  // The Channel1 kernel applies a pulse site's map in one pass; the
  // oracle applies the pulse, the depolarizing and the thermal step one
  // after another.
  PulseNoise pn;
  pn.depolarizing_p = 0.03;
  pn.thermal = ThermalChannel{0.02, 0.015};

  Rng rng(5);
  const std::vector<double> x{0.8};
  const PhysicalCircuit c = random_transpiled(rng, 3, 8, 1);
  BatchedDensityMatrix<1> fused(3);
  DensityMatrix seq = run_density(c, NoiseModel{}, x);
  run_on_lanes(fused, c, x);

  for (int q = 0; q < 3; ++q) {
    const std::array<cplx, 4> pulse = q == 1 ? x_as_array2() : sx_as_array2();
    fused.apply_channel1(q, pulse_site_map(pulse, fuse_pulse_channel(pn)));
    seq.apply1(q, pulse);
    seq.apply_depolarizing1(q, pn.depolarizing_p);
    seq.apply_thermal1(q, pn.thermal.gamma, pn.thermal.lambda);
  }
  expect_matches_oracle(fused, seq);
  EXPECT_NEAR(seq.trace_real(), 1.0, test::kTightTol);
}

TEST(FusedChannels, CxChannelMatchesSequentialApplication) {
  // The Channel2 kernel applies a CX and its error site in one pass; the
  // oracle applies the CX, the two-qubit depolarizing and the thermal steps
  // on min(q) then max(q) one after another. The control sits on either
  // side of the pair.
  CxNoise cn;
  cn.depolarizing_p = 0.08;
  cn.thermal_first = ThermalChannel{0.03, 0.01};
  cn.thermal_second = ThermalChannel{0.015, 0.025};

  for (const auto& [control, target] : {std::pair{1, 3}, std::pair{3, 1}}) {
    SCOPED_TRACE("control " + std::to_string(control));
    Rng rng(9);
    const std::vector<double> x{1.3};
    const PhysicalCircuit c = random_transpiled(rng, 4, 10, 1);
    BatchedDensityMatrix<1> fused(4);
    DensityMatrix seq = run_density(c, NoiseModel{}, x);
    run_on_lanes(fused, c, x);

    fused.apply_channel2(control, target, fuse_cx_channel(cn));
    seq.apply_gate(Gate{GateKind::CX, control, target, {}, 0.0}, 0.0);
    seq.apply_depolarizing2(1, 3, cn.depolarizing_p);
    seq.apply_thermal1(1, cn.thermal_first.gamma, cn.thermal_first.lambda);
    seq.apply_thermal1(3, cn.thermal_second.gamma, cn.thermal_second.lambda);
    expect_matches_oracle(fused, seq);
    EXPECT_NEAR(seq.trace_real(), 1.0, test::kTightTol);
  }
}

TEST(FusedChannels, CxPermutationMatchesApply2) {
  // Both CX kernels against the oracle's 4x4 CX: the Cx relabel, and the
  // Channel2 pass with an identity channel, which is that relabel read
  // through its loads.
  for (const auto& [control, target] : {std::pair{2, 0}, std::pair{0, 2}}) {
    SCOPED_TRACE("control " + std::to_string(control));
    Rng rng(11);
    const std::vector<double> x{2.1};
    const PhysicalCircuit c = random_transpiled(rng, 4, 12, 1);
    BatchedDensityMatrix<1> perm(4);
    BatchedDensityMatrix<1> site(4);
    DensityMatrix mat = run_density(c, NoiseModel{}, x);
    run_on_lanes(perm, c, x);
    run_on_lanes(site, c, x);
    perm.apply_cx(control, target);
    site.apply_channel2(control, target, FusedChannel2{});
    mat.apply_gate(Gate{GateKind::CX, control, target, {}, 0.0}, 0.0);
    expect_matches_oracle(perm, mat);
    expect_matches_oracle(site, mat);
  }
}

TEST(CompiledProgramLayout, NoisyCxIsOneChannel2SiteAndCxOtherwise) {
  // A CX with an error site compiles to one Channel2 op on (control,
  // target); a CX on a noiseless edge, or in a noiseless program, stays a
  // Cx. The X pulses between the CXs keep the sandwich fusion out.
  Rng rng(5);
  const std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}};
  Calibration cal = noisy_calibration(3, edges, rng);
  cal.set_cx_error(1, 2, 0.0);
  NoiseModelOptions no_thermal;
  no_thermal.include_thermal_relaxation = false;  // edge (1, 2) is noiseless
  PhysicalCircuit phys(3);
  const std::vector<std::pair<int, int>> cxs{{0, 1}, {2, 1}, {1, 0}, {1, 2}};
  for (const auto& [control, target] : cxs) {
    for (int q = 0; q < 3; ++q) phys.push(PhysOp{PhysOpKind::SX, q});
    phys.push(PhysOp{PhysOpKind::CX, control, target});
  }
  for (int q = 0; q < 3; ++q) phys.push(PhysOp{PhysOpKind::X, q});
  phys.readout_physical() = {0, 1, 2};

  auto two_qubit_ops = [](const CompiledProgram& program) {
    std::vector<CompiledOp> out;
    for (const CompiledOp& op : program.ops()) {
      if (op.kind != COpKind::Unitary1 && op.kind != COpKind::Diag1 &&
          op.kind != COpKind::Channel1) {
        out.push_back(op);
      }
    }
    return out;
  };
  const std::vector<COpKind> noisy_kinds{COpKind::Channel2, COpKind::Cx,
                                         COpKind::Channel2, COpKind::Cx};
  for (const bool noisy : {true, false}) {
    SCOPED_TRACE(noisy ? "noisy" : "noiseless");
    const NoiseModel noise = noisy ? NoiseModel(cal, no_thermal) : NoiseModel();
    const CompiledProgram program = CompiledProgram::compile(phys, noise);
    const std::vector<CompiledOp> ops = two_qubit_ops(program);
    ASSERT_EQ(ops.size(), cxs.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(ops[i].kind, noisy ? noisy_kinds[i] : COpKind::Cx) << i;
      EXPECT_EQ(ops[i].q0, cxs[i].first) << i;
      EXPECT_EQ(ops[i].q1, cxs[i].second) << i;
    }
    EXPECT_EQ(program.channel2_table().size(), noisy ? 1u : 0u);

    const CompiledExecutor executor(phys, noise);
    const auto z_ref = run_z_reference(phys, noise, {});
    const auto z = executor.run_z({});
    ASSERT_EQ(z.size(), z_ref.size());
    for (std::size_t k = 0; k < z.size(); ++k) {
      EXPECT_NEAR(z[k], z_ref[k], kAgreementTol) << "slot " << k;
    }
  }
}

TEST(CompiledProgramLayout, DiagonalBeforeCxSiteMatchesReference) {
  // An RZ on the target just before a noisy CX does not commute with it:
  // through the CX it becomes a ZZ phase, which the X pulse on the control
  // afterwards turns into populations. Whether the trailing-diagonal drop
  // keeps it or not, every readout matches the gate-by-gate reference.
  Rng rng(13);
  const std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}};
  const NoiseModel noise(noisy_calibration(3, edges, rng));
  for (const auto& [control, target] :
       {std::pair{0, 1}, std::pair{1, 0}, std::pair{2, 1}, std::pair{1, 2}}) {
    for (const bool pulse_after : {true, false}) {
      SCOPED_TRACE("control " + std::to_string(control) + " target " +
                   std::to_string(target) +
                   (pulse_after ? " pulse after" : " site last"));
      PhysicalCircuit phys(3);
      for (int q = 0; q < 3; ++q) phys.push(PhysOp{PhysOpKind::SX, q});
      PhysOp rz{PhysOpKind::RZ, target};
      rz.angle = 0.4;
      rz.input_index = 0;
      rz.input_scale = 1.7;
      phys.push(rz);
      phys.push(PhysOp{PhysOpKind::RZ, target, -1, 0.9});
      phys.push(PhysOp{PhysOpKind::CX, control, target});
      if (pulse_after) phys.push(PhysOp{PhysOpKind::SX, control});
      phys.readout_physical() = {0, 1, 2};
      const CompiledExecutor executor(phys, noise);
      for (const double v : {0.3, 1.9}) {
        const std::vector<double> x{v};
        const auto z_ref = run_z_reference(phys, noise, x);
        const auto z = executor.run_z(x);
        ASSERT_EQ(z.size(), z_ref.size());
        for (std::size_t k = 0; k < z.size(); ++k) {
          EXPECT_NEAR(z[k], z_ref[k], kAgreementTol) << "x " << v << " slot " << k;
        }
      }
    }
  }
}

TEST(CompiledProgramLayout, NoisyPulseIsOneChannel1SiteAndUnitary1Otherwise) {
  // A pulse with an error site compiles to one Channel1 op holding the Bloch
  // map of the chain that ends in it and its site; a pulse on a noiseless
  // qubit, or in a noiseless program, stays in a Unitary1.
  Rng rng(7);
  const std::vector<std::pair<int, int>> edges{{0, 1}};
  Calibration cal = noisy_calibration(2, edges, rng);
  cal.set_sx_error(1, 0.0);
  NoiseModelOptions no_thermal;
  no_thermal.include_thermal_relaxation = false;  // qubit 1 is noiseless
  PhysicalCircuit phys(2);
  for (int q = 0; q < 2; ++q) {
    phys.push(PhysOp{PhysOpKind::RZ, q, -1, 0.7});
    phys.push(PhysOp{PhysOpKind::SX, q});
  }
  phys.readout_physical() = {0, 1};
  const std::array<cplx, 4> rz{std::exp(cplx{0.0, -0.35}), cplx{0.0, 0.0},
                               cplx{0.0, 0.0}, std::exp(cplx{0.0, 0.35})};
  const std::array<cplx, 4>& sx = sx_as_array2();
  const std::array<cplx, 4> chain{sx[0] * rz[0], sx[1] * rz[3],
                                  sx[2] * rz[0], sx[3] * rz[3]};
  for (const bool noisy : {true, false}) {
    SCOPED_TRACE(noisy ? "noisy" : "noiseless");
    const NoiseModel noise = noisy ? NoiseModel(cal, no_thermal) : NoiseModel();
    const CompiledProgram program = CompiledProgram::compile(phys, noise);
    ASSERT_EQ(program.ops().size(), 2u);
    for (const CompiledOp& op : program.ops()) {
      SCOPED_TRACE("qubit " + std::to_string(op.q0));
      const bool site = noisy && op.q0 == 0;
      EXPECT_EQ(op.kind, site ? COpKind::Channel1 : COpKind::Unitary1);
      if (site) {
        const BlochMap expected =
            pulse_site_map(chain, fuse_pulse_channel(noise.pulse_noise(0)));
        const BlochMap& map = program.bloch_map(op);
        for (std::size_t i = 0; i < 3; ++i) {
          for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_NEAR(map.m[i][j], expected.m[i][j], test::kTightTol);
          }
          EXPECT_NEAR(map.shift[i], expected.shift[i], test::kTightTol);
        }
      } else {
        const std::array<cplx, 4>& u = program.unitary(op);
        for (std::size_t e = 0; e < 4; ++e) {
          EXPECT_NEAR(std::abs(u[e] - chain[e]), 0.0, test::kTightTol) << e;
        }
      }
    }
    EXPECT_EQ(program.bloch_map_table().size(), noisy ? 1u : 0u);
    EXPECT_EQ(program.unitary_table().size(), 1u);

    const CompiledExecutor executor(phys, noise);
    const auto z_ref = run_z_reference(phys, noise, {});
    const auto z = executor.run_z({});
    ASSERT_EQ(z.size(), z_ref.size());
    for (std::size_t k = 0; k < z.size(); ++k) {
      EXPECT_NEAR(z[k], z_ref[k], kAgreementTol) << "slot " << k;
    }
  }
}

TEST(CompiledProgramLayout, SymbolicRzBeforeFinalPulseSiteMatchesReference) {
  // A symbolic RZ just before the last pulse of a qubit that nothing else
  // touches: the qubit's earlier pulse puts it in superposition, and the
  // pulse site after the RZ turns its phase into populations, so the
  // trailing-diagonal drop must keep it.
  Rng rng(19);
  const std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}};
  const NoiseModel noise(noisy_calibration(3, edges, rng));
  PhysicalCircuit phys(3);
  for (int q = 0; q < 3; ++q) phys.push(PhysOp{PhysOpKind::SX, q});
  phys.push(PhysOp{PhysOpKind::CX, 0, 1});
  PhysOp rz{PhysOpKind::RZ, 2};
  rz.angle = 0.4;
  rz.input_index = 0;
  rz.input_scale = 1.7;
  phys.push(rz);
  phys.push(PhysOp{PhysOpKind::SX, 2});
  phys.readout_physical() = {0, 1, 2};
  const CompiledExecutor executor(phys, noise);
  const CompiledOp& last = executor.program().ops().back();
  EXPECT_EQ(last.kind, COpKind::Channel1);
  EXPECT_EQ(last.q0, 2u);
  for (const double v : {0.3, 1.9}) {
    const std::vector<double> x{v};
    const auto z_ref = run_z_reference(phys, noise, x);
    const auto z = executor.run_z(x);
    ASSERT_EQ(z.size(), z_ref.size());
    for (std::size_t k = 0; k < z.size(); ++k) {
      EXPECT_NEAR(z[k], z_ref[k], kAgreementTol) << "x " << v << " slot " << k;
    }
  }
}

/// Replays `program` at width L, lane l on rows[l % rows.size()], and pins
/// every lane's full rho to run_density at 1e-10, off-diagonals included.
template <std::size_t L>
void expect_lanes_match_density(const CompiledProgram& program,
                                const PhysicalCircuit& phys,
                                const NoiseModel& noise,
                                const std::vector<std::vector<double>>& rows) {
  BatchedDensityMatrix<L> rho(phys.num_qubits());
  LaneInputs<L> xs;
  for (std::size_t l = 0; l < L; ++l) xs[l] = rows[l % rows.size()].data();
  program.run_lanes(rho, xs);
  for (std::size_t l = 0; l < L; ++l) {
    const DensityMatrix ref = run_density(phys, noise, rows[l % rows.size()]);
    for (std::size_t i = 0; i < ref.data().size(); ++i) {
      const cplx got{rho.re()[i * L + l], rho.im()[i * L + l]};
      EXPECT_NEAR(std::abs(got - ref.data()[i]), 0.0, kAgreementTol)
          << "width " << L << " lane " << l << " entry " << i;
    }
  }
}

/// The kinds of the ops a program applies to qubit q, in order.
std::vector<COpKind> kinds_on(const CompiledProgram& program, int q) {
  std::vector<COpKind> out;
  for (const CompiledOp& op : program.ops()) {
    const bool two_qubit = op.kind == COpKind::Cx ||
                           op.kind == COpKind::CRot2 ||
                           op.kind == COpKind::Channel2;
    if (op.q0 == q || (two_qubit && op.q1 == q)) out.push_back(op.kind);
  }
  return out;
}

PhysOp literal_rz(int q, double angle) {
  return PhysOp{PhysOpKind::RZ, q, -1, angle};
}

PhysOp input_rz(int q, double scale, double offset) {
  PhysOp rz{PhysOpKind::RZ, q};
  rz.angle = offset;
  rz.input_index = 0;
  rz.input_scale = scale;
  return rz;
}

TEST(NoisySegments, RandomSegmentsMatchTheOracleAtBothWidths) {
  // Random runs of noisy SX / X pulses with literal RZs between and around
  // them, on q = 0 and on q > 0: a CX cuts each run into two segments, the
  // second with no later op, and each segment is one Channel1 op. Every
  // qubit ends in a pulse site, so no diagonal is dropped and the whole rho
  // matches the oracle at both widths.
  Rng rng(23);
  const int nq = 3;
  const std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}};
  const NoiseModel noise(noisy_calibration(nq, edges, rng));
  const std::vector<std::vector<double>> rows{{0.3}, {1.1}, {2.6}};
  for (const int q : {0, 2}) {
    for (int trial = 0; trial < 3; ++trial) {
      SCOPED_TRACE("qubit " + std::to_string(q) + " trial " +
                   std::to_string(trial));
      PhysicalCircuit phys(nq);
      // An input-dependent entangled start, so every lane differs.
      for (int k = 0; k < nq; ++k) {
        phys.push(PhysOp{PhysOpKind::SX, k});
        phys.push(input_rz(k, 0.7 + 0.4 * k, 0.1 * k));
      }
      phys.push(PhysOp{PhysOpKind::CX, 0, 1});
      phys.push(PhysOp{PhysOpKind::CX, 1, 2});
      auto push_segment = [&] {
        const int pulses = rng.integer(1, 5);
        for (int p = 0; p < pulses; ++p) {
          if (rng.uniform(0.0, 1.0) < 0.7) {
            phys.push(literal_rz(q, rng.uniform(-test::kPi, test::kPi)));
          }
          phys.push(PhysOp{rng.uniform(0.0, 1.0) < 0.5 ? PhysOpKind::SX
                                                       : PhysOpKind::X,
                           q});
        }
        if (rng.uniform(0.0, 1.0) < 0.5) {
          phys.push(literal_rz(q, rng.uniform(-test::kPi, test::kPi)));
        }
      };
      push_segment();
      phys.push(PhysOp{PhysOpKind::CX, 1, q});
      push_segment();
      for (int k = 0; k < nq; ++k) {
        if (k != q) phys.push(PhysOp{PhysOpKind::SX, k});
      }
      phys.readout_physical() = {0, 1, 2};

      const CompiledProgram program = CompiledProgram::compile(phys, noise);
      const std::vector<COpKind> expected{
          COpKind::Channel1, COpKind::SymDiag1, COpKind::Channel2,
          COpKind::Channel1, COpKind::Channel2, COpKind::Channel1};
      EXPECT_EQ(kinds_on(program, q), expected);
      EXPECT_EQ(program.stats().dropped_trailing, 0u);
      expect_lanes_match_density<1>(program, phys, noise, rows);
      expect_lanes_match_density<kBlockLanes>(program, phys, noise, rows);
    }
  }
}

TEST(NoisySegments, InputSymbolicRzCutsASegment) {
  // An input-symbolic RZ cannot join a map compiled once for every sample:
  // it ends the segment before it (its pending literal RZ folded in) and
  // starts a new one after it.
  Rng rng(29);
  const std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}};
  const NoiseModel noise(noisy_calibration(3, edges, rng));
  PhysicalCircuit phys(3);
  for (int q = 0; q < 3; ++q) phys.push(PhysOp{PhysOpKind::SX, q});
  phys.push(PhysOp{PhysOpKind::CX, 0, 1});
  phys.push(PhysOp{PhysOpKind::SX, 1});
  phys.push(literal_rz(1, 0.4));
  phys.push(PhysOp{PhysOpKind::X, 1});
  phys.push(literal_rz(1, -1.2));
  phys.push(input_rz(1, 1.3, 0.2));
  phys.push(literal_rz(1, 0.9));
  phys.push(PhysOp{PhysOpKind::SX, 1});
  phys.push(literal_rz(1, 0.3));
  phys.push(PhysOp{PhysOpKind::CX, 1, 2});
  for (int q = 0; q < 3; ++q) phys.push(PhysOp{PhysOpKind::SX, q});
  phys.readout_physical() = {0, 1, 2};

  const CompiledProgram program = CompiledProgram::compile(phys, noise);
  const std::vector<COpKind> expected{
      COpKind::Channel1, COpKind::Channel2, COpKind::Channel1,
      COpKind::SymDiag1, COpKind::Channel1, COpKind::Channel2,
      COpKind::Channel1};
  EXPECT_EQ(kinds_on(program, 1), expected);
  const std::vector<std::vector<double>> rows{{0.3}, {1.9}, {-0.8}};
  expect_lanes_match_density<1>(program, phys, noise, rows);
  expect_lanes_match_density<kBlockLanes>(program, phys, noise, rows);
  const CompiledExecutor executor(phys, noise);
  for (const std::vector<double>& x : rows) {
    const auto z_ref = run_z_reference(phys, noise, x);
    const auto z = executor.run_z(x);
    ASSERT_EQ(z.size(), z_ref.size());
    for (std::size_t k = 0; k < z.size(); ++k) {
      EXPECT_NEAR(z[k], z_ref[k], kAgreementTol)
          << "x " << x[0] << " slot " << k;
    }
  }
}

TEST(NoisySegments, TrailingSegmentIsOneSiteAndKeepsTheFullState) {
  // A segment no later op ends is flushed at the end of the program, its
  // final RZ folded into the map rather than dropped as a trailing
  // diagonal, so the whole final rho matches the oracle.
  Rng rng(31);
  const std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}};
  const NoiseModel noise(noisy_calibration(3, edges, rng));
  PhysicalCircuit phys(3);
  for (int q = 0; q < 3; ++q) {
    phys.push(PhysOp{PhysOpKind::SX, q});
    phys.push(input_rz(q, 0.9, 0.3 * q));
  }
  phys.push(PhysOp{PhysOpKind::CX, 0, 1});
  phys.push(PhysOp{PhysOpKind::CX, 2, 1});
  for (int q = 0; q < 3; ++q) {
    phys.push(literal_rz(q, 0.5 + q));
    phys.push(PhysOp{PhysOpKind::SX, q});
    phys.push(literal_rz(q, -0.7));
    phys.push(PhysOp{PhysOpKind::X, q});
    phys.push(literal_rz(q, 1.1 - q));
  }
  phys.readout_physical() = {0, 1, 2};

  const CompiledProgram program = CompiledProgram::compile(phys, noise);
  EXPECT_EQ(program.stats().dropped_trailing, 0u);
  for (int q = 0; q < 3; ++q) {
    SCOPED_TRACE("qubit " + std::to_string(q));
    ASSERT_FALSE(kinds_on(program, q).empty());
    EXPECT_EQ(kinds_on(program, q).back(), COpKind::Channel1);
  }
  const std::vector<std::vector<double>> rows{{0.6}, {2.2}};
  expect_lanes_match_density<1>(program, phys, noise, rows);
  expect_lanes_match_density<kBlockLanes>(program, phys, noise, rows);
}

TEST(NoisySegments, RoutedProgramReadOnQubitsOneAndThreeMatchesReference) {
  // A random circuit read out on logical qubits {1, 3}, routed onto belem
  // with SWAPs and compiled against the day's noise: each lane of a full
  // block and each single sample match the gate-by-gate reference.
  for (const std::uint64_t seed : {5u, 41u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const CalibrationHistory history(FluctuationScenario::belem(), 1, seed);
    Circuit c = angle_encoder(4, 4);
    c.append(test::random_circuit(rng, 4, 30));
    const TranspiledModel transpiled =
        transpile_model(c, {1, 3}, CouplingMap::belem(), &history.day(0));
    EXPECT_GT(transpiled.routed.swap_count, 0);
    const PhysicalCircuit phys = lower_pure_circuit(
        transpiled.routed.circuit,
        {transpiled.readout_physical(1), transpiled.readout_physical(3)});
    const NoiseModel noise(history.day(0));
    const CompiledExecutor executor(phys, noise);
    ASSERT_TRUE(executor.program().has_channels());
    std::vector<std::vector<double>> rows(kBlockLanes);
    for (auto& row : rows) {
      row.resize(4);
      for (double& v : row) v = rng.uniform(0.0, test::kPi);
    }
    const auto batch = executor.run_z_batch(rows);
    ASSERT_EQ(batch.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto z_ref = run_z_reference(phys, noise, rows[i]);
      const auto z = executor.run_z(rows[i]);
      ASSERT_EQ(z_ref.size(), 2u);
      ASSERT_EQ(batch[i].size(), 2u);
      for (std::size_t k = 0; k < z_ref.size(); ++k) {
        EXPECT_NEAR(z[k], z_ref[k], kAgreementTol) << "row " << i;
        EXPECT_NEAR(batch[i][k], z_ref[k], kAgreementTol) << "row " << i;
      }
    }
  }
}

TEST(CompiledEvalCache, HitsOnRepeatedConfigurationMissesOnChange) {
  CompiledEvalCache cache(8);
  const CalibrationHistory h(FluctuationScenario::belem(), 4, 3);
  const QnnModel model = build_paper_model(4, 4, 2, 1);
  auto theta = init_params(model, 3);
  const TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits, CouplingMap::belem(), &h.day(0));

  const auto a = cache.get_or_build(model, transpiled, theta, h.day(0), {});
  const auto b = cache.get_or_build(model, transpiled, theta, h.day(0), {});
  EXPECT_EQ(a.get(), b.get()) << "same configuration must share one executor";
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Different theta, different day, different noise options: all misses.
  theta[0] += 0.25;
  const auto c = cache.get_or_build(model, transpiled, theta, h.day(0), {});
  EXPECT_NE(a.get(), c.get());
  const auto d = cache.get_or_build(model, transpiled, theta, h.day(1), {});
  EXPECT_NE(c.get(), d.get());
  NoiseModelOptions no_thermal;
  no_thermal.include_thermal_relaxation = false;
  const auto e = cache.get_or_build(model, transpiled, theta, h.day(1), no_thermal);
  EXPECT_NE(d.get(), e.get());
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(CompiledEvalCache, EvictsLeastRecentlyUsed) {
  CompiledEvalCache cache(2);
  const CalibrationHistory h(FluctuationScenario::belem(), 4, 3);
  const QnnModel model = build_paper_model(4, 4, 2, 1);
  const auto theta = init_params(model, 3);
  const TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits, CouplingMap::belem(), &h.day(0));

  cache.get_or_build(model, transpiled, theta, h.day(0), {});
  cache.get_or_build(model, transpiled, theta, h.day(1), {});
  cache.get_or_build(model, transpiled, theta, h.day(2), {});  // evicts day 0
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.get_or_build(model, transpiled, theta, h.day(0), {});  // rebuild
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(CompiledEvalCache, CachedEvaluationMatchesUncached) {
  const CalibrationHistory h(FluctuationScenario::belem(), 4, 3);
  const QnnModel model = build_paper_model(4, 4, 2, 2);
  const auto theta = init_params(model, 5);
  const TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits, CouplingMap::belem(), &h.day(0));
  const Dataset data = make_mnist4(24, 11).take(16);

  NoisyEvalOptions cached;
  NoisyEvalOptions uncached;
  uncached.use_cache = false;
  const auto r1 = noisy_evaluate(model, transpiled, theta, data, h.day(1), cached);
  const auto r2 = noisy_evaluate(model, transpiled, theta, data, h.day(1), uncached);
  const auto r3 = noisy_evaluate(model, transpiled, theta, data, h.day(1), cached);
  EXPECT_EQ(r1.predictions, r2.predictions);
  EXPECT_EQ(r1.predictions, r3.predictions);
  EXPECT_DOUBLE_EQ(r1.accuracy, r2.accuracy);
}

static_assert(sizeof(CompiledOp) <= 16,
              "a compiled op header must stay at most 16 bytes");

TEST(CompiledProgramLayout, ChannelTablesHoldOneEntryPerDistinctSite) {
  // Ten noisy pulses on every qubit and six CXs on every edge of a 3-qubit
  // line, both directions: 42 error sites, but only 3 qubits and 2 edges.
  // The pulses are SX or X. The CXs end each qubit's segment 3 times, each
  // segment a pulse and an RZ(0.3) (SX then RZ twice, X then RZ once), and
  // the last 7 pulses are one trailing segment: 12 segment sites, 3 maps
  // per qubit, and no diagonal left on its own.
  Rng rng(41);
  const std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}};
  const Calibration cal = noisy_calibration(3, edges, rng);
  PhysicalCircuit phys(3);
  for (int rep = 0; rep < 10; ++rep) {
    for (int q = 0; q < 3; ++q) {
      phys.push(PhysOp{rep % 2 == 0 ? PhysOpKind::SX : PhysOpKind::X, q});
    }
    if (rep < 3) {
      for (int q = 0; q < 3; ++q) {
        phys.push(PhysOp{PhysOpKind::RZ, q, -1, 0.3});
      }
      for (const auto& [a, b] : edges) {
        phys.push(PhysOp{PhysOpKind::CX, a, b});
        phys.push(PhysOp{PhysOpKind::CX, b, a});
      }
    }
  }
  phys.readout_physical() = {0, 1, 2};
  const NoiseModel noise(cal);
  const CompiledExecutor executor(phys, noise);
  const CompiledProgram& program = executor.program();
  EXPECT_EQ(program.stats().channels, 42u);
  EXPECT_EQ(program.channel2_table().size(), 2u);
  std::size_t segment_sites = 0;
  std::size_t diagonal_sites = 0;
  for (const CompiledOp& op : program.ops()) {
    segment_sites += op.kind == COpKind::Channel1;
    diagonal_sites += op.kind == COpKind::Diag1;
  }
  EXPECT_EQ(segment_sites, 12u);
  EXPECT_EQ(program.bloch_map_table().size(), 9u);
  EXPECT_EQ(diagonal_sites, 0u);
  EXPECT_EQ(program.unitary_table().size(), 0u);
  EXPECT_EQ(program.diagonal_table().size(), 0u);

  // Every site still replays its own qubit's or edge's coefficients.
  const auto z_ref = run_z_reference(phys, noise, {});
  const auto z = executor.run_z({});
  ASSERT_EQ(z.size(), z_ref.size());
  for (std::size_t k = 0; k < z.size(); ++k) {
    EXPECT_NEAR(z[k], z_ref[k], kAgreementTol) << "slot " << k;
  }
}

TEST(CompiledProgramLayout, SeismicBelemDensityProgramIsSmall) {
  // The seismic detector's shape (4 features on 4 qubits, 2 classes, 2
  // ansatz blocks) routed and compiled against a belem calibration: the
  // density program every cached executor and serving epoch holds.
  const CalibrationHistory h(FluctuationScenario::belem(), 2, 2021);
  const QnnModel model = build_paper_model(4, 4, 2, 2);
  const auto theta = init_params(model, 7);
  const TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits, CouplingMap::belem(), &h.day(0));
  const auto executor =
      build_noisy_executor(model, transpiled, theta, h.day(0), {});
  const CompiledProgram& program = executor->program();
  ASSERT_GT(program.stats().channels, 0u);
  EXPECT_LE(program.channel2_table().size(), 4u);  // belem's four edges
  // Each noisy single-qubit segment is one Channel1 op, so only the
  // diagonals between two CX sites are left on their own.
  std::vector<std::size_t> kinds(
      static_cast<std::size_t>(COpKind::Channel2) + 1);
  for (const CompiledOp& op : program.ops()) {
    ++kinds[static_cast<std::size_t>(op.kind)];
  }
  EXPECT_EQ(kinds[static_cast<std::size_t>(COpKind::Channel1)], 51u);
  EXPECT_EQ(kinds[static_cast<std::size_t>(COpKind::Channel2)], 154u);
  EXPECT_EQ(kinds[static_cast<std::size_t>(COpKind::Diag1)], 38u);
  EXPECT_EQ(kinds[static_cast<std::size_t>(COpKind::SymDiag1)], 4u);
  EXPECT_EQ(program.ops().size(), 247u);
  EXPECT_LE(program.heap_bytes(), 14u * 1024u)
      << program.ops().size() << " ops";
  EXPECT_LE(executor->footprint_bytes(), 24u * 1024u);
}

TEST(CompiledEvalCache, ConcurrentBuildClearAndResizeStayConsistent) {
  // Builders race clear() and set_capacity(): evicted executors are
  // released outside the cache lock while other threads look up, insert
  // and evict. Run under TSan and ASan to check the release path.
  CompiledEvalCache cache(4);
  const CalibrationHistory h(FluctuationScenario::belem(), 6, 13);
  const QnnModel model = build_paper_model(4, 4, 2, 1);
  const auto theta = init_params(model, 3);
  const TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits, CouplingMap::belem(), &h.day(0));
  const auto build = [&](std::size_t day) {
    return cache.get_or_build(model, transpiled, theta,
                              h.day(static_cast<int>(day % 6)), {});
  };

  const std::vector<double> x{0.4, 1.1, 2.0, 0.7};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> builders;
  for (int t = 0; t < 2; ++t) {
    builders.emplace_back([&, t] {
      for (std::size_t i = 0; i < 400; ++i) {
        const auto executor = build(i + static_cast<std::size_t>(t));
        if (!executor || executor->run_z(x).size() != 2) ++failures;
      }
    });
  }
  std::thread clearer([&] {
    while (!stop) {
      cache.clear();
      std::this_thread::yield();
    }
  });
  std::thread resizer([&] {
    std::size_t capacity = 1;
    while (!stop) {
      cache.set_capacity(capacity);
      capacity = capacity % 4 + 1;
      const EvalCacheStats stats = cache.stats();
      if (stats.entries > 0 && stats.bytes == 0) ++failures;
    }
  });
  for (std::thread& b : builders) b.join();
  stop = true;
  clearer.join();
  resizer.join();
  EXPECT_EQ(failures.load(), 0);

  cache.clear();
  cache.set_capacity(4);
  const auto a = build(0);
  const auto b = build(1);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, a->footprint_bytes() + b->footprint_bytes());
}

}  // namespace
}  // namespace qucad
