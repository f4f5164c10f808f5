#include <gtest/gtest.h>

#include "common/require.hpp"
#include "noise/calibration_history.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {
namespace {

TEST(CouplingMap, BelemTopology) {
  const CouplingMap belem = CouplingMap::belem();
  EXPECT_EQ(belem.num_qubits(), 5);
  EXPECT_TRUE(belem.adjacent(0, 1));
  EXPECT_TRUE(belem.adjacent(1, 3));
  EXPECT_FALSE(belem.adjacent(0, 2));
  EXPECT_FALSE(belem.adjacent(2, 3));
  EXPECT_EQ(belem.distance(0, 4), 3);  // 0-1-3-4
  EXPECT_EQ(belem.distance(2, 4), 3);  // 2-1-3-4
}

TEST(CouplingMap, ShortestPathEndpoints) {
  const CouplingMap belem = CouplingMap::belem();
  const auto path = belem.shortest_path(0, 4);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 4);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(belem.adjacent(path[i], path[i + 1]));
  }
}

TEST(CouplingMap, JakartaTopology) {
  const CouplingMap j = CouplingMap::jakarta();
  EXPECT_EQ(j.num_qubits(), 7);
  EXPECT_TRUE(j.adjacent(3, 5));
  EXPECT_TRUE(j.adjacent(5, 6));
  EXPECT_EQ(j.distance(0, 6), 4);  // 0-1-3-5-6
}

TEST(CouplingMap, Presets) {
  EXPECT_EQ(CouplingMap::line(4).edges().size(), 3u);
  EXPECT_EQ(CouplingMap::ring(5).edges().size(), 5u);
  EXPECT_EQ(CouplingMap::full(4).edges().size(), 6u);
  EXPECT_EQ(CouplingMap::full(4).distance(0, 3), 1);
}

TEST(Layout, TrivialIsIdentity) {
  const Layout l = trivial_layout(4);
  EXPECT_EQ(l, (Layout{0, 1, 2, 3}));
}

TEST(Layout, NoiseAwareAvoidsHotEdge) {
  // Two-qubit circuit with a single CR gate; one edge is much noisier.
  Circuit c(2);
  c.cry(0, 1, trainable(0));
  Calibration cal(3, {{0, 1}, {1, 2}});
  cal.set_cx_error(0, 1, 0.20);
  cal.set_cx_error(1, 2, 0.001);
  const CouplingMap line = CouplingMap::line(3);
  const Layout l = noise_aware_layout(c, {0}, line, cal);
  // The chosen physical pair must be {1,2}, not {0,1}.
  const int pa = l[0], pb = l[1];
  EXPECT_TRUE((pa == 1 && pb == 2) || (pa == 2 && pb == 1));
}

TEST(Layout, CostPrefersAdjacentPlacement) {
  Circuit c(2);
  c.cry(0, 1, trainable(0));
  Calibration cal(5, CouplingMap::belem().edges());
  for (const auto& [a, b] : cal.edges()) cal.set_cx_error(a, b, 0.01);
  const CouplingMap belem = CouplingMap::belem();
  const double adjacent = layout_cost(c, {0}, belem, cal, {0, 1});
  const double distant = layout_cost(c, {0}, belem, cal, {0, 4});
  EXPECT_LT(adjacent, distant);
}

TEST(Router, AdjacentGatesPassThrough) {
  Circuit c(2);
  c.cry(0, 1, trainable(0)).ry(0, trainable(1));
  const RoutedCircuit routed =
      route_circuit(c, CouplingMap::belem(), {0, 1});
  EXPECT_EQ(routed.swap_count, 0);
  EXPECT_EQ(routed.circuit.size(), 2u);
  EXPECT_EQ(routed.final_mapping, (std::vector<int>{0, 1}));
}

TEST(Router, InsertsSwapsForDistantPair) {
  Circuit c(2);
  c.cry(0, 1, trainable(0));
  // Logical 0 -> physical 0, logical 1 -> physical 4: distance 3 on belem.
  const RoutedCircuit routed = route_circuit(c, CouplingMap::belem(), {0, 4});
  EXPECT_EQ(routed.swap_count, 2);
  // Every two-qubit gate in the routed circuit must be on coupled qubits.
  const CouplingMap belem = CouplingMap::belem();
  for (const Gate& g : routed.circuit.gates()) {
    if (g.num_qubits() == 2) {
      EXPECT_TRUE(belem.adjacent(g.q0, g.q1));
    }
  }
}

TEST(Router, PreservesParameterReferences) {
  Circuit c(3);
  c.ry(0, trainable(0)).cry(0, 2, trainable(1)).rz(2, input(0));
  const RoutedCircuit routed = route_circuit(c, CouplingMap::belem(), {0, 1, 2});
  int trainable_count = 0, input_count = 0;
  for (const Gate& g : routed.circuit.gates()) {
    if (g.param.kind == ParamRef::Kind::Trainable) ++trainable_count;
    if (g.param.kind == ParamRef::Kind::Input) ++input_count;
  }
  EXPECT_EQ(trainable_count, 2);
  EXPECT_EQ(input_count, 1);
  EXPECT_EQ(routed.circuit.num_trainable(), 2);
}

TEST(Router, FinalMappingTracksSwaps) {
  Circuit c(2);
  c.cry(0, 1, trainable(0));
  const RoutedCircuit routed = route_circuit(c, CouplingMap::belem(), {0, 4});
  // After routing, logical qubits live where the swaps left them; the
  // final mapping must be a valid injective map.
  std::vector<int> seen;
  for (int p : routed.final_mapping) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 5);
    seen.push_back(p);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(Transpiler, AssociationsCoverAllParameters) {
  Circuit c(4);
  int p = 0;
  for (int q = 0; q < 4; ++q) c.ry(q, trainable(p++));
  for (int q = 0; q < 4; ++q) c.cry(q, (q + 1) % 4, trainable(p++));
  const CalibrationHistory h(FluctuationScenario::belem(), 5, 3);
  const TranspiledModel model =
      transpile_model(c, {0, 1}, CouplingMap::belem(), &h.day(0));
  ASSERT_EQ(model.associations.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(model.associations[i].param_index, static_cast<int>(i));
    EXPECT_GE(model.associations[i].q0, 0);
    if (i >= 4) EXPECT_TRUE(model.associations[i].is_two_qubit());
    else EXPECT_FALSE(model.associations[i].is_two_qubit());
  }
}

TEST(Transpiler, TwoQubitAssociationsAreCoupled) {
  Circuit c(4);
  int p = 0;
  for (int q = 0; q < 4; ++q) c.cry(q, (q + 1) % 4, trainable(p++));
  const CalibrationHistory h(FluctuationScenario::belem(), 5, 3);
  const CouplingMap belem = CouplingMap::belem();
  const TranspiledModel model = transpile_model(c, {0}, belem, &h.day(0));
  for (const GateAssociation& a : model.associations) {
    if (a.is_two_qubit()) {
      EXPECT_TRUE(belem.adjacent(a.q0, a.q1));
    }
  }
}

TEST(Transpiler, OversizedCircuitRejected) {
  Circuit c(6);
  c.ry(0, 0.1);
  EXPECT_THROW(transpile_model(c, {0}, CouplingMap::belem(), nullptr),
               PreconditionError);
}

TEST(Transpiler, LayoutIsNoiseAwareExactlyWhenCalibrated) {
  // The hot edge of Layout.NoiseAwareAvoidsHotEdge moves the placement off
  // the trivial one, so the two selections are distinguishable.
  Circuit c(2);
  c.cry(0, 1, trainable(0));
  Calibration cal(3, {{0, 1}, {1, 2}});
  cal.set_cx_error(0, 1, 0.20);
  cal.set_cx_error(1, 2, 0.001);
  const CouplingMap line = CouplingMap::line(3);
  const Layout noise_aware = noise_aware_layout(c, {0}, line, cal);
  ASSERT_NE(noise_aware, trivial_layout(2));

  EXPECT_EQ(transpile_model(c, {0}, line, &cal).routed.initial_layout,
            noise_aware);
  EXPECT_EQ(transpile_model(c, {0}, line, nullptr).routed.initial_layout,
            trivial_layout(2));
}

TEST(Transpiler, OutOfRangeReadoutRejectedBeforeLayoutSearch) {
  // Fuzz-found (fuzz/corpus/transpile/hostile_readout_repro): an
  // out-of-range readout qubit used to reach the noise-aware layout
  // search, where layout_cost indexed past the candidate layout. The
  // hostile readout set must be rejected up front, on both the
  // noise-aware and the trivial-layout paths.
  Circuit c(2);
  c.ry(0, trainable(0));
  c.cx(0, 1);
  const CalibrationHistory h(FluctuationScenario::belem(), 1, 3);
  EXPECT_THROW(transpile_model(c, {0, 3}, CouplingMap::belem(), &h.day(0)),
               PreconditionError);
  EXPECT_THROW(transpile_model(c, {-1}, CouplingMap::belem(), nullptr),
               PreconditionError);
}

TEST(PhysicalCircuit, CountsAndDepth) {
  PhysicalCircuit pc(2);
  pc.push({PhysOpKind::RZ, 0, -1, 0.3, -1, 1.0});
  pc.push({PhysOpKind::SX, 0, -1, 0.0, -1, 1.0});
  pc.push({PhysOpKind::X, 1, -1, 0.0, -1, 1.0});
  pc.push({PhysOpKind::CX, 0, 1, 0.0, -1, 1.0});
  EXPECT_EQ(pc.cx_count(), 1u);
  EXPECT_EQ(pc.pulse_count(), 2u);
  EXPECT_EQ(pc.rz_count(), 1u);
  EXPECT_EQ(pc.depth(), 2u);  // sx/x in parallel, then cx
  EXPECT_DOUBLE_EQ(pc.weighted_length(10.0), 12.0);
}

TEST(PhysOp, AffineInputResolution) {
  PhysOp op{PhysOpKind::RZ, 0, -1, 1.0, 2, 0.5};
  const std::vector<double> x{0.0, 0.0, 3.0};
  EXPECT_DOUBLE_EQ(op.resolve_angle(x), 2.5);  // 0.5*3 + 1
  PhysOp literal{PhysOpKind::RZ, 0, -1, 0.7, -1, 1.0};
  EXPECT_DOUBLE_EQ(literal.resolve_angle({}), 0.7);
}

}  // namespace
}  // namespace qucad
