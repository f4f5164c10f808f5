// Cross-module property suites: randomized and parameterized sweeps over
// the invariants that hold the reproduction together.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "compress/compression_table.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/evaluator.hpp"
#include "qnn/model.hpp"
#include "repo/kmeans.hpp"
#include "repo/weights.hpp"
#include "sim/adjoint.hpp"
#include "test_support.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {
namespace {

constexpr double kPi = test::kPi;

// --- transpilation invariants over every preset device ---------------------

class DeviceSweep : public ::testing::TestWithParam<const char*> {
 protected:
  CouplingMap device() const {
    const std::string name = GetParam();
    if (name == "belem") return CouplingMap::belem();
    if (name == "jakarta") return CouplingMap::jakarta();
    if (name == "line5") return CouplingMap::line(5);
    if (name == "ring5") return CouplingMap::ring(5);
    return CouplingMap::full(5);
  }
};

TEST_P(DeviceSweep, RoutedCircuitRespectsCoupling) {
  const CouplingMap coupling = device();
  Circuit c = angle_encoder(4, 4);
  c.append(build_paper_ansatz(4, 2));
  const RoutedCircuit routed =
      route_circuit(c, coupling, trivial_layout(4));
  for (const Gate& g : routed.circuit.gates()) {
    if (g.num_qubits() == 2) {
      EXPECT_TRUE(coupling.adjacent(g.q0, g.q1))
          << gate_name(g.kind) << " on " << g.q0 << "," << g.q1;
    }
  }
}

TEST_P(DeviceSweep, LoweringPreservesProbabilities) {
  const CouplingMap coupling = device();
  Circuit c = angle_encoder(4, 4);
  c.append(build_paper_ansatz(4, 1));
  Rng rng(101);
  std::vector<double> theta(static_cast<std::size_t>(c.num_trainable()));
  for (double& t : theta) t = rng.uniform(-kPi, kPi);
  const std::vector<double> x{0.4, 1.1, 2.3, 0.9};

  StateVector logical(4);
  logical.run(c, theta, x);
  const auto logical_probs = logical.probabilities();

  const RoutedCircuit routed = route_circuit(c, coupling, trivial_layout(4));
  const PhysicalCircuit phys = lower_to_basis(routed, theta);
  const auto phys_probs = run_physical_pure(phys, x).probabilities();

  std::vector<double> mapped(16, 0.0);
  for (std::size_t i = 0; i < phys_probs.size(); ++i) {
    std::size_t li = 0;
    for (int l = 0; l < 4; ++l) {
      if (i & (std::size_t{1} << routed.final_mapping[static_cast<std::size_t>(l)])) {
        li |= std::size_t{1} << l;
      }
    }
    mapped[li] += phys_probs[i];
  }
  for (std::size_t b = 0; b < 16; ++b) {
    EXPECT_NEAR(mapped[b], logical_probs[b], 1e-8);
  }
}

TEST_P(DeviceSweep, NoiseAwareLayoutIsValid) {
  const CouplingMap coupling = device();
  Circuit c = build_paper_ansatz(4, 1);
  Calibration cal(coupling.num_qubits(), coupling.edges());
  Rng rng(7);
  for (const auto& [a, b] : cal.edges()) {
    cal.set_cx_error(a, b, rng.uniform(0.001, 0.05));
  }
  const Layout layout = noise_aware_layout(c, {0, 1}, coupling, cal);
  ASSERT_EQ(layout.size(), 4u);
  std::vector<bool> used(static_cast<std::size_t>(coupling.num_qubits()), false);
  for (int p : layout) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, coupling.num_qubits());
    EXPECT_FALSE(used[static_cast<std::size_t>(p)]) << "duplicate physical qubit";
    used[static_cast<std::size_t>(p)] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDevices, DeviceSweep,
                         ::testing::Values("belem", "jakarta", "line5",
                                           "ring5", "full5"),
                         [](const auto& info) { return std::string(info.param); });

// --- compression-table properties -------------------------------------------

TEST(CompressionTableProperty, CustomLevelsRespected) {
  const CompressionTable table({kPi / 4.0, 3.0 * kPi / 4.0});
  const auto n = table.nearest(0.7);
  EXPECT_NEAR(n.level, kPi / 4.0, 1e-12);
  const auto m = table.nearest(2.5);
  EXPECT_NEAR(m.level, 3.0 * kPi / 4.0, 1e-12);
}

TEST(CompressionTableProperty, SnappedAnglesAreFixedPoints) {
  const CompressionTable table;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double theta = rng.uniform(-10.0, 10.0);
    const auto first = table.nearest(theta);
    const auto second = table.nearest(first.level);
    EXPECT_NEAR(second.distance, 0.0, 1e-9);
    EXPECT_NEAR(second.level, first.level, 1e-9);
  }
}

TEST(CompressionTableProperty, PeriodicityIn2Pi) {
  const CompressionTable table;
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const double theta = rng.uniform(0.0, 2.0 * kPi);
    const auto base = table.nearest(theta);
    const auto shifted = table.nearest(theta + 2.0 * kPi);
    EXPECT_NEAR(base.distance, shifted.distance, 1e-9);
    EXPECT_NEAR(shifted.level - base.level, 2.0 * kPi, 1e-9);
  }
}

// --- adjoint gradients on the full paper model across devices ---------------

TEST(AdjointProperty, PaperModelGradientsMatchShiftRule) {
  Circuit c = angle_encoder(4, 16);
  c.append(build_paper_ansatz(4, 1));
  Rng rng(13);
  std::vector<double> theta(static_cast<std::size_t>(c.num_trainable()));
  for (double& t : theta) t = rng.uniform(-kPi, kPi);
  std::vector<double> x(16);
  for (double& v : x) v = rng.uniform(0.0, kPi);
  const std::vector<double> weights{0.5, -1.0, 0.25, 0.75};

  const auto adj = adjoint_gradient(c, theta, x, weights);
  const auto shift = parameter_shift_gradient(c, theta, x, weights);
  for (std::size_t i = 0; i < shift.size(); ++i) {
    EXPECT_NEAR(adj.gradients[i], shift[i], 1e-8) << "param " << i;
  }
}

// --- noise model invariants over random calibrations ------------------------

TEST(NoiseModelProperty, ChannelsAlwaysCptp) {
  const CalibrationHistory h(FluctuationScenario::belem(), 60, 31);
  for (int d = 0; d < 60; d += 7) {
    const NoiseModel nm(h.day(d));
    for (int q = 0; q < 5; ++q) {
      EXPECT_TRUE(nm.pulse_noise(q).thermal.is_cptp(1e-8)) << "day " << d;
    }
    for (const auto& [a, b] : h.day(d).edges()) {
      EXPECT_TRUE(nm.cx_noise(a, b).thermal_first.is_cptp(1e-8));
      EXPECT_TRUE(nm.cx_noise(a, b).thermal_second.is_cptp(1e-8));
    }
  }
}

// --- k-means invariants -----------------------------------------------------

TEST(KMeansProperty, RestartsNeverWorsenObjective) {
  Rng rng(17);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 60; ++i) {
    data.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  }
  const std::vector<double> w{1.0, 1.0};
  KMeansOptions one;
  one.k = 4;
  one.restarts = 1;
  KMeansOptions many = one;
  many.restarts = 6;
  const double obj_one = weighted_kmeans(data, w, one).objective;
  const double obj_many = weighted_kmeans(data, w, many).objective;
  EXPECT_LE(obj_many, obj_one + 1e-9);
}

TEST(KMeansProperty, AssignmentMinimizesDistanceToOwnCentroid) {
  Rng rng(19);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 50; ++i) {
    data.push_back({rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)});
  }
  const std::vector<double> w{1.0, 2.0, 0.5};
  KMeansOptions options;
  options.k = 4;
  const KMeansResult result = weighted_kmeans(data, w, options);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double own = weighted_l1(
        data[i], result.centroids[static_cast<std::size_t>(result.assignment[i])], w);
    for (const auto& centroid : result.centroids) {
      EXPECT_LE(own, weighted_l1(data[i], centroid, w) + 1e-9);
    }
  }
}

// --- ansatz scaling ----------------------------------------------------------

class AnsatzSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AnsatzSweep, ParameterCountAndArity) {
  const auto [qubits, repeats] = GetParam();
  const Circuit c = build_paper_ansatz(qubits, repeats);
  EXPECT_EQ(c.num_trainable(), paper_ansatz_params(qubits, repeats));
  EXPECT_EQ(c.size(), static_cast<std::size_t>(10 * qubits * repeats));
  // Every parameter appears exactly once.
  for (int p = 0; p < c.num_trainable(); ++p) {
    EXPECT_EQ(c.gates_for_trainable(p).size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, AnsatzSweep,
                         ::testing::Values(std::pair{2, 1}, std::pair{3, 2},
                                           std::pair{4, 2}, std::pair{4, 3},
                                           std::pair{5, 1}),
                         [](const auto& info) {
                           std::string name = "q";
                           name += std::to_string(info.param.first);
                           name += "_r";
                           name += std::to_string(info.param.second);
                           return name;
                         });

// --- thread pool invariants --------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 503;  // prime, not a multiple of the pool
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::size_t i) {
                          if (i == 17) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must survive a throwing batch and stay usable.
  std::atomic<int> count{0};
  pool.parallel_for(32, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ParallelForStressManyBatches) {
  // Many short batches: each parallel_for's completion state lives in its
  // caller's frame, so a worker touching it after the caller has returned
  // shows up here (as a crash, or under ASan's detect_stack_use_after_return
  // and TSan) within a few thousand rounds.
  ThreadPool pool(4);
  for (int round = 0; round < 100000; ++round) {
    std::atomic<long> sum{0};
    const std::size_t count = 1 + static_cast<std::size_t>(round) * 7 % 97;
    pool.parallel_for(count,
                      [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
    const long expected =
        static_cast<long>(count) * static_cast<long>(count - 1) / 2;
    ASSERT_EQ(sum.load(), expected) << "round " << round;
  }
}

// --- parallel-vs-serial equivalence of noisy evaluation ----------------------

TEST(NoisyEvaluate, PoolSizeDoesNotChangePredictions) {
  const CalibrationHistory h(FluctuationScenario::belem(), 5, 11);
  const QnnModel model = build_paper_model(4, 4, 2, 2);
  const std::vector<double> theta = init_params(model, 3);
  const TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits, CouplingMap::belem(), &h.day(0));

  Rng rng(5);
  Dataset data;
  data.num_classes = 2;
  data.name = "synthetic";
  for (int i = 0; i < 24; ++i) {
    std::vector<double> x(4);
    for (double& v : x) v = rng.uniform(0.0, kPi);
    data.features.push_back(std::move(x));
    data.labels.push_back(rng.integer(0, 1));
  }

  ThreadPool serial(1);
  ThreadPool parallel(4);
  NoisyEvalOptions serial_opts;
  serial_opts.pool = &serial;
  NoisyEvalOptions parallel_opts;
  parallel_opts.pool = &parallel;

  const NoisyEvalResult a =
      noisy_evaluate(model, transpiled, theta, data, h.day(1), serial_opts);
  const NoisyEvalResult b =
      noisy_evaluate(model, transpiled, theta, data, h.day(1), parallel_opts);

  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << "sample " << i;
  }

  // Density shot sampling must also be pool-invariant (per-sample seeds).
  serial_opts.backend.shots = 256;
  parallel_opts.backend.shots = 256;
  const NoisyEvalResult sa =
      noisy_evaluate(model, transpiled, theta, data, h.day(1), serial_opts);
  const NoisyEvalResult sb =
      noisy_evaluate(model, transpiled, theta, data, h.day(1), parallel_opts);
  EXPECT_EQ(sa.predictions, sb.predictions);
}

}  // namespace
}  // namespace qucad
