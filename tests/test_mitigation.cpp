#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "mitigation/readout_mitigation.hpp"
#include "mitigation/stability.hpp"
#include "mitigation/zne.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/eval_cache.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {
namespace {

TEST(ReadoutMitigation, InvertsKnownConfusion) {
  // True state |0>, confusion p1|0 = 0.1: measured (0.9, 0.1).
  const std::vector<ReadoutError> errors{{0.1, 0.2}};
  const ReadoutMitigator mitigator(errors);
  const std::vector<double> measured = apply_readout_error({1.0, 0.0}, errors);
  const std::vector<double> recovered = mitigator.apply(measured);
  EXPECT_NEAR(recovered[0], 1.0, 1e-9);
  EXPECT_NEAR(recovered[1], 0.0, 1e-9);
}

TEST(ReadoutMitigation, RoundTripOnTwoQubits) {
  const std::vector<ReadoutError> errors{{0.05, 0.08}, {0.12, 0.03}};
  const ReadoutMitigator mitigator(errors);
  const std::vector<double> truth{0.4, 0.1, 0.3, 0.2};
  const std::vector<double> measured = apply_readout_error(truth, errors);
  const std::vector<double> recovered = mitigator.apply(measured);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(recovered[i], truth[i], 1e-9) << i;
  }
}

TEST(ReadoutMitigation, MitigatedExpectationRecoversZ) {
  const std::vector<ReadoutError> errors{{0.1, 0.1}};
  const ReadoutMitigator mitigator(errors);
  // Truth: 70/30 mix -> <Z> = 0.4; measured <Z> = 0.4 * (1 - 0.2) = 0.32.
  const std::vector<double> measured = apply_readout_error({0.7, 0.3}, errors);
  EXPECT_NEAR(mitigator.mitigated_expectation_z(measured, 0), 0.4, 1e-9);
}

TEST(ReadoutMitigation, ClipsQuasiProbabilities) {
  const std::vector<ReadoutError> errors{{0.2, 0.2}};
  const ReadoutMitigator mitigator(errors);
  // A distribution impossible under the confusion model produces negative
  // quasi-probabilities, which must be clipped back onto the simplex.
  const std::vector<double> impossible{0.02, 0.98};
  const std::vector<double> out = mitigator.apply(impossible);
  double total = 0.0;
  for (double p : out) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zne, ScaledCalibrationMultipliesRates) {
  Calibration cal(2, {{0, 1}});
  cal.set_sx_error(0, 1e-3);
  cal.set_cx_error(0, 1, 0.02);
  cal.set_readout(0, {0.05, 0.04});
  const Calibration scaled = scale_calibration_noise(cal, 3.0);
  EXPECT_NEAR(scaled.sx_error(0), 3e-3, 1e-12);
  EXPECT_NEAR(scaled.cx_error(0, 1), 0.06, 1e-12);
  EXPECT_NEAR(scaled.readout(0).p1_given_0, 0.15, 1e-12);
  // T1/T2 shrink with the factor.
  EXPECT_LT(scaled.t1_us(0), cal.t1_us(0));
}

TEST(Zne, LinearExtrapolationExact) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{0.8, 0.6, 0.4};  // y = 1 - 0.2 x
  EXPECT_NEAR(extrapolate_to_zero(xs, ys), 1.0, 1e-12);
  EXPECT_THROW(extrapolate_to_zero(std::vector<double>{1.0},
                                   std::vector<double>{0.5}),
               PreconditionError);
}

TEST(Zne, RecoversIdealExpectationOnSimpleCircuit) {
  // RY(0.8)|0>: ideal <Z> = cos(0.8). Under depolarizing noise the
  // expectation shrinks ~linearly in the error rate, so ZNE recovers most
  // of the bias.
  Circuit c(2);
  c.ry(0, 0.8).cry(0, 1, 0.5);
  RoutedCircuit routed;
  routed.circuit = c;
  routed.initial_layout = trivial_layout(2);
  routed.final_mapping = routed.initial_layout;
  const PhysicalCircuit phys = lower_to_basis(routed, {});

  Calibration cal(2, {{0, 1}});
  cal.set_sx_error(0, 2e-3);
  cal.set_sx_error(1, 2e-3);
  cal.set_cx_error(0, 1, 0.03);
  cal.set_readout(0, {0.02, 0.02});

  ZneOptions options;
  options.noise.include_thermal_relaxation = false;

  const CompiledExecutor noisy(phys, NoiseModel(cal, options.noise));
  const double z_noisy = noisy.run_z({})[0];
  const double z_zne = zne_expectations(phys, cal, {}, options)[0];
  const double z_ideal = std::cos(0.8);

  EXPECT_LT(std::abs(z_zne - z_ideal), std::abs(z_noisy - z_ideal));
}

TEST(ZneCache, CachedSweepMatchesUncachedAndStopsRecompiling) {
  Circuit c(2);
  c.ry(0, 0.8).cry(0, 1, 0.5);
  RoutedCircuit routed;
  routed.circuit = c;
  routed.initial_layout = trivial_layout(2);
  routed.final_mapping = routed.initial_layout;
  const PhysicalCircuit phys = lower_to_basis(routed, {});

  Calibration cal(2, {{0, 1}});
  cal.set_sx_error(0, 2e-3);
  cal.set_sx_error(1, 2e-3);
  cal.set_cx_error(0, 1, 0.03);
  cal.set_readout(0, {0.02, 0.02});

  ZneOptions cached;
  cached.noise.include_thermal_relaxation = false;

  CompiledEvalCache::global().clear();
  const std::vector<double> first = zne_expectations(phys, cal, {}, cached);
  const EvalCacheStats cold = CompiledEvalCache::global().stats();
  EXPECT_EQ(cold.misses, cached.scale_factors.size())
      << "one compiled executor per scale factor";

  const std::vector<double> second = zne_expectations(phys, cal, {}, cached);
  const EvalCacheStats warm = CompiledEvalCache::global().stats();
  EXPECT_EQ(warm.misses, cold.misses) << "repeat call must not recompile";
  EXPECT_EQ(warm.hits, cold.hits + cached.scale_factors.size());

  // Uncached reference: a fresh executor per scaled calibration, then the
  // same per-slot extrapolation and clamp.
  std::vector<std::vector<double>> z_by_scale;
  for (double factor : cached.scale_factors) {
    const CompiledExecutor executor(
        phys, NoiseModel(scale_calibration_noise(cal, factor), cached.noise));
    z_by_scale.push_back(executor.run_z({}));
  }
  std::vector<double> reference(z_by_scale.front().size());
  for (std::size_t q = 0; q < reference.size(); ++q) {
    std::vector<double> ys;
    for (const std::vector<double>& z : z_by_scale) ys.push_back(z[q]);
    reference[q] =
        std::clamp(extrapolate_to_zero(cached.scale_factors, ys), -1.0, 1.0);
  }
  ASSERT_EQ(first.size(), reference.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "slot " << i;
    EXPECT_EQ(first[i], reference[i])
        << "cached executor must replay the identical program, slot " << i;
  }

  // A different scale factor set keys different executors (the scaled
  // calibration is part of the key), never a stale hit.
  ZneOptions shifted = cached;
  shifted.scale_factors = {1.0, 1.5, 2.0};
  const std::vector<double> other = zne_expectations(phys, cal, {}, shifted);
  const EvalCacheStats after = CompiledEvalCache::global().stats();
  EXPECT_EQ(after.misses, warm.misses + 1)
      << "factors 1.0 and 2.0 were cached by the first sweep; only 1.5 is new";
  EXPECT_NE(other[0], 0.0);
}

TEST(Stability, HellingerBasics) {
  const std::vector<double> p{0.5, 0.5};
  EXPECT_NEAR(hellinger_distance(p, p), 0.0, 1e-12);
  const std::vector<double> q{1.0, 0.0};
  const std::vector<double> r{0.0, 1.0};
  EXPECT_NEAR(hellinger_distance(q, r), 1.0, 1e-12);
  EXPECT_GT(hellinger_distance(p, q), 0.0);
  EXPECT_THROW(hellinger_distance(p, std::vector<double>{1.0}),
               PreconditionError);
}

TEST(Stability, ComputationalAccuracyOrdering) {
  const std::vector<double> ideal{0.7, 0.3};
  const std::vector<double> close{0.65, 0.35};
  const std::vector<double> far{0.2, 0.8};
  EXPECT_GT(computational_accuracy(ideal, close),
            computational_accuracy(ideal, far));
  EXPECT_NEAR(computational_accuracy(ideal, ideal), 1.0, 1e-12);
}

TEST(Stability, ReproducibilitySpreadDetectsDrift) {
  const std::vector<std::vector<double>> stable{
      {0.6, 0.4}, {0.6, 0.4}, {0.6, 0.4}};
  const std::vector<std::vector<double>> drifting{
      {0.9, 0.1}, {0.5, 0.5}, {0.1, 0.9}};
  EXPECT_NEAR(reproducibility_spread(stable), 0.0, 1e-12);
  EXPECT_GT(reproducibility_spread(drifting), 0.2);
}

TEST(Stability, DriftingCalibrationsReduceReproducibility) {
  // Distributions of the same circuit across drifting days are less
  // reproducible than across a frozen calibration.
  const CalibrationHistory h(FluctuationScenario::belem(), 330, 2021);
  Circuit c(2);
  c.ry(0, 1.1).cry(0, 1, 0.7);
  RoutedCircuit routed;
  routed.circuit = c;
  routed.initial_layout = trivial_layout(2);
  routed.final_mapping = routed.initial_layout;
  const PhysicalCircuit phys = lower_to_basis(routed, {});

  std::vector<std::vector<double>> drifting, frozen;
  for (int day : {250, 270, 290, 313, 325}) {
    Calibration small(2, {{0, 1}});
    const Calibration& full = h.day(day);
    small.set_sx_error(0, full.sx_error(0));
    small.set_sx_error(1, full.sx_error(1));
    small.set_cx_error(0, 1, full.cx_error(0, 1));
    small.set_readout(0, full.readout(0));
    small.set_readout(1, full.readout(1));
    drifting.push_back(
        run_density(phys, NoiseModel(small), {}).diagonal_probabilities());
    frozen.push_back(drifting.front());
  }
  EXPECT_GT(reproducibility_spread(drifting),
            reproducibility_spread(frozen));
}

}  // namespace
}  // namespace qucad
