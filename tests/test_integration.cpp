// End-to-end integration tests: the full QuCAD loop on a rigged noise
// history where the expected qualitative outcomes are known by construction.

#include <gtest/gtest.h>

#include "core/qucad.hpp"
#include "core/strategies.hpp"
#include "data/iris_synth.hpp"
#include "data/mnist_synth.hpp"
#include "data/seismic_synth.hpp"
#include "eval/harness.hpp"
#include "noise/calibration_history.hpp"

namespace qucad {
namespace {

PipelineConfig fast_config() {
  // Smaller data and pretraining for test speed, but production-quality
  // compression settings (weak compression would invalidate the outcomes
  // these tests assert).
  PipelineConfig config;
  config.pretrain.epochs = 8;
  config.max_train_samples = 96;
  config.max_test_samples = 48;
  config.profile_samples = 24;
  config.nat.epochs = 2;
  config.constructor_options.admm = config.admm;
  config.constructor_options.kmeans.k = 3;
  config.constructor_options.profile_samples = 24;
  config.manager_options.admm = config.admm;
  return config;
}

TEST(Integration, CompressionRecoversAccuracyOnHotDay) {
  const CalibrationHistory h(FluctuationScenario::belem(),
                             CalibrationHistory::kTotalDays, 2021);
  const Environment env = prepare_environment(
      make_seismic(400, 11), CouplingMap::belem(), h.day(250), fast_config());

  const Calibration& hot = h.day(310);  // edge <1,2> episode peak
  const double before = noisy_accuracy(env.model, env.transpiled,
                                       env.theta_pretrained, env.test, hot);
  const AdmmOptions admm;  // production defaults
  const CompressedModel compressed = admm_compress(
      env.model, env.transpiled, env.theta_pretrained, env.train, hot, admm);
  const double after = noisy_accuracy(env.model, env.transpiled,
                                      compressed.theta, env.test, hot);
  EXPECT_GE(after, before - 0.02);  // compression must not hurt
  EXPECT_LT(compressed.cx_after, compressed.cx_before);
}

TEST(Integration, QuCadBeatsBaselineOverEpisodeWindow) {
  const CalibrationHistory h(FluctuationScenario::belem(),
                             CalibrationHistory::kTotalDays, 2021);
  const Environment env = prepare_environment(
      make_seismic(400, 11), CouplingMap::belem(), h.day(0), fast_config());

  // Online window straddling the global surge and the <1,2> episode,
  // evaluated every 4th day for speed.
  const auto offline = h.slice(0, 80);
  const auto online = h.slice(260, 60);

  BaselineStrategy baseline(env);
  QuCadStrategy qucad(env);
  HarnessOptions options;
  options.day_stride = 4;
  const MethodResult base_result =
      run_longitudinal(baseline, env, offline, {online}, options).front();
  const MethodResult qucad_result =
      run_longitudinal(qucad, env, offline, {online}, options).front();

  EXPECT_GE(qucad_result.metrics.mean_accuracy,
            base_result.metrics.mean_accuracy - 0.02);
}

TEST(Integration, RepositoryReducesOnlineOptimizations) {
  const CalibrationHistory h(FluctuationScenario::belem(),
                             CalibrationHistory::kTotalDays, 2021);
  const Environment env = prepare_environment(
      make_seismic(400, 11), CouplingMap::belem(), h.day(0), fast_config());

  const auto offline = h.slice(0, 80);
  const auto online = h.slice(243, 40);

  QuCadStrategy qucad(env);
  CompressionEverydayStrategy everyday(env, CompressionMode::NoiseAware);
  HarnessOptions options;
  options.day_stride = 2;
  run_longitudinal(qucad, env, offline, {online}, options);
  run_longitudinal(everyday, env, {}, {online}, options);

  // The repository must cut the number of online optimizations hard
  // (paper: ~146x fewer).
  EXPECT_LT(qucad.optimizations(), everyday.optimizations() / 2);
  EXPECT_LT(qucad.online_optimize_seconds(),
            everyday.online_optimize_seconds());
}

TEST(Integration, IrisThreeClassPipelineRuns) {
  const CalibrationHistory h(FluctuationScenario::belem(), 30, 7);
  PipelineConfig config = fast_config();
  config.ansatz_repeats = 3;  // paper's Iris setting
  config.test_fraction = 0.334;
  const Environment env = prepare_environment(make_iris(150, 7),
                                              CouplingMap::belem(), h.day(0),
                                              config);
  EXPECT_EQ(env.model.num_params(), 120);
  const double acc = noisy_accuracy(env.model, env.transpiled,
                                    env.theta_pretrained, env.test, h.day(5));
  EXPECT_GT(acc, 0.3);  // must beat chance on 3 classes
}

TEST(Integration, Mnist4SixteenPixelPipelineRuns) {
  const CalibrationHistory h(FluctuationScenario::belem(), 30, 7);
  PipelineConfig config = fast_config();
  config.max_train_samples = 64;
  config.max_test_samples = 32;
  const Environment env = prepare_environment(make_mnist4(300, 3),
                                              CouplingMap::belem(), h.day(0),
                                              config);
  EXPECT_EQ(env.model.num_inputs(), 16);
  const double acc = noisy_accuracy(env.model, env.transpiled,
                                    env.theta_pretrained, env.test, h.day(5));
  EXPECT_GT(acc, 0.25);  // beats 4-class chance
}

TEST(Integration, JakartaSevenQubitPipelineRuns) {
  const CalibrationHistory h(FluctuationScenario::jakarta(), 30, 99);
  const Environment env = prepare_environment(
      make_seismic(300, 11), CouplingMap::jakarta(), h.day(0), fast_config());
  EXPECT_EQ(env.transpiled.num_physical_qubits(), 7);
  const double acc = noisy_accuracy(env.model, env.transpiled,
                                    env.theta_pretrained, env.test, h.day(5));
  EXPECT_GT(acc, 0.4);
}

}  // namespace
}  // namespace qucad
