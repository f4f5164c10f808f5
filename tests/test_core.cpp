#include <gtest/gtest.h>

#include <sstream>

#include "common/require.hpp"
#include "core/qucad.hpp"
#include "core/strategies.hpp"
#include "data/seismic_synth.hpp"
#include "eval/harness.hpp"
#include "eval/metrics.hpp"
#include "noise/calibration_history.hpp"

namespace qucad {
namespace {

// A small shared environment: seismic task on belem with light training so
// the whole file runs in seconds.
const Environment& test_env() {
  static const Environment env = [] {
    PipelineConfig config;
    config.pretrain.epochs = 8;
    config.max_train_samples = 96;
    config.max_test_samples = 48;
    config.profile_samples = 24;
    config.admm.iterations = 2;
    config.admm.epochs_per_iteration = 1;
    config.admm.finetune_epochs = 0;
    config.nat.epochs = 1;
    config.constructor_options.admm = config.admm;
    config.constructor_options.kmeans.k = 3;
    config.constructor_options.profile_samples = 24;
    config.manager_options.admm = config.admm;
    const CalibrationHistory h(FluctuationScenario::belem(), 10, 2021);
    return prepare_environment(make_seismic(400, 11), CouplingMap::belem(),
                               h.day(0), config);
  }();
  return env;
}

TEST(Environment, PreparesConsistentPieces) {
  const Environment& env = test_env();
  EXPECT_EQ(env.model.num_params(), 80);
  EXPECT_EQ(env.theta_pretrained.size(), 80u);
  EXPECT_EQ(env.train.size(), 96u);
  EXPECT_EQ(env.test.size(), 40u);  // 10% of 400
  EXPECT_EQ(env.transpiled.num_physical_qubits(), 5);
  EXPECT_EQ(env.transpiled.associations.size(), 80u);
  // Pretraining should beat chance on the training data.
  EXPECT_GT(noise_free_accuracy(env.model, env.theta_pretrained, env.train),
            0.6);
}

TEST(Strategies, BaselineReturnsPretrainedEveryDay) {
  const Environment& env = test_env();
  BaselineStrategy baseline(env);
  const CalibrationHistory h(FluctuationScenario::belem(), 20, 3);
  const auto day0 = baseline.online_day(0, h.day(0));
  const auto day5 = baseline.online_day(5, h.day(5));
  EXPECT_EQ(day0.data(), env.theta_pretrained.data());
  EXPECT_EQ(day5.data(), env.theta_pretrained.data());
  EXPECT_EQ(baseline.optimizations(), 0);
  EXPECT_DOUBLE_EQ(baseline.online_optimize_seconds(), 0.0);
}

TEST(Strategies, NatOnceTrainsExactlyOnce) {
  const Environment& env = test_env();
  NoiseAwareTrainOnceStrategy nat(env);
  const CalibrationHistory h(FluctuationScenario::belem(), 20, 3);
  nat.online_day(0, h.day(0));
  const double t_after_first = nat.online_optimize_seconds();
  EXPECT_GT(t_after_first, 0.0);
  EXPECT_EQ(nat.optimizations(), 1);
  nat.online_day(1, h.day(1));
  EXPECT_DOUBLE_EQ(nat.online_optimize_seconds(), t_after_first);
  EXPECT_EQ(nat.optimizations(), 1);
}

TEST(Strategies, NatEverydayTrainsEveryDay) {
  const Environment& env = test_env();
  NoiseAwareTrainEverydayStrategy nat(env);
  const CalibrationHistory h(FluctuationScenario::belem(), 20, 3);
  nat.online_day(0, h.day(0));
  nat.online_day(1, h.day(1));
  nat.online_day(2, h.day(2));
  EXPECT_EQ(nat.optimizations(), 3);
}

TEST(Strategies, OneTimeCompressionChangesParameters) {
  const Environment& env = test_env();
  OneTimeCompressionStrategy otc(env);
  const CalibrationHistory h(FluctuationScenario::belem(), 20, 3);
  const auto theta = otc.online_day(0, h.day(0));
  EXPECT_EQ(otc.optimizations(), 1);
  bool differs = false;
  for (std::size_t i = 0; i < theta.size(); ++i) {
    if (theta[i] != env.theta_pretrained[i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Strategies, CompressionEverydayNames) {
  const Environment& env = test_env();
  CompressionEverydayStrategy aware(env, CompressionMode::NoiseAware);
  CompressionEverydayStrategy agnostic(env, CompressionMode::NoiseAgnostic);
  EXPECT_NE(aware.name(), agnostic.name());
}

TEST(Strategies, QuCadWithoutOfflineReusesAfterFirstDay) {
  const Environment& env = test_env();
  QuCadWithoutOfflineStrategy strategy(env);
  const CalibrationHistory h(FluctuationScenario::belem(), 30, 3);
  strategy.online_day(0, h.day(0));
  EXPECT_EQ(strategy.optimizations(), 1);
  EXPECT_EQ(strategy.last_decision().action,
            OnlineManager::Decision::Action::NewModel);
  strategy.online_day(1, h.day(1));  // quiet adjacent day: reuse expected
  EXPECT_EQ(strategy.optimizations(), 1);
  EXPECT_EQ(strategy.manager().reuses(), 1);
  EXPECT_EQ(strategy.last_decision().action,
            OnlineManager::Decision::Action::Reuse);
}

TEST(Strategies, QuCadOfflineThenOnline) {
  const Environment& env = test_env();
  QuCadStrategy qucad(env);
  const CalibrationHistory h(FluctuationScenario::belem(), 80, 2021);
  qucad.offline(h.slice(0, 50));
  EXPECT_GT(qucad.offline_optimize_seconds(), 0.0);
  EXPECT_EQ(qucad.manager().repository().size(), 3u);

  // Days near the offline distribution should mostly reuse.
  int optimizations_before = qucad.manager().optimizations_run();
  qucad.online_day(0, h.day(50));
  qucad.online_day(1, h.day(51));
  EXPECT_LE(qucad.manager().optimizations_run(), optimizations_before + 1);
}

TEST(Strategies, QuCadRequiresOfflineBeforeOnline) {
  const Environment& env = test_env();
  QuCadStrategy qucad(env);
  const CalibrationHistory h(FluctuationScenario::belem(), 10, 3);
  EXPECT_THROW(qucad.online_day(0, h.day(0)), PreconditionError);
}

TEST(Harness, LongitudinalRunProducesMetrics) {
  const Environment& env = test_env();
  BaselineStrategy baseline(env);
  const CalibrationHistory h(FluctuationScenario::belem(), 40, 2021);
  const MethodResult result =
      run_longitudinal(baseline, env, {}, {h.slice(20, 10)}).front();
  EXPECT_EQ(result.daily_accuracy.size(), 10u);
  EXPECT_GT(result.metrics.mean_accuracy, 0.0);
  EXPECT_LE(result.metrics.mean_accuracy, 1.0);
  EXPECT_EQ(result.method, "Baseline");
}

// A zero stride used to loop forever and a negative one wrapped through
// size_t to evaluate day 0 alone; both are configuration errors.
TEST(Harness, RejectsNonPositiveDayStride) {
  const Environment& env = test_env();
  BaselineStrategy baseline(env);
  const CalibrationHistory h(FluctuationScenario::belem(), 4, 2021);
  for (const int stride : {0, -1}) {
    HarnessOptions options;
    options.day_stride = stride;
    EXPECT_THROW(run_longitudinal(baseline, env, {}, {h.slice(0, 4)}, options),
                 PreconditionError)
        << "stride " << stride;
    std::ostringstream out;
    EXPECT_THROW(print_accuracy_series(out, MethodResult{}, {}, stride),
                 PreconditionError)
        << "stride " << stride;
  }
}

// A bad backend override used to surface only at the first daily
// evaluation, after the whole offline build had run.
TEST(Harness, RejectsInvalidBackendBeforeOffline) {
  class CountingStrategy : public Strategy {
   public:
    using Strategy::Strategy;
    std::string name() const override { return "Counting"; }
    void offline(const std::vector<Calibration>& history) override {
      (void)history;
      ++offline_calls;
    }
    std::span<const double> online_day(int, const Calibration&) override {
      return env_.theta_pretrained;
    }
    int offline_calls = 0;
  };

  const Environment& env = test_env();
  CountingStrategy strategy(env);
  const CalibrationHistory h(FluctuationScenario::belem(), 4, 2021);
  HarnessOptions options;
  options.backend = BackendConfig().with_kind(BackendKind::kSampled);
  ASSERT_FALSE(options.backend->validate().ok()) << "kSampled at 0 shots";
  EXPECT_THROW(
      run_longitudinal(strategy, env, h.slice(0, 2), {h.slice(2, 2)}, options),
      PreconditionError);
  EXPECT_EQ(strategy.offline_calls, 0);

  // A backend kind with no registered factory is refused up front too.
  options.backend = BackendConfig().with_kind(static_cast<BackendKind>(200));
  ASSERT_TRUE(options.backend->validate().ok());
  EXPECT_THROW(
      run_longitudinal(strategy, env, h.slice(0, 2), {h.slice(2, 2)}, options),
      PreconditionError);
  EXPECT_EQ(strategy.offline_calls, 0);
}

// The decision record is the Sec. III-D step's own output: replaying the
// same days through an OnlineManager built from the same offline history,
// in the loop's order (day by day, and stream by stream within a day),
// reproduces every record's action, entry, distance and threshold.
TEST(Harness, DecisionRecordsReplayTheOnlineManager) {
  const Environment& env = test_env();
  const CalibrationHistory h(FluctuationScenario::belem(), 40, 2021);
  const CalibrationHistory other(FluctuationScenario::belem(), 40, 77);
  const std::vector<Calibration> offline = h.slice(0, 8);
  const std::vector<std::vector<Calibration>> streams{h.slice(20, 4),
                                                      other.slice(20, 4)};
  QuCadStrategy qucad(env);
  const std::vector<MethodResult> results =
      run_longitudinal(qucad, env, offline, streams);
  ASSERT_EQ(results.size(), streams.size());

  OfflineBuild build = build_repository(
      env.model, env.transpiled, env.theta_pretrained, offline, env.train,
      env.profile, env.constructor_options);
  OnlineManager manager(env.model, env.transpiled, env.theta_pretrained,
                        env.train, std::move(build.repository),
                        env.manager_options);
  for (std::size_t d = 0; d < 4; ++d) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const OnlineManager::Decision want = manager.process_day(streams[s][d]);
      ASSERT_EQ(results[s].days.size(), 4u);
      const DayRecord& got = results[s].days[d];
      ASSERT_TRUE(got.decision.has_value()) << "stream " << s << " day " << d;
      EXPECT_EQ(got.day, static_cast<int>(d));
      EXPECT_EQ(got.decision->action, want.action)
          << "stream " << s << " day " << d;
      EXPECT_EQ(got.decision->entry_index, want.entry_index)
          << "stream " << s << " day " << d;
      EXPECT_EQ(got.decision->distance, want.distance)
          << "stream " << s << " day " << d;
      EXPECT_EQ(got.decision->threshold, want.threshold)
          << "stream " << s << " day " << d;
      EXPECT_EQ(got.accuracy, results[s].daily_accuracy[d]);
    }
  }
  for (const MethodResult& result : results) {
    EXPECT_EQ(result.method, "QuCAD");
    EXPECT_EQ(result.reuses + result.new_models + result.failures, 4);
    EXPECT_EQ(result.optimizations, result.new_models);
  }

  // Strategies without a repository leave the decision empty.
  BaselineStrategy baseline(env);
  const MethodResult base =
      run_longitudinal(baseline, env, {}, {h.slice(20, 2)}).front();
  ASSERT_EQ(base.days.size(), 2u);
  for (const DayRecord& record : base.days) {
    EXPECT_FALSE(record.decision.has_value());
  }
  EXPECT_EQ(base.reuses + base.new_models + base.failures, 0);
}

TEST(Metrics, SummarizeSeries) {
  const std::vector<double> series{0.9, 0.85, 0.6, 0.45, 0.75};
  const SeriesMetrics m = summarize_series(series);
  EXPECT_NEAR(m.mean_accuracy, 0.71, 1e-9);
  EXPECT_EQ(m.days_over_08, 2);
  EXPECT_EQ(m.days_over_07, 3);
  EXPECT_EQ(m.days_over_05, 4);
  EXPECT_GT(m.variance, 0.0);
}

}  // namespace
}  // namespace qucad
