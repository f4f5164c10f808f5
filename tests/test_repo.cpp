#include <gtest/gtest.h>

#include <cmath>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "data/seismic_synth.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/trainer.hpp"
#include "repo/constructor.hpp"
#include "repo/kmeans.hpp"
#include "repo/manager.hpp"
#include "repo/weights.hpp"

namespace qucad {
namespace {

TEST(Weights, CorrelatedDimensionGetsHighWeight) {
  // dim 0 drives accuracy, dim 1 is pure noise.
  Rng rng(5);
  std::vector<std::vector<double>> features;
  std::vector<double> acc;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    features.push_back({x, rng.uniform(0.0, 1.0)});
    acc.push_back(1.0 - 0.8 * x + rng.normal(0.0, 0.02));
  }
  const auto w = performance_weights(features, acc);
  EXPECT_GT(w[0], 0.9);
  EXPECT_LT(w[1], 0.3);
}

TEST(Weights, WeightedL1Distance) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{3.0, 1.0};
  const std::vector<double> w{0.5, 2.0};
  EXPECT_DOUBLE_EQ(weighted_l1(a, b, w), 0.5 * 2.0 + 2.0 * 1.0);
  EXPECT_DOUBLE_EQ(euclidean(a, b), std::sqrt(5.0));
  EXPECT_THROW(weighted_l1(a, {1.0}, w), PreconditionError);
}

std::vector<std::vector<double>> three_blobs(int per_blob, Rng& rng) {
  std::vector<std::vector<double>> data;
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per_blob; ++i) {
      data.push_back({centers[c][0] + rng.normal(0, 0.5),
                      centers[c][1] + rng.normal(0, 0.5)});
    }
  }
  return data;
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  Rng rng(7);
  const auto data = three_blobs(30, rng);
  const std::vector<double> w{1.0, 1.0};
  KMeansOptions options;
  options.k = 3;
  const KMeansResult result = weighted_kmeans(data, w, options);
  ASSERT_EQ(result.centroids.size(), 3u);
  // Every blob must map to a single cluster.
  for (int blob = 0; blob < 3; ++blob) {
    const int label = result.assignment[static_cast<std::size_t>(blob * 30)];
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(result.assignment[static_cast<std::size_t>(blob * 30 + i)], label);
    }
  }
  // Intra-cluster distances are small relative to blob separation.
  for (double d : result.intra_mean_distance) EXPECT_LT(d, 2.0);
}

TEST(KMeans, L2MetricAlsoRecoversBlobs) {
  Rng rng(9);
  const auto data = three_blobs(25, rng);
  KMeansOptions options;
  options.k = 3;
  options.metric = ClusterMetric::L2;
  const KMeansResult result = weighted_kmeans(data, {1.0, 1.0}, options);
  std::vector<std::size_t> sizes = result.cluster_sizes;
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{25, 25, 25}));
}

TEST(KMeans, WeightsShapeClustering) {
  // Two groups differ only in dim 1; with weight 0 on dim 1 they are
  // indistinguishable, with high weight they separate.
  Rng rng(11);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 40; ++i) {
    data.push_back({rng.normal(0, 0.1), (i < 20 ? 0.0 : 5.0) + rng.normal(0, 0.1)});
  }
  KMeansOptions options;
  options.k = 2;
  const KMeansResult with_weight =
      weighted_kmeans(data, {1.0, 10.0}, options);
  int crossings = 0;
  for (int i = 0; i < 20; ++i) {
    if (with_weight.assignment[static_cast<std::size_t>(i)] !=
        with_weight.assignment[0]) {
      ++crossings;
    }
  }
  EXPECT_EQ(crossings, 0);
  EXPECT_NE(with_weight.assignment[0], with_weight.assignment[25]);
}

TEST(KMeans, DeterministicPerSeed) {
  Rng rng(13);
  const auto data = three_blobs(20, rng);
  KMeansOptions options;
  options.k = 3;
  options.seed = 42;
  const auto a = weighted_kmeans(data, {1.0, 1.0}, options);
  const auto b = weighted_kmeans(data, {1.0, 1.0}, options);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.centroids, b.centroids);
}

TEST(KMeans, KLargerThanDataClamps) {
  const std::vector<std::vector<double>> data{{0.0}, {1.0}};
  KMeansOptions options;
  options.k = 6;
  const auto result = weighted_kmeans(data, {1.0}, options);
  EXPECT_LE(result.centroids.size(), 2u);
}

TEST(KMeans, MedianCentroidUnderL1) {
  // With an outlier, the L1 centroid (median) resists the pull.
  std::vector<std::vector<double>> data{{0.0}, {0.1}, {0.2}, {100.0}};
  KMeansOptions options;
  options.k = 1;
  const auto result = weighted_kmeans(data, {1.0}, options);
  EXPECT_LT(result.centroids[0][0], 1.0);  // median ~0.15, mean would be 25
}

TEST(Repository, BestMatchUsesWeightedL1) {
  ModelRepository repo;
  repo.set_weights({1.0, 0.0});  // dim 1 ignored
  RepoEntry e1;
  e1.centroid = {0.0, 100.0};
  e1.theta = {1.0};
  RepoEntry e2;
  e2.centroid = {5.0, 0.0};
  e2.theta = {2.0};
  repo.add(e1);
  repo.add(e2);

  const auto match = repo.best_match({0.5, -50.0});
  EXPECT_EQ(match.index, 0);  // dim 1 difference is weighted out
  EXPECT_NEAR(match.distance, 0.5, 1e-12);
}

TEST(Repository, EmptyMatchReturnsMinusOne) {
  ModelRepository repo;
  EXPECT_EQ(repo.best_match({1.0}).index, -1);
  EXPECT_TRUE(repo.empty());
}

TEST(Repository, MismatchedCentroidRejected) {
  ModelRepository repo;
  RepoEntry e;
  e.centroid = {1.0, 2.0};
  repo.add(e);
  RepoEntry bad;
  bad.centroid = {1.0};
  EXPECT_THROW(repo.add(bad), PreconditionError);
}

// --- constructor + manager on a small but real pipeline ---------------------

struct RepoFixture {
  QnnModel model;
  TranspiledModel transpiled;
  std::vector<double> theta;
  Dataset train;
  CalibrationHistory history{FluctuationScenario::belem(), 120, 77};

  RepoFixture() {
    Dataset raw = make_seismic(96, 5);
    train = FeatureScaler::fit(raw).transform(raw);
    model = build_paper_model(4, 4, 2, 1);
    theta = init_params(model, 7);
    TrainConfig config;
    config.epochs = 6;
    train_model(model, theta, train, config);
    transpiled = transpile_model(model.circuit, model.readout_qubits,
                                 CouplingMap::belem(), &history.day(0));
  }

  ConstructorOptions fast_constructor_options() const {
    ConstructorOptions options;
    options.kmeans.k = 3;
    options.admm.iterations = 2;
    options.admm.epochs_per_iteration = 1;
    options.admm.finetune_epochs = 0;
    options.profile_samples = 24;
    return options;
  }
};

TEST(Constructor, BuildsRepositoryWithKEntries) {
  RepoFixture fx;
  const auto offline = fx.history.slice(0, 60);
  const OfflineBuild build =
      build_repository(fx.model, fx.transpiled, fx.theta, offline, fx.train,
                       fx.train.take(24), fx.fast_constructor_options());
  EXPECT_EQ(build.repository.size(), 3u);
  EXPECT_GT(build.repository.threshold(), 0.0);
  EXPECT_EQ(build.diagnostics.day_accuracy.size(), 60u);
  EXPECT_EQ(build.diagnostics.weights.size(),
            fx.history.day(0).feature_vector().size());
  for (const RepoEntry& e : build.repository.entries()) {
    EXPECT_EQ(e.theta.size(), fx.theta.size());
    EXPECT_GE(e.mean_cluster_accuracy, 0.0);
  }
}

TEST(Manager, ReusesWhenCalibrationMatches) {
  RepoFixture fx;
  const auto offline = fx.history.slice(0, 60);
  OfflineBuild build =
      build_repository(fx.model, fx.transpiled, fx.theta, offline, fx.train,
                       fx.train.take(24), fx.fast_constructor_options());

  ManagerOptions options;
  options.admm = fx.fast_constructor_options().admm;
  OnlineManager manager(fx.model, fx.transpiled, fx.theta, fx.train,
                        std::move(build.repository), options);
  // A day from the offline window should match an existing centroid.
  const auto decision = manager.process_day(fx.history.day(30));
  EXPECT_EQ(decision.action, OnlineManager::Decision::Action::Reuse);
  EXPECT_GE(decision.entry_index, 0);
  EXPECT_EQ(manager.optimizations_run(), 0);
  EXPECT_EQ(manager.reuses(), 1);
  const StatusOr<std::span<const double>> theta =
      manager.theta_for_decision(decision);
  ASSERT_TRUE(theta.ok());
  EXPECT_FALSE(theta->empty());
}

TEST(Manager, CompressesOnOutlierCalibration) {
  RepoFixture fx;
  const auto offline = fx.history.slice(0, 40);
  OfflineBuild build =
      build_repository(fx.model, fx.transpiled, fx.theta, offline, fx.train,
                       fx.train.take(24), fx.fast_constructor_options());

  ManagerOptions options;
  options.admm = fx.fast_constructor_options().admm;
  OnlineManager manager(fx.model, fx.transpiled, fx.theta, fx.train,
                        std::move(build.repository), options);
  // Craft an absurd calibration far outside anything seen offline.
  Calibration outlier(5, CouplingMap::belem().edges());
  for (const auto& [a, b] : outlier.edges()) outlier.set_cx_error(a, b, 0.24);
  for (int q = 0; q < 5; ++q) outlier.set_readout(q, {0.18, 0.2});
  const std::size_t before = manager.repository().size();
  const auto decision = manager.process_day(outlier);
  EXPECT_EQ(decision.action, OnlineManager::Decision::Action::NewModel);
  EXPECT_EQ(manager.repository().size(), before + 1);
  EXPECT_EQ(manager.optimizations_run(), 1);
  EXPECT_GT(decision.optimize_seconds, 0.0);
}

TEST(Manager, FailureReportOnInvalidCluster) {
  RepoFixture fx;
  ModelRepository repo;
  repo.set_weights(std::vector<double>(
      fx.history.day(0).feature_vector().size(), 1.0));
  RepoEntry weak;
  weak.centroid = fx.history.day(10).feature_vector();
  weak.theta = fx.theta;
  weak.mean_cluster_accuracy = 0.2;
  weak.valid = false;
  repo.add(weak);
  repo.set_threshold(1e9);  // everything matches

  ManagerOptions options;
  OnlineManager manager(fx.model, fx.transpiled, fx.theta, fx.train,
                        std::move(repo), options);
  const auto decision = manager.process_day(fx.history.day(11));
  EXPECT_EQ(decision.action, OnlineManager::Decision::Action::Failure);
}

TEST(Manager, ThetaForDecisionSurfacesFailureAsStatus) {
  RepoFixture fx;
  ModelRepository repo;
  repo.set_weights(std::vector<double>(
      fx.history.day(0).feature_vector().size(), 1.0));
  RepoEntry good;
  good.centroid = fx.history.day(10).feature_vector();
  good.theta = fx.theta;
  repo.add(good);
  RepoEntry weak = good;
  weak.theta[0] += 1.0;
  weak.valid = false;
  repo.add(weak);
  repo.set_threshold(1e9);

  OnlineManager manager(fx.model, fx.transpiled, fx.theta, fx.train,
                        std::move(repo), ManagerOptions{});

  // A reuse decision resolves to the stored parameters.
  OnlineManager::Decision reuse;
  reuse.action = OnlineManager::Decision::Action::Reuse;
  reuse.entry_index = 0;
  const StatusOr<std::span<const double>> ok =
      manager.theta_for_decision(reuse);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(std::vector<double>(ok->begin(), ok->end()), fx.theta);

  // Guidance-2 failure: kUnavailable, the caller must opt into the weak
  // model explicitly instead of getting it silently.
  OnlineManager::Decision failure;
  failure.action = OnlineManager::Decision::Action::Failure;
  failure.entry_index = 1;
  const StatusOr<std::span<const double>> unavailable =
      manager.theta_for_decision(failure);
  ASSERT_FALSE(unavailable.ok());
  EXPECT_EQ(unavailable.status().code(), StatusCode::kUnavailable);
  // The documented fallback still reaches the entry.
  EXPECT_FALSE(manager.repository().entry(failure.entry_index).theta.empty());

  // A decision that references nothing: kInvalidArgument.
  const OnlineManager::Decision empty;
  EXPECT_EQ(manager.theta_for_decision(empty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Manager, OwnsItsStateByValue) {
  RepoFixture fx;
  ManagerOptions options;
  options.admm = fx.fast_constructor_options().admm;
  // Build the manager from scope-local copies that die immediately — the
  // manager must keep working because it copies, not references (the
  // pre-serving-layer dangling footgun, caught by ASan if regressed).
  auto make_manager = [&] {
    const QnnModel model_copy = fx.model;
    const TranspiledModel transpiled_copy = fx.transpiled;
    const Dataset train_copy = fx.train;
    const std::vector<double> theta_copy = fx.theta;
    return OnlineManager(model_copy, transpiled_copy, theta_copy, train_copy,
                         ModelRepository{}, options);
  };
  OnlineManager manager = make_manager();
  const auto decision = manager.process_day(fx.history.day(0));
  EXPECT_EQ(decision.action, OnlineManager::Decision::Action::NewModel);
  ASSERT_TRUE(manager.theta_for_decision(decision).ok());
}

TEST(Manager, BootstrapModeStartsWithCompression) {
  RepoFixture fx;
  ManagerOptions options;
  options.admm = fx.fast_constructor_options().admm;
  OnlineManager manager(fx.model, fx.transpiled, fx.theta, fx.train,
                        ModelRepository{}, options);
  const auto first = manager.process_day(fx.history.day(0));
  EXPECT_EQ(first.action, OnlineManager::Decision::Action::NewModel);
  // Similar next day should reuse.
  const auto second = manager.process_day(fx.history.day(1));
  EXPECT_EQ(second.action, OnlineManager::Decision::Action::Reuse);
}

}  // namespace
}  // namespace qucad
