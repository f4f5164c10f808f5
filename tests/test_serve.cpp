// The serving layer's contract tests: config validation, Status-based
// creation, submit/submit_batch equivalence with the research evaluator,
// calibration-event decisions + epoch hot-swap semantics, and — the load-
// bearing one — epoch consistency under concurrent submit/hot-swap traffic
// (every prediction must be bitwise-identical to a sequential evaluation on
// the epoch it names). Test names start with Serve* so the TSan CTest
// preset can select the concurrency surface by name.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "backend/registry.hpp"
#include "common/clock.hpp"
#include "common/thread_pool.hpp"
#include "core/qucad.hpp"
#include "core/strategies.hpp"
#include "data/seismic_synth.hpp"
#include "eval/harness.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/eval_cache.hpp"
#include "qnn/evaluator.hpp"
#include "qnn/trainer.hpp"
#include "serve/admission.hpp"
#include "serve/inference_service.hpp"
#include "serve/result_cache.hpp"
#include "serve/shard.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {
namespace {

/// Small but real serving environment: a trained 4-qubit detector routed on
/// belem, with fast ADMM settings for online-compression days.
struct ServeFixture {
  Environment env;
  CalibrationHistory history{FluctuationScenario::belem(), 120, 77};
  /// An explicit 4-thread pool, so the concurrency tests sweep batches on
  /// several workers even where ThreadPool::global() is inline (1 core).
  ThreadPool pool{4};

  ServeFixture() {
    Dataset raw = make_seismic(96, 5);
    env.train = FeatureScaler::fit(raw).transform(raw);
    env.model = build_paper_model(4, 4, 2, 1);
    env.theta_pretrained = init_params(env.model, 7);
    TrainConfig config;
    config.epochs = 4;
    train_model(env.model, env.theta_pretrained, env.train, config);
    env.transpiled = transpile_model(env.model.circuit, env.model.readout_qubits,
                                     CouplingMap::belem(), &history.day(0));
    env.manager_options.admm.iterations = 2;
    env.manager_options.admm.epochs_per_iteration = 1;
    env.manager_options.admm.finetune_epochs = 0;
    env.admm = env.manager_options.admm;
  }

  /// The environment's service config, batches swept on `pool`.
  ServiceConfig pooled_config() {
    ServiceConfig config = ServiceConfig::from_environment(env);
    config.eval.pool = &pool;
    return config;
  }

  /// A repository of valid entries with distinct parameters, thresholded so
  /// every day matches — calibration events become cheap hot-swaps (no
  /// online compression), which is what the swap-under-load tests want.
  ModelRepository reuse_only_repository(int entries) const {
    ModelRepository repo;
    repo.set_weights(std::vector<double>(
        history.day(0).feature_vector().size(), 1.0));
    for (int i = 0; i < entries; ++i) {
      RepoEntry entry;
      entry.centroid = history.day(10 + 20 * i).feature_vector();
      entry.theta = env.theta_pretrained;
      entry.theta[static_cast<std::size_t>(i) % entry.theta.size()] += 0.1 * (i + 1);
      entry.tag = "fixture-" + std::to_string(i);
      repo.add(std::move(entry));
    }
    repo.set_threshold(1e9);
    return repo;
  }
};

TEST(ServeConfig, ValidateRejectsBadKnobs) {
  EXPECT_TRUE(ServiceConfig().validate().ok());
  EXPECT_EQ(ServiceConfig().with_max_batch_size(0).validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceConfig()
                .with_batch_window(std::chrono::microseconds(-1))
                .validate()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceConfig()
                .with_backend(BackendConfig().with_shots(-5))
                .validate()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeConfig, ValidateRejectsBadShardingKnobs) {
  // A zero-shard service can route nothing; a zero-capacity queue can admit
  // nothing — both are configuration errors, not degenerate modes.
  EXPECT_EQ(ServiceConfig().with_num_shards(0).validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceConfig().with_queue_capacity(0).validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceConfig()
                .with_deadline_budget(std::chrono::microseconds(-1))
                .validate()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceConfig().with_result_cache_quantum(-0.5).validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceConfig()
                .with_result_cache_quantum(
                    std::numeric_limits<double>::quiet_NaN())
                .validate()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeConfig, BuildersSetShardingKnobs) {
  const ServiceConfig config = ServiceConfig()
                                   .with_num_shards(4)
                                   .with_queue_capacity(7)
                                   .with_deadline_budget(
                                       std::chrono::milliseconds(5))
                                   .with_result_cache(16)
                                   .with_result_cache_quantum(0.25);
  EXPECT_EQ(config.num_shards, 4u);
  EXPECT_EQ(config.queue_capacity, 7u);
  EXPECT_EQ(config.deadline_budget, std::chrono::microseconds(5000));
  EXPECT_EQ(config.result_cache_capacity, 16u);
  EXPECT_DOUBLE_EQ(config.result_cache_quantum, 0.25);
  EXPECT_TRUE(config.validate().ok());
}

TEST(ServeConfig, ConsolidatesFromPipelineAndEnvironment) {
  PipelineConfig pipeline;
  pipeline.eval.backend.shots = 128;
  pipeline.manager_options.bootstrap_scale = 2.5;
  const ServiceConfig from_pipeline = ServiceConfig::from_pipeline(pipeline);
  EXPECT_EQ(from_pipeline.eval.backend.shots, 128);
  EXPECT_DOUBLE_EQ(from_pipeline.manager.bootstrap_scale, 2.5);

  Environment env;
  env.eval.backend.shots = 64;
  env.manager_options.enable_failure_reports = false;
  const ServiceConfig from_env = ServiceConfig::from_environment(env);
  EXPECT_EQ(from_env.eval.backend.shots, 64);
  EXPECT_FALSE(from_env.manager.enable_failure_reports);
}

TEST(ServeCreate, RejectsInvalidInputsWithStatus) {
  ServeFixture fx;

  Environment no_train = fx.env;
  no_train.train = Dataset{};
  EXPECT_EQ(InferenceService::create(std::move(no_train), {}, fx.history.day(0))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  Environment bad_theta = fx.env;
  bad_theta.theta_pretrained.pop_back();
  EXPECT_EQ(InferenceService::create(std::move(bad_theta), {}, fx.history.day(0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // A calibration that does not cover the routed device.
  const Calibration narrow(2, {{0, 1}});
  EXPECT_EQ(InferenceService::create(fx.env, {}, narrow).status().code(),
            StatusCode::kInvalidArgument);

  const ServiceConfig bad_config = ServiceConfig().with_max_batch_size(0);
  EXPECT_EQ(InferenceService::create(fx.env, {}, fx.history.day(0), bad_config)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeSubmit, MatchesResearchEvaluatorBitwise) {
  ServeFixture fx;
  const Calibration& day = fx.history.day(0);
  StatusOr<InferenceService> service =
      InferenceService::create(fx.env, {}, day);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  EXPECT_EQ(service->active_epoch(), 1u);

  const Dataset probe = fx.env.train.take(12);
  const NoisyEvalResult expected = noisy_evaluate(
      fx.env.model, fx.env.transpiled, fx.env.theta_pretrained, probe, day,
      fx.env.eval);
  const std::shared_ptr<const CompiledExecutor> reference =
      build_noisy_executor(fx.env.model, fx.env.transpiled,
                           fx.env.theta_pretrained, day, fx.env.eval.noise);

  for (std::size_t i = 0; i < probe.size(); ++i) {
    const StatusOr<Prediction> prediction =
        service->submit(probe.features[i]);
    ASSERT_TRUE(prediction.ok()) << prediction.status().to_string();
    EXPECT_EQ(prediction->label, expected.predictions[i]) << "sample " << i;
    EXPECT_EQ(prediction->epoch, 1u);
    const std::vector<double> z = reference->run_z(probe.features[i]);
    ASSERT_EQ(prediction->logits.size(), z.size());
    for (std::size_t k = 0; k < z.size(); ++k) {
      EXPECT_EQ(prediction->logits[k], z[k])
          << "sample " << i << " logit " << k << " must be bitwise identical";
    }
  }

  // Batch submission: one sweep, same bits.
  const StatusOr<std::vector<Prediction>> batch =
      service->submit_batch(probe.features);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), probe.size());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ((*batch)[i].label, expected.predictions[i]);
    EXPECT_EQ((*batch)[i].logits, reference->run_z(probe.features[i]));
  }
}

TEST(ServeSubmit, ValidatesRequests) {
  ServeFixture fx;
  StatusOr<InferenceService> service =
      InferenceService::create(fx.env, {}, fx.history.day(0));
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service->submit({0.5}).status().code(),
            StatusCode::kInvalidArgument);
  // The async path reports validation errors through the future — the
  // malformed request is never enqueued, but the caller still gets a
  // resolvable future rather than an exception.
  EXPECT_EQ(service->submit_async({0.5}).get().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->submit_batch({}).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<std::vector<double>> mixed{fx.env.train.features[0], {0.5}};
  EXPECT_EQ(service->submit_batch(mixed).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeCalibration, ReuseAndCompressionDecisionsSwapEpochs) {
  ServeFixture fx;
  StatusOr<InferenceService> service = InferenceService::create(
      fx.env, fx.reuse_only_repository(2), fx.history.day(0));
  ASSERT_TRUE(service.ok());

  // Matching day: reuse, hot-swap to the stored entry.
  const StatusOr<CalibrationReport> reuse =
      service->on_calibration(fx.history.day(10));
  ASSERT_TRUE(reuse.ok()) << reuse.status().to_string();
  EXPECT_EQ(reuse->decision.action, OnlineManager::Decision::Action::Reuse);
  EXPECT_TRUE(reuse->swapped);
  EXPECT_TRUE(reuse->failure.ok());
  EXPECT_EQ(reuse->epoch, 2u);
  EXPECT_EQ(service->active_epoch(), 2u);
  EXPECT_EQ(service->active_theta(),
            service->manager().repository().entry(reuse->decision.entry_index)
                .theta);

  const ServingStats stats = service->stats();
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.swaps, 2u);  // initial epoch + the reuse swap
  EXPECT_EQ(stats.compressions, 0u);
}

TEST(ServeCalibration, BootstrapCompressionAddsEntryAndSwaps) {
  ServeFixture fx;
  StatusOr<InferenceService> service =
      InferenceService::create(fx.env, {}, fx.history.day(0));
  ASSERT_TRUE(service.ok());

  const StatusOr<CalibrationReport> report =
      service->on_calibration(fx.history.day(5));
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->decision.action,
            OnlineManager::Decision::Action::NewModel);
  EXPECT_TRUE(report->swapped);
  EXPECT_EQ(service->manager().repository().size(), 1u);
  EXPECT_EQ(service->stats().compressions, 1u);
  EXPECT_EQ(service->active_theta(),
            service->manager().repository().entry(0).theta);
}

TEST(ServeCalibration, OtherDeviceCalibrationLeavesBootstrapIntact) {
  // A jakarta calibration pushed to a belem service with an empty
  // repository is refused before the repository decision: it must not fix
  // the matching weights or the feature width, so the next valid event
  // still bootstraps.
  ServeFixture fx;
  const CalibrationHistory jakarta{FluctuationScenario::jakarta(), 1, 77};
  EXPECT_EQ(InferenceService::create(fx.env, {}, jakarta.day(0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  StatusOr<InferenceService> service =
      InferenceService::create(fx.env, {}, fx.history.day(0));
  ASSERT_TRUE(service.ok());

  const StatusOr<CalibrationReport> refused =
      service->on_calibration(jakarta.day(0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service->manager().repository().size(), 0u);
  EXPECT_EQ(service->active_epoch(), 1u);

  const StatusOr<CalibrationReport> report =
      service->on_calibration(fx.history.day(5));
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->decision.action,
            OnlineManager::Decision::Action::NewModel);
  EXPECT_TRUE(report->swapped);
  EXPECT_EQ(service->manager().repository().size(), 1u);
}

TEST(ServeCalibration, FailurePolicyGovernsGuidance2Days) {
  ServeFixture fx;
  ModelRepository weak_repo;
  weak_repo.set_weights(std::vector<double>(
      fx.history.day(0).feature_vector().size(), 1.0));
  RepoEntry weak;
  weak.centroid = fx.history.day(10).feature_vector();
  weak.theta = fx.env.theta_pretrained;
  weak.theta[0] += 0.7;
  weak.valid = false;
  weak_repo.add(weak);
  weak_repo.set_threshold(1e9);

  // Default policy: keep serving the trusted epoch, report the failure.
  StatusOr<InferenceService> keep =
      InferenceService::create(fx.env, weak_repo, fx.history.day(0));
  ASSERT_TRUE(keep.ok());
  const StatusOr<CalibrationReport> kept =
      keep->on_calibration(fx.history.day(11));
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->decision.action, OnlineManager::Decision::Action::Failure);
  EXPECT_FALSE(kept->swapped);
  EXPECT_EQ(kept->failure.code(), StatusCode::kUnavailable);
  EXPECT_EQ(keep->active_epoch(), 1u);
  EXPECT_EQ(keep->active_theta(), fx.env.theta_pretrained);
  EXPECT_EQ(keep->stats().failures, 1u);

  // Opt-in Table-I accounting: serve the matched-but-invalid model anyway.
  const ServiceConfig serve_matched =
      ServiceConfig::from_environment(fx.env).with_failure_policy(
          ServiceConfig::FailurePolicy::kServeMatched);
  StatusOr<InferenceService> matched = InferenceService::create(
      fx.env, weak_repo, fx.history.day(0), serve_matched);
  ASSERT_TRUE(matched.ok());
  const StatusOr<CalibrationReport> swapped =
      matched->on_calibration(fx.history.day(11));
  ASSERT_TRUE(swapped.ok());
  EXPECT_TRUE(swapped->swapped);
  EXPECT_EQ(swapped->failure.code(), StatusCode::kUnavailable);
  EXPECT_EQ(matched->active_theta(), weak.theta);
}

// The acceptance test: 8 client threads hammer submit() while the main
// thread hot-swaps epochs via on_calibration. Every prediction must be
// bitwise-identical to a sequential single-epoch evaluation of the epoch it
// names — a batch never straddles a swap, and a swap never perturbs an
// in-flight batch.
TEST(ServeHotSwap, ConcurrentSubmitsSeeConsistentEpochs) {
  ServeFixture fx;
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 24;
  constexpr int kSwaps = 12;

  StatusOr<InferenceService> service = InferenceService::create(
      fx.env, fx.reuse_only_repository(3), fx.history.day(0),
      fx.pooled_config());
  ASSERT_TRUE(service.ok());

  // Epoch 1 is the pretrained model under day 0.
  std::map<std::uint64_t, std::pair<std::vector<double>, Calibration>> epochs;
  epochs.emplace(1u, std::make_pair(fx.env.theta_pretrained, fx.history.day(0)));

  struct Served {
    std::vector<double> features;
    Prediction prediction;
  };
  std::vector<std::vector<Served>> served(kThreads);

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        // Distinct feature vectors per (thread, request).
        std::vector<double> x =
            fx.env.train.features[static_cast<std::size_t>(
                (t * kRequestsPerThread + r) % fx.env.train.size())];
        x[0] += 1e-3 * t + 1e-5 * r;
        StatusOr<Prediction> prediction = service->submit(x);
        ASSERT_TRUE(prediction.ok()) << prediction.status().to_string();
        served[static_cast<std::size_t>(t)].push_back(
            Served{std::move(x), std::move(prediction).value()});
      }
    });
  }

  // Hot-swap epochs while the clients are in flight.
  for (int s = 0; s < kSwaps; ++s) {
    const Calibration& day = fx.history.day(10 + 20 * (s % 3));
    const StatusOr<CalibrationReport> report = service->on_calibration(day);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    ASSERT_TRUE(report->swapped);
    epochs.emplace(report->epoch,
                   std::make_pair(service->active_theta(), day));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& client : clients) client.join();

  // Sequential single-epoch replay: every prediction's logits must match
  // the compiled program of the epoch it claims, bit for bit.
  std::size_t total = 0;
  for (const std::vector<Served>& per_thread : served) {
    for (const Served& request : per_thread) {
      const auto it = epochs.find(request.prediction.epoch);
      ASSERT_NE(it, epochs.end())
          << "prediction names unknown epoch " << request.prediction.epoch;
      const std::shared_ptr<const CompiledExecutor> executor =
          CompiledEvalCache::global().get_or_build(
              fx.env.model, fx.env.transpiled, it->second.first,
              it->second.second, fx.env.eval.noise);
      const std::vector<double> z = executor->run_z(request.features);
      ASSERT_EQ(request.prediction.logits, z)
          << "epoch " << request.prediction.epoch
          << ": serving result diverged from sequential evaluation";
      ++total;
    }
  }
  EXPECT_EQ(total,
            static_cast<std::size_t>(kThreads) * kRequestsPerThread);
  const ServingStats stats = service->stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_GE(stats.swaps, static_cast<std::uint64_t>(kSwaps));
}

TEST(ServeBatching, ConcurrentSubmittersShareSweeps) {
  ServeFixture fx;
  constexpr int kThreads = 8;
  // A wide coalescing window so simultaneously-released submitters land in
  // one sweep even under unlucky scheduling.
  const ServiceConfig config =
      fx.pooled_config().with_batch_window(std::chrono::milliseconds(50));
  StatusOr<InferenceService> service =
      InferenceService::create(fx.env, {}, fx.history.day(0), config);
  ASSERT_TRUE(service.ok());
  // A lone warm-up request leaves the dispatcher not lingering; the burst
  // below must turn coalescing back on by itself.
  ASSERT_TRUE(service->submit(fx.env.train.features[kThreads]).ok());

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const StatusOr<Prediction> prediction =
          service->submit(fx.env.train.features[static_cast<std::size_t>(t)]);
      ASSERT_TRUE(prediction.ok());
    });
  }
  for (std::thread& client : clients) client.join();

  const ServingStats stats = service->stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kThreads) + 1);
  EXPECT_LT(stats.batches, static_cast<std::uint64_t>(kThreads) + 1)
      << "concurrent submitters should coalesce into shared sweeps";
  EXPECT_GT(stats.coalesced, 0u);
}

TEST(ServeBatching, LoneRequestDoesNotLinger) {
  ServeFixture fx;
  // A window far longer than a sweep: a dispatcher that lingered after a
  // lone request would park the next one for the whole window.
  const ServiceConfig config =
      ServiceConfig::from_environment(fx.env)
          .with_num_shards(1)
          .with_batch_window(std::chrono::seconds(2));
  StatusOr<InferenceService> service =
      InferenceService::create(fx.env, {}, fx.history.day(0), config);
  ASSERT_TRUE(service.ok()) << service.status().to_string();

  // A fresh shard lingers on its first batch; this one holds one request.
  ASSERT_TRUE(service->submit(fx.env.train.features[0]).ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(service->submit(fx.env.train.features[1]).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
      << "a lone request waited out the batch window after a lone batch";
  EXPECT_EQ(service->stats().batches, 2u);
}

TEST(ServeCacheStress, GlobalCacheIsConsistentUnderContention) {
  ServeFixture fx;
  constexpr int kThreads = 8;
  constexpr int kIterations = 40;
  const Calibration& day = fx.history.day(0);

  // Four distinct configurations (distinct thetas) and their ground truth.
  // One full 8-lane block plus a tail, so each sweep on the explicit pool
  // spreads over several workers.
  const std::vector<std::vector<double>> xs(fx.env.train.features.begin(),
                                            fx.env.train.features.begin() + 9);
  std::vector<std::vector<double>> thetas;
  std::vector<std::vector<std::vector<double>>> expected;
  for (int v = 0; v < 4; ++v) {
    std::vector<double> theta = fx.env.theta_pretrained;
    theta[static_cast<std::size_t>(v)] += 0.2 * v;
    const std::shared_ptr<const CompiledExecutor> executor =
        build_noisy_executor(fx.env.model, fx.env.transpiled, theta, day,
                             fx.env.eval.noise);
    std::vector<std::vector<double>> per_sample;
    for (const std::vector<double>& x : xs) {
      per_sample.push_back(executor->run_z(x));
    }
    expected.push_back(std::move(per_sample));
    thetas.push_back(std::move(theta));
  }

  // Shrink the cache so eviction churns while threads race get_or_build.
  CompiledEvalCache::global().set_capacity(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::size_t v = static_cast<std::size_t>((t + i) % 4);
        const std::shared_ptr<const CompiledExecutor> executor =
            CompiledEvalCache::global().get_or_build(
                fx.env.model, fx.env.transpiled, thetas[v], day,
                fx.env.eval.noise);
        const std::vector<std::vector<double>> zs =
            executor->run_z_batch(xs, {}, 0, 0, &fx.pool);
        ASSERT_EQ(zs, expected[v]) << "thread " << t << " iteration " << i;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  CompiledEvalCache::global().set_capacity(64);

  const EvalCacheStats stats = CompiledEvalCache::global().stats();
  EXPECT_LE(stats.entries, stats.capacity);
}

// The serving surface and the research harness must tell the same story:
// a service with kServeMatched policy replays the exact decisions and
// predictions of the QuCAD-without-offline strategy over the same window.
// The service side is driven inline: each day's calibration goes through
// on_calibration, then the whole test set through submit_async.
TEST(ServeLongitudinal, MatchesStrategyHarnessBitwise) {
  ServeFixture fx;
  const Dataset test = fx.env.train.take(24);
  const std::vector<Calibration> window = fx.history.slice(0, 5);

  QuCadWithoutOfflineStrategy strategy(fx.env);
  MethodResult from_strategy;
  {
    Environment harness_env = fx.env;
    harness_env.test = test;
    from_strategy =
        run_longitudinal(strategy, harness_env, {}, {window}).front();
  }

  const ServiceConfig config =
      ServiceConfig::from_environment(fx.env).with_failure_policy(
          ServiceConfig::FailurePolicy::kServeMatched);
  StatusOr<InferenceService> service =
      InferenceService::create(fx.env, {}, fx.history.day(0), config);
  ASSERT_TRUE(service.ok());

  std::vector<double> daily_accuracy;
  int optimizations = 0;
  for (const Calibration& day : window) {
    const StatusOr<CalibrationReport> report = service->on_calibration(day);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    if (report->decision.action == OnlineManager::Decision::Action::NewModel) {
      ++optimizations;
    }
    std::vector<std::future<StatusOr<Prediction>>> futures;
    futures.reserve(test.size());
    for (const std::vector<double>& x : test.features) {
      futures.push_back(service->submit_async(x));
    }
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      const StatusOr<Prediction> prediction = futures[i].get();
      ASSERT_TRUE(prediction.ok()) << prediction.status().to_string();
      if (prediction->label == test.labels[i]) ++correct;
    }
    daily_accuracy.push_back(static_cast<double>(correct) /
                             static_cast<double>(test.size()));
  }

  ASSERT_EQ(daily_accuracy.size(), from_strategy.daily_accuracy.size());
  for (std::size_t d = 0; d < daily_accuracy.size(); ++d) {
    EXPECT_DOUBLE_EQ(daily_accuracy[d], from_strategy.daily_accuracy[d])
        << "day " << d;
  }
  EXPECT_EQ(optimizations, from_strategy.optimizations);
}

// ---------------------------------------------------------------------------
// Sharded serving: admission control, routing, result cache.
// ---------------------------------------------------------------------------

TEST(ServeAdmission, ControllerEnforcesDeadlineUnderManualClock) {
  ManualClock clock;
  AdmissionController admission(std::chrono::microseconds(100), &clock);
  const Clock::TimePoint enqueued = admission.stamp();

  // Exactly at the budget: still admitted (the budget is inclusive).
  clock.advance(std::chrono::microseconds(100));
  EXPECT_TRUE(admission.admit_for_execution(enqueued).ok());

  // One tick past: expired, kDeadlineExceeded. The shards count misses.
  clock.advance(std::chrono::microseconds(1));
  EXPECT_EQ(admission.admit_for_execution(enqueued).code(),
            StatusCode::kDeadlineExceeded);

  // Shed verdicts carry kResourceExhausted.
  EXPECT_EQ(AdmissionController::shed(0, 4).code(),
            StatusCode::kResourceExhausted);

  // A zero budget disables the deadline entirely.
  AdmissionController no_deadline(std::chrono::microseconds(0), &clock);
  const Clock::TimePoint old = no_deadline.stamp();
  clock.advance(std::chrono::hours(1));
  EXPECT_TRUE(no_deadline.admit_for_execution(old).ok());
}

TEST(ServeRouting, HashRoutingIsDeterministicAcrossServices) {
  // Pure routing function: same bits -> same shard, every call.
  const std::vector<double> x{0.1, -0.2, 0.3, 0.4};
  for (std::size_t shards : {1u, 2u, 5u}) {
    const std::size_t first = route_by_hash(x, shards);
    EXPECT_LT(first, shards);
    EXPECT_EQ(route_by_hash(x, shards), first);
  }

  // Two independently-built services must spread an identical sequential
  // request sequence identically across their shards: a sequential submit
  // finds every shard idle, so the hash tie-break places it.
  ServeFixture fx;
  const ServiceConfig config =
      ServiceConfig::from_environment(fx.env)
          .with_num_shards(4)
          .with_batch_window(std::chrono::microseconds(0));
  StatusOr<InferenceService> first =
      InferenceService::create(fx.env, {}, fx.history.day(0), config);
  StatusOr<InferenceService> second =
      InferenceService::create(fx.env, {}, fx.history.day(0), config);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(second.ok());

  const std::size_t n = std::min<std::size_t>(32, fx.env.train.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(first->submit(fx.env.train.features[i]).ok());
    ASSERT_TRUE(second->submit(fx.env.train.features[i]).ok());
  }

  const std::vector<ShardStats> a = first->shard_stats();
  const std::vector<ShardStats> b = second->shard_stats();
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  std::uint64_t total = 0;
  std::size_t used = 0;
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].requests, b[s].requests) << "shard " << s;
    total += a[s].requests;
    used += a[s].requests > 0 ? 1 : 0;
  }
  EXPECT_EQ(total, n);
  EXPECT_GE(used, 2u) << "hash routing should spread distinct vectors";
}

// A shard that is mid-sweep has an empty queue but is not idle: a request
// that hashes to it must go to the idle peer instead of waiting out the
// sweep.
TEST(ServeRouting, IdleShardIsPreferredOverBusyOne) {
  struct Gate {
    std::atomic<bool> armed{true};
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
  };
  // The density backend, except that the first sweep blocks until the test
  // opens the gate.
  class HeldBackend final : public ExecutionBackend {
   public:
    HeldBackend(std::shared_ptr<const ExecutionBackend> inner,
                std::shared_ptr<Gate> gate)
        : inner_(std::move(inner)), gate_(std::move(gate)) {}
    BackendKind kind() const override { return inner_->kind(); }
    BackendDiagnostics diagnostics() const override {
      return inner_->diagnostics();
    }
    std::vector<std::vector<double>> run_logits_batch(
        std::span<const std::vector<double>> xs,
        ThreadPool* pool) const override {
      if (gate_->armed.exchange(false)) {
        gate_->entered.set_value();
        gate_->released.wait();
      }
      return inner_->run_logits_batch(xs, pool);
    }

   private:
    std::shared_ptr<const ExecutionBackend> inner_;
    std::shared_ptr<Gate> gate_;
  };
  const auto gate = std::make_shared<Gate>();
  std::future<void> entered = gate->entered.get_future();
  // A custom kind no other test uses.
  const BackendKind held = static_cast<BackendKind>(18);
  BackendRegistry::global().register_factory(
      held,
      [gate](const BackendConfig& config, const BackendContext& context)
          -> StatusOr<std::shared_ptr<const ExecutionBackend>> {
        BackendConfig density = config;
        density.kind = BackendKind::kDensityNoisy;
        StatusOr<std::shared_ptr<const ExecutionBackend>> inner =
            BackendRegistry::global().make(density, context);
        if (!inner.ok()) return inner.status();
        return std::shared_ptr<const ExecutionBackend>(
            std::make_shared<HeldBackend>(*std::move(inner), gate));
      });

  ServeFixture fx;
  const ServiceConfig config =
      ServiceConfig::from_environment(fx.env)
          .with_num_shards(2)
          .with_batch_window(std::chrono::microseconds(0))
          .with_backend(BackendConfig().with_kind(held));
  StatusOr<InferenceService> service =
      InferenceService::create(fx.env, {}, fx.history.day(0), config);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  // Opens the gate on every exit path, before the service joins its
  // dispatchers.
  struct Opener {
    Gate& gate;
    bool open = false;
    void operator()() {
      if (!open) gate.release.set_value();
      open = true;
    }
    ~Opener() { (*this)(); }
  } opener{*gate};

  const std::vector<double>& a = fx.env.train.features[0];
  const std::size_t busy = route_by_hash(a, 2);
  std::size_t b_index = 1;
  while (route_by_hash(fx.env.train.features[b_index], 2) != busy) ++b_index;
  const std::vector<double>& b = fx.env.train.features[b_index];

  std::future<StatusOr<Prediction>> first = service->submit_async(a);
  ASSERT_EQ(entered.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "the first sweep never started";
  std::future<StatusOr<Prediction>> second = service->submit_async(b);
  EXPECT_EQ(second.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "a request that hashes to the busy shard queued behind its sweep";
  EXPECT_EQ(first.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout)
      << "the held sweep finished early";
  opener();

  const StatusOr<Prediction> first_result = first.get();
  const StatusOr<Prediction> second_result = second.get();
  ASSERT_TRUE(first_result.ok()) << first_result.status().to_string();
  ASSERT_TRUE(second_result.ok()) << second_result.status().to_string();
  const std::vector<ShardStats> shards = service->shard_stats();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[busy].requests, 1u);
  EXPECT_EQ(shards[1 - busy].requests, 1u);
}

TEST(ServeSharding, PredictionsBitwiseIdenticalAcrossShardCounts) {
  ServeFixture fx;
  const Calibration& day = fx.history.day(0);
  const Dataset probe = fx.env.train.take(16);
  const std::shared_ptr<const CompiledExecutor> reference =
      build_noisy_executor(fx.env.model, fx.env.transpiled,
                           fx.env.theta_pretrained, day, fx.env.eval.noise);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    const ServiceConfig config = fx.pooled_config().with_num_shards(shards);
    StatusOr<InferenceService> service =
        InferenceService::create(fx.env, {}, day, config);
    ASSERT_TRUE(service.ok()) << service.status().to_string();

    std::vector<std::future<StatusOr<Prediction>>> futures;
    futures.reserve(probe.size());
    for (std::size_t i = 0; i < probe.size(); ++i) {
      futures.push_back(service->submit_async(probe.features[i]));
    }
    for (std::size_t i = 0; i < probe.size(); ++i) {
      StatusOr<Prediction> prediction = futures[i].get();
      ASSERT_TRUE(prediction.ok()) << prediction.status().to_string();
      EXPECT_EQ(prediction->epoch, 1u);
      EXPECT_EQ(prediction->logits, reference->run_z(probe.features[i]))
          << shards << "-shard service diverged on sample " << i;
    }
  }
}

TEST(ServeAdmission, SaturatedShardShedsWithResourceExhausted) {
  ServeFixture fx;
  // One shard whose queue holds 2 requests, with a coalescing window far
  // wider than the submission burst. Admitted requests stay IN the queue
  // while the dispatcher lingers for stragglers (capacity measures true
  // backlog), so of 8 instant submits exactly 2 are admitted and 6 shed.
  const ServiceConfig config =
      ServiceConfig::from_environment(fx.env)
          .with_num_shards(1)
          .with_queue_capacity(2)
          .with_batch_window(std::chrono::milliseconds(750));
  StatusOr<InferenceService> service =
      InferenceService::create(fx.env, {}, fx.history.day(0), config);
  ASSERT_TRUE(service.ok()) << service.status().to_string();

  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        service->submit_async(fx.env.train.features[static_cast<std::size_t>(i)]));
  }
  int ok = 0;
  int shed = 0;
  for (std::future<StatusOr<Prediction>>& future : futures) {
    const StatusOr<Prediction> result = future.get();
    if (result.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << result.status().to_string();
      ++shed;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(shed, 6);

  const ServingStats stats = service->stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.shed, 6u);
  const std::vector<ShardStats> shards = service->shard_stats();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].shed, 6u);
}

TEST(ServeAdmission, ExpiredDeadlineFailsRequestsBeforeExecution) {
  ServeFixture fx;
  // Every request out-waits its 1us budget inside the 200ms coalescing
  // window, so the dispatcher must fail all of them at the gate — late
  // answers never execute.
  const ServiceConfig config =
      ServiceConfig::from_environment(fx.env)
          .with_num_shards(1)
          .with_batch_window(std::chrono::milliseconds(200))
          .with_deadline_budget(std::chrono::microseconds(1));
  StatusOr<InferenceService> service =
      InferenceService::create(fx.env, {}, fx.history.day(0), config);
  ASSERT_TRUE(service.ok()) << service.status().to_string();

  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(
        service->submit_async(fx.env.train.features[static_cast<std::size_t>(i)]));
  }
  for (std::future<StatusOr<Prediction>>& future : futures) {
    const StatusOr<Prediction> result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << result.status().to_string();
  }
  const ServingStats stats = service->stats();
  EXPECT_EQ(stats.deadline_misses, 4u);
  EXPECT_EQ(stats.requests, 0u) << "an expired request must never execute";
}

// Hot-swap under saturation: small bounded queues across 2 shards, async
// clients racing 8 reuse swaps. Shed requests are acceptable (that is the
// admission contract); every SERVED prediction must still be
// bitwise-identical to a sequential evaluation of the epoch it names.
TEST(ServeHotSwap, SaturatedShardsKeepEpochConsistency) {
  ServeFixture fx;
  constexpr int kThreads = 6;
  constexpr int kRequestsPerThread = 20;
  constexpr int kSwaps = 8;

  const ServiceConfig config =
      fx.pooled_config().with_num_shards(2).with_queue_capacity(3);
  StatusOr<InferenceService> service = InferenceService::create(
      fx.env, fx.reuse_only_repository(3), fx.history.day(0), config);
  ASSERT_TRUE(service.ok()) << service.status().to_string();

  std::map<std::uint64_t, std::pair<std::vector<double>, Calibration>> epochs;
  epochs.emplace(1u, std::make_pair(fx.env.theta_pretrained, fx.history.day(0)));

  struct Served {
    std::vector<double> features;
    Prediction prediction;
  };
  std::vector<std::vector<Served>> served(kThreads);
  std::atomic<std::uint64_t> shed{0};

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        std::vector<double> x =
            fx.env.train.features[static_cast<std::size_t>(
                (t * kRequestsPerThread + r) % fx.env.train.size())];
        x[0] += 1e-3 * t + 1e-5 * r;
        StatusOr<Prediction> prediction = service->submit_async(x).get();
        if (!prediction.ok()) {
          ASSERT_EQ(prediction.status().code(),
                    StatusCode::kResourceExhausted)
              << prediction.status().to_string();
          shed.fetch_add(1);
          continue;
        }
        served[static_cast<std::size_t>(t)].push_back(
            Served{std::move(x), std::move(prediction).value()});
      }
    });
  }

  for (int s = 0; s < kSwaps; ++s) {
    const Calibration& day = fx.history.day(10 + 20 * (s % 3));
    const StatusOr<CalibrationReport> report = service->on_calibration(day);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    ASSERT_TRUE(report->swapped);
    epochs.emplace(report->epoch, std::make_pair(service->active_theta(), day));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& client : clients) client.join();

  std::size_t total_ok = 0;
  for (const std::vector<Served>& per_thread : served) {
    for (const Served& request : per_thread) {
      const auto it = epochs.find(request.prediction.epoch);
      ASSERT_NE(it, epochs.end())
          << "prediction names unknown epoch " << request.prediction.epoch;
      const std::shared_ptr<const CompiledExecutor> executor =
          CompiledEvalCache::global().get_or_build(
              fx.env.model, fx.env.transpiled, it->second.first,
              it->second.second, fx.env.eval.noise);
      ASSERT_EQ(request.prediction.logits, executor->run_z(request.features))
          << "epoch " << request.prediction.epoch
          << ": served result diverged from sequential evaluation";
      ++total_ok;
    }
  }
  EXPECT_EQ(total_ok + shed.load(),
            static_cast<std::uint64_t>(kThreads) * kRequestsPerThread);
  const ServingStats stats = service->stats();
  EXPECT_EQ(stats.requests, total_ok);
  EXPECT_EQ(stats.shed, shed.load());
}

// One calibration event builds one backend and publishes it to every shard
// in one store: a failed build leaves all shards on the previous epoch, and
// since a failed build consumes no id, the epoch id counts installs.
TEST(ServeHotSwap, EpochInstallIsAllOrNothing) {
  struct Builds {
    std::atomic<int> count{0};
    std::atomic<bool> fail{false};
  };
  // A custom kind no other test uses: the density backend, counted, with a
  // switch that makes every build fail.
  const auto builds = std::make_shared<Builds>();
  const BackendKind counting = static_cast<BackendKind>(17);
  BackendRegistry::global().register_factory(
      counting,
      [builds](const BackendConfig& config, const BackendContext& context)
          -> StatusOr<std::shared_ptr<const ExecutionBackend>> {
        builds->count.fetch_add(1);
        if (builds->fail.load()) {
          return Status::internal("injected backend build failure");
        }
        BackendConfig density = config;
        density.kind = BackendKind::kDensityNoisy;
        return BackendRegistry::global().make(density, context);
      });

  ServeFixture fx;
  const ServiceConfig config =
      ServiceConfig::from_environment(fx.env)
          .with_num_shards(4)
          .with_batch_window(std::chrono::microseconds(0))
          .with_backend(BackendConfig().with_kind(counting));
  StatusOr<InferenceService> service = InferenceService::create(
      fx.env, fx.reuse_only_repository(3), fx.history.day(0), config);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  EXPECT_EQ(builds->count.load(), 1) << "create must build one backend";

  StatusOr<CalibrationReport> report =
      service->on_calibration(fx.history.day(10));
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report->swapped);
  EXPECT_EQ(report->epoch, 2u);
  EXPECT_EQ(builds->count.load(), 2) << "one build per calibration event";

  // A failed build: the event fails and nothing is installed anywhere.
  builds->fail.store(true);
  const std::uint64_t before = service->active_epoch();
  report = service->on_calibration(fx.history.day(30));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  EXPECT_EQ(builds->count.load(), 3);
  EXPECT_EQ(service->active_epoch(), before);
  EXPECT_EQ(service->stats().swaps, before);
  // Sequential distinct submits spread over all four shards; every one of
  // them must still serve the epoch the service reports.
  for (std::size_t i = 0; i < 32; ++i) {
    std::vector<double> x = fx.env.train.features[i % fx.env.train.size()];
    x[0] += 1e-3 * static_cast<double>(i);
    const StatusOr<Prediction> prediction = service->submit(std::move(x));
    ASSERT_TRUE(prediction.ok()) << prediction.status().to_string();
    EXPECT_EQ(prediction->epoch, before) << "request " << i;
  }

  // The next good event installs the next id: no id was spent on the
  // failed build.
  builds->fail.store(false);
  report = service->on_calibration(fx.history.day(50));
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report->swapped);
  EXPECT_EQ(report->epoch, before + 1);
  EXPECT_EQ(service->active_epoch(), before + 1);
  EXPECT_EQ(builds->count.load(), 4);
  EXPECT_EQ(service->stats().swaps, service->active_epoch());
}

TEST(ServeResultCache, QuantizesKeysInvalidatesByEpochAndEvictsLru) {
  ResultCache cache(2, 0.1);
  EXPECT_TRUE(cache.enabled());
  Prediction first;
  first.label = 1;
  first.logits = {0.25, 0.75};
  first.epoch = 7;

  const std::vector<double> x{0.50};
  const std::vector<double> x_nearby{0.52};  // same 0.1 bucket as 0.50
  const std::vector<double> y{1.30};
  const std::vector<double> z{2.70};

  cache.insert(7, x, first);
  const std::optional<Prediction> hit = cache.lookup(7, x_nearby);
  ASSERT_TRUE(hit.has_value()) << "nearby reading should share the bucket";
  EXPECT_EQ(hit->logits, first.logits);
  EXPECT_EQ(hit->label, first.label);

  // Same features under another epoch: unreachable by key construction.
  EXPECT_FALSE(cache.lookup(8, x).has_value());

  // LRU eviction at capacity 2: touch x, insert y then z -> y evicted.
  Prediction other = first;
  other.label = 0;
  cache.insert(7, y, other);
  ASSERT_TRUE(cache.lookup(7, x).has_value());  // refresh x's recency
  cache.insert(7, z, other);
  EXPECT_FALSE(cache.lookup(7, y).has_value()) << "y was least recent";
  EXPECT_TRUE(cache.lookup(7, x).has_value());
  EXPECT_TRUE(cache.lookup(7, z).has_value());
  EXPECT_LE(cache.entries(), 2u);
  EXPECT_EQ(cache.lookups(), 6u);
  EXPECT_EQ(cache.hits(), 4u);

  // Capacity 0 disables: lookups miss, inserts drop.
  ResultCache disabled(0, 0.0);
  EXPECT_FALSE(disabled.enabled());
  disabled.insert(7, x, first);
  EXPECT_FALSE(disabled.lookup(7, x).has_value());
}

TEST(ServeResultCache, OutOfRangeFeaturesAreNeverCached) {
  // With a positive quantum, a feature whose bucket falls outside the int64
  // range has no key of its own. Such requests must never share an entry.
  ResultCache cache(8, 1e-3);
  Prediction huge;
  huge.label = 1;
  huge.logits = {0.5, -0.5};
  huge.epoch = 1;
  cache.insert(1, std::vector<double>{1e16, 0.0, 0.0, 0.0}, huge);
  EXPECT_EQ(cache.entries(), 0u);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& x :
       {std::vector<double>{-1e300, 0.0, 0.0, 0.0},
        std::vector<double>{nan, nan, nan, nan},
        std::vector<double>{inf, inf, inf, inf}}) {
    EXPECT_FALSE(cache.lookup(1, x).has_value()) << "x[0] = " << x[0];
  }
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ServeResultCache, ServesRepeatsWithoutReexecutionUntilSwap) {
  ServeFixture fx;
  const ServiceConfig config =
      ServiceConfig::from_environment(fx.env).with_result_cache(64);
  StatusOr<InferenceService> service = InferenceService::create(
      fx.env, fx.reuse_only_repository(1), fx.history.day(0), config);
  ASSERT_TRUE(service.ok()) << service.status().to_string();

  const std::vector<double>& x = fx.env.train.features[0];
  const StatusOr<Prediction> first = service->submit(x);  // miss: executes
  ASSERT_TRUE(first.ok());
  const StatusOr<Prediction> second = service->submit(x);  // hit: no sweep
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->logits, first->logits);
  EXPECT_EQ(second->epoch, first->epoch);

  ServingStats stats = service->stats();
  EXPECT_EQ(stats.cache_lookups, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.batches, 1u) << "the repeat must not run a sweep";
  EXPECT_EQ(stats.requests, 2u) << "cache hits still count as served";

  // A hot-swap moves the service to epoch 2; the cached epoch-1 answer must
  // be unreachable — the same vector now executes under the new epoch.
  const StatusOr<CalibrationReport> swap =
      service->on_calibration(fx.history.day(10));
  ASSERT_TRUE(swap.ok());
  ASSERT_TRUE(swap->swapped);
  const StatusOr<Prediction> third = service->submit(x);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->epoch, 2u) << "stale epoch-1 cache entry served after swap";
  stats = service->stats();
  EXPECT_EQ(stats.cache_lookups, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.batches, 2u);
}

TEST(ServeStats, RepositorySnapshotTracksDecisions) {
  ServeFixture fx;
  StatusOr<InferenceService> service =
      InferenceService::create(fx.env, {}, fx.history.day(0));
  ASSERT_TRUE(service.ok());

  RepositorySnapshot snapshot = service->repository_snapshot();
  EXPECT_EQ(snapshot.entries, 0u);
  EXPECT_EQ(snapshot.optimizations, 0);
  EXPECT_EQ(snapshot.reuses, 0);

  // A bootstrap compression day adds one entry and costs optimize time.
  const StatusOr<CalibrationReport> report =
      service->on_calibration(fx.history.day(5));
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  snapshot = service->repository_snapshot();
  EXPECT_EQ(snapshot.entries, 1u);
  EXPECT_EQ(snapshot.optimizations, 1);
  EXPECT_GT(snapshot.total_optimize_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.threshold,
                   service->manager().repository().threshold());
}

}  // namespace
}  // namespace qucad
