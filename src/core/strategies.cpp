#include "core/strategies.hpp"

#include "common/require.hpp"

namespace qucad {

std::span<const double> BaselineStrategy::online_day(int, const Calibration&) {
  return env_.theta_pretrained;
}

std::span<const double> NoiseAwareTrainOnceStrategy::online_day(
    int, const Calibration& calib) {
  if (!theta_) {
    theta_ = env_.theta_pretrained;
    timed_online([&] {
      noise_aware_train(env_.model, env_.transpiled, *theta_, env_.train, calib,
                        env_.nat);
    });
  }
  return *theta_;
}

std::span<const double> NoiseAwareTrainEverydayStrategy::online_day(
    int day, const Calibration& calib) {
  if (!theta_) theta_ = env_.theta_pretrained;
  NoiseAwareTrainOptions options = env_.nat;
  options.seed += static_cast<std::uint64_t>(day);
  timed_online([&] {
    noise_aware_train(env_.model, env_.transpiled, *theta_, env_.train, calib,
                      options);
  });
  return *theta_;
}

std::span<const double> OneTimeCompressionStrategy::online_day(
    int, const Calibration& calib) {
  if (!theta_) {
    AdmmOptions options = env_.admm;
    options.mode = CompressionMode::NoiseAgnostic;
    // [23] compresses toward minimum circuit length with a fixed budget;
    // the noise/threshold coupling and QuCAD's validation-selection guard
    // are not part of that baseline.
    options.policy = {MaskPolicy::Kind::TopFraction, 0.2};
    options.keep_best = false;
    timed_online([&] {
      theta_ = admm_compress(env_.model, env_.transpiled, env_.theta_pretrained,
                             env_.train, calib, options)
                   .theta;
    });
  }
  return *theta_;
}

CompressionEverydayStrategy::CompressionEverydayStrategy(const Environment& env,
                                                         CompressionMode mode)
    : Strategy(env), mode_(mode) {}

std::string CompressionEverydayStrategy::name() const {
  return mode_ == CompressionMode::NoiseAware
             ? "Noise-Aware Compression Everyday"
             : "Noise-Agnostic Compression Everyday";
}

std::span<const double> CompressionEverydayStrategy::online_day(
    int day, const Calibration& calib) {
  AdmmOptions options = env_.admm;
  options.mode = mode_;
  if (mode_ == CompressionMode::NoiseAgnostic) {
    options.policy = {MaskPolicy::Kind::TopFraction, 0.2};
  }
  // Per-day raw compression (Fig. 7/9): no selection guard, so the figure
  // measures compression quality itself rather than the guard.
  options.keep_best = false;
  options.seed += static_cast<std::uint64_t>(day);
  timed_online([&] {
    theta_ = admm_compress(env_.model, env_.transpiled, env_.theta_pretrained,
                           env_.train, calib, options)
                 .theta;
  });
  return theta_;
}

QuCadStrategy::QuCadStrategy(const Environment& env) : Strategy(env) {}

QuCadStrategy::QuCadStrategy(const Environment& env, ModelRepository repository)
    : Strategy(env),
      manager_(std::make_unique<OnlineManager>(
          env_.model, env_.transpiled, env_.theta_pretrained, env_.train,
          std::move(repository), env_.manager_options)) {}

void QuCadStrategy::offline(const std::vector<Calibration>& history) {
  require(!history.empty(), "QuCAD requires offline history");
  OfflineBuild build;
  timed_offline([&] {
    build = build_repository(env_.model, env_.transpiled, env_.theta_pretrained,
                             history, env_.train, env_.profile,
                             env_.constructor_options);
  });
  diagnostics_ = std::move(build.diagnostics);
  manager_ = std::make_unique<OnlineManager>(
      env_.model, env_.transpiled, env_.theta_pretrained, env_.train,
      std::move(build.repository), env_.manager_options);
}

std::span<const double> QuCadStrategy::online_day(int, const Calibration& calib) {
  require(manager_ != nullptr, "offline() must run before online_day()");
  timed_online([&] { decision_ = manager_->process_day(calib); });
  if (decision_.action != OnlineManager::Decision::Action::NewModel) {
    --optimizations_;  // pure repository lookup, no optimization happened
  }
  if (decision_.action == OnlineManager::Decision::Action::Failure) {
    ++failures_;
  }
  // Failure days execute the matched (invalid) model too: the paper's
  // Table-I accounting charges the Guidance-2 miss to accuracy.
  theta_ = manager_->repository().entry(decision_.entry_index).theta;
  return theta_;
}

const OnlineManager& QuCadStrategy::manager() const {
  require(manager_ != nullptr, "offline() has not run");
  return *manager_;
}

}  // namespace qucad
