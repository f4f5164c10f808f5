#pragma once

#include <optional>

#include "core/strategy.hpp"

namespace qucad {

/// Table I row 1: the model trained in a noise-free environment, never
/// adapted.
class BaselineStrategy final : public Strategy {
 public:
  using Strategy::Strategy;
  std::string name() const override { return "Baseline"; }
  std::span<const double> online_day(int, const Calibration&) override;
};

/// Table I row 2 [12]: noise-injection training once, on the first online
/// day's calibration.
class NoiseAwareTrainOnceStrategy final : public Strategy {
 public:
  using Strategy::Strategy;
  std::string name() const override { return "Noise-aware Train Once"; }
  std::span<const double> online_day(int day, const Calibration& calib) override;

 private:
  std::optional<std::vector<double>> theta_;
};

/// Table I row 3: noise-injection retraining every day (warm-started).
class NoiseAwareTrainEverydayStrategy final : public Strategy {
 public:
  using Strategy::Strategy;
  std::string name() const override { return "Noise-aware Train Everyday"; }
  std::span<const double> online_day(int day, const Calibration& calib) override;

 private:
  std::optional<std::vector<double>> theta_;
};

/// Table I row 4 [23]: noise-agnostic compression (minimize circuit length)
/// once, on the first online day.
class OneTimeCompressionStrategy final : public Strategy {
 public:
  using Strategy::Strategy;
  std::string name() const override { return "One-time Compression"; }
  std::span<const double> online_day(int day, const Calibration& calib) override;

 private:
  std::optional<std::vector<double>> theta_;
};

/// Fig. 7 / Fig. 9 upper bound: compression re-run every day. The mode
/// selects noise-aware (paper's practical upper bound) or noise-agnostic
/// (Fig. 9b ablation).
class CompressionEverydayStrategy final : public Strategy {
 public:
  CompressionEverydayStrategy(const Environment& env, CompressionMode mode);
  std::string name() const override;
  std::span<const double> online_day(int day, const Calibration& calib) override;

 private:
  CompressionMode mode_;
  std::vector<double> theta_;
};

/// Table I row 6: the full framework — offline repository construction
/// plus the online manager. online_day() is THE Sec. III-D online step every
/// longitudinal loop (the strategy harness, the fleet harness) runs: match
/// today's calibration, reuse a stored model or compress a new one or file
/// a Guidance-2 failure report, and return the parameters to execute — on
/// failure days the matched (invalid) model, the paper's Table-I accounting.
class QuCadStrategy : public Strategy {
 public:
  explicit QuCadStrategy(const Environment& env);
  std::string name() const override { return "QuCAD"; }
  void offline(const std::vector<Calibration>& history) override;
  std::span<const double> online_day(int day, const Calibration& calib) final;

  const OnlineManager& manager() const;
  /// What the latest online_day() decided (reuse / new model / failure,
  /// match distance, compression cost).
  const OnlineManager::Decision& last_decision() const { return decision_; }
  const ConstructorDiagnostics& offline_diagnostics() const { return diagnostics_; }
  int failure_reports() const { return failures_; }

 protected:
  /// Starts online-ready from `repository` (no offline stage).
  QuCadStrategy(const Environment& env, ModelRepository repository);

 private:
  std::unique_ptr<OnlineManager> manager_;
  ConstructorDiagnostics diagnostics_;
  OnlineManager::Decision decision_;
  std::vector<double> theta_;
  int failures_ = 0;
};

/// Table I row 5: the same online step starting from an empty repository.
class QuCadWithoutOfflineStrategy final : public QuCadStrategy {
 public:
  explicit QuCadWithoutOfflineStrategy(const Environment& env)
      : QuCadStrategy(env, ModelRepository{}) {}
  std::string name() const override { return "QuCAD w/o offline"; }
  /// No offline stage: the history is ignored.
  void offline(const std::vector<Calibration>&) override {}
};

}  // namespace qucad
