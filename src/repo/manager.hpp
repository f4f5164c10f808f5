#pragma once

#include <span>

#include "common/status.hpp"
#include "compress/admm.hpp"
#include "repo/repository.hpp"

namespace qucad {

struct ManagerOptions {
  AdmmOptions admm;  // used when a new model must be generated online
};

/// Online model-repository manager (Sec. III-D). Each day it matches the
/// current calibration against the repository under dist^w_L1:
///  - distance <= threshold: reuse the stored compressed model
///  - distance >  threshold: treat today as a new centroid — run noise-aware
///    compression now and add the result to the repository
///  - matched cluster invalid: emit a failure report (Guidance 2)
/// A repository built without an offline stage has no clustered th_w; the
/// manager then bootstraps one and compresses anew when today's match
/// distance exceeds 1.5 x the running mean of each past day's distance to
/// its nearest earlier calibration.
class OnlineManager {
 public:
  /// Copies every input: the manager is self-contained and cannot dangle,
  /// whatever the caller does with its arguments afterwards. (It used to
  /// hold bare references to the model and dataset — a footgun for any
  /// owner that outlives the objects it was built from, e.g. a serving
  /// process constructing its manager from setup-scope temporaries.)
  OnlineManager(const QnnModel& model, const TranspiledModel& transpiled,
                const std::vector<double>& theta_pretrained,
                const Dataset& train_data, ModelRepository repository,
                ManagerOptions options);

  struct Decision {
    enum class Action { Reuse, NewModel, Failure };
    Action action = Action::Reuse;
    int entry_index = -1;
    double distance = 0.0;
    double threshold = 0.0;
    double optimize_seconds = 0.0;
  };

  /// Processes one day's calibration and returns what was done. The model
  /// to execute afterwards is entry(decision.entry_index).theta.
  Decision process_day(const Calibration& calibration);

  const ModelRepository& repository() const { return repository_; }

  /// The parameters selected by a decision, with the failure modes surfaced
  /// as Status instead of left for the caller to check:
  ///  - `Decision::Action::Failure` (matched cluster invalid, Guidance 2)
  ///    returns kUnavailable — no stored model is trustworthy today;
  ///  - `entry_index == -1` (a decision that references no entry, e.g. a
  ///    default-constructed one) returns kInvalidArgument.
  /// Callers that deliberately serve the matched-but-invalid model anyway
  /// (the paper's Table-I accounting does) can fall back to
  /// `repository().entry(decision.entry_index).theta` explicitly.
  StatusOr<std::span<const double>> theta_for_decision(
      const Decision& decision) const;

  int optimizations_run() const { return optimizations_; }
  int reuses() const { return reuses_; }
  double total_optimize_seconds() const { return total_optimize_seconds_; }

 private:
  QnnModel model_;
  TranspiledModel transpiled_;
  std::vector<double> theta_pretrained_;
  Dataset train_data_;
  ModelRepository repository_;
  ManagerOptions options_;

  bool offline_threshold_;
  // Bootstrap scale estimate: running mean of each new day's weighted-L1
  // distance to the nearest previously seen calibration.
  std::vector<std::vector<double>> seen_features_;
  double day_scale_sum_ = 0.0;
  int day_scale_count_ = 0;
  int optimizations_ = 0;
  int reuses_ = 0;
  double total_optimize_seconds_ = 0.0;
};

}  // namespace qucad
