#include "repo/manager.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/require.hpp"
#include "common/stats.hpp"
#include "repo/weights.hpp"

namespace qucad {

namespace {

/// Bootstrap threshold without an offline stage: this multiple of the
/// running mean day-to-day drift.
constexpr double kBootstrapScale = 1.5;

}  // namespace

OnlineManager::OnlineManager(const QnnModel& model,
                             const TranspiledModel& transpiled,
                             const std::vector<double>& theta_pretrained,
                             const Dataset& train_data,
                             ModelRepository repository, ManagerOptions options)
    : model_(model),
      transpiled_(transpiled),
      theta_pretrained_(theta_pretrained),
      train_data_(train_data),
      repository_(std::move(repository)),
      options_(std::move(options)),
      offline_threshold_(!repository_.empty()) {}

OnlineManager::Decision OnlineManager::process_day(const Calibration& calibration) {
  const std::vector<double> features = calibration.feature_vector();
  Decision decision;

  if (repository_.weights().empty()) {
    // No offline stage: fall back to uniform weights.
    repository_.set_weights(std::vector<double>(features.size(), 1.0));
  }

  const ModelRepository::Match match = repository_.best_match(features);

  double threshold = repository_.threshold();
  if (!offline_threshold_) {
    // No offline clustering to calibrate th_w: estimate the typical
    // day-to-day calibration drift online and compress only on days that
    // drift well beyond it.
    if (!seen_features_.empty()) {
      double nearest = std::numeric_limits<double>::infinity();
      for (const auto& seen : seen_features_) {
        nearest = std::min(
            nearest, weighted_l1(features, seen, repository_.weights()));
      }
      day_scale_sum_ += nearest;
      ++day_scale_count_;
    }
    seen_features_.push_back(features);
    threshold = day_scale_count_ == 0
                    ? 0.0
                    : kBootstrapScale * day_scale_sum_ /
                          static_cast<double>(day_scale_count_);
  }
  decision.threshold = threshold;

  const bool need_new = match.index < 0 || match.distance > threshold;
  if (!need_new) {
    RepoEntry& entry = repository_.entry(match.index);
    ++entry.uses;
    decision.entry_index = match.index;
    decision.distance = match.distance;
    if (!entry.valid) {
      decision.action = Decision::Action::Failure;
    } else {
      decision.action = Decision::Action::Reuse;
      ++reuses_;
    }
    return decision;
  }

  // Today's calibration becomes a new centroid: compress now.
  const auto start = std::chrono::steady_clock::now();
  const CompressedModel compressed =
      admm_compress(model_, transpiled_, theta_pretrained_, train_data_,
                    calibration, options_.admm);
  const auto stop = std::chrono::steady_clock::now();
  decision.optimize_seconds =
      std::chrono::duration<double>(stop - start).count();
  total_optimize_seconds_ += decision.optimize_seconds;
  ++optimizations_;

  RepoEntry entry;
  entry.centroid = features;
  entry.theta = compressed.theta;
  entry.frozen = compressed.frozen;
  entry.tag = "online-" + std::to_string(optimizations_);
  repository_.add(std::move(entry));

  decision.action = Decision::Action::NewModel;
  decision.entry_index = static_cast<int>(repository_.size()) - 1;
  decision.distance = match.index < 0 ? 0.0 : match.distance;
  return decision;
}

StatusOr<std::span<const double>> OnlineManager::theta_for_decision(
    const Decision& decision) const {
  if (decision.entry_index < 0 ||
      decision.entry_index >= static_cast<int>(repository_.size())) {
    return Status::invalid_argument(
        "decision does not reference a repository entry");
  }
  if (decision.action == Decision::Action::Failure) {
    return Status::unavailable(
        "matched cluster is invalid (Guidance 2 failure report): no stored "
        "model is trustworthy for this calibration");
  }
  const std::vector<double>& theta = repository_.entry(decision.entry_index).theta;
  return std::span<const double>(theta);
}

}  // namespace qucad
