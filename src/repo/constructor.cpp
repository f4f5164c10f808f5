#include "repo/constructor.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "common/stats.hpp"
#include "qnn/eval_cache.hpp"
#include "repo/weights.hpp"

namespace qucad {

OfflineBuild build_repository(const QnnModel& model,
                              const TranspiledModel& transpiled,
                              const std::vector<double>& theta_pretrained,
                              const std::vector<Calibration>& offline_history,
                              const Dataset& train_data,
                              const Dataset& validation_data,
                              const ConstructorOptions& options) {
  require(!offline_history.empty(), "offline history is empty");
  require(validation_data.size() > 0, "validation data is empty");

  OfflineBuild build;
  ConstructorDiagnostics& diag = build.diagnostics;
  const std::size_t days = offline_history.size();
  const EvalCacheStats cache_before = CompiledEvalCache::global().stats();

  const Dataset profile_set =
      validation_data.take(std::min(options.profile_samples, validation_data.size()));

  // 1. Profile the pretrained model across the history.
  diag.day_accuracy.resize(days);
  std::vector<std::vector<double>> features(days);
  for (std::size_t d = 0; d < days; ++d) {
    features[d] = offline_history[d].feature_vector();
    diag.day_accuracy[d] = noisy_accuracy(model, transpiled, theta_pretrained,
                                          profile_set, offline_history[d]);
  }

  // 2. Performance-aware weights.
  diag.weights = performance_weights(features, diag.day_accuracy);

  // 3. Cluster the calibration days.
  diag.clustering = weighted_kmeans(features, diag.weights, options.kmeans);
  const std::size_t k = diag.clustering.centroids.size();

  // 4. Compress on every centroid and score on the cluster's own days.
  diag.cluster_mean_accuracy.assign(k, 0.0);
  const int nq = offline_history.front().num_qubits();
  const auto& edges = offline_history.front().edges();

  double sample_acc_sum = 0.0;
  std::size_t sample_count = 0;

  for (std::size_t c = 0; c < k; ++c) {
    // Median T1/T2 of the cluster members.
    std::vector<double> t1s, t2s;
    std::vector<std::size_t> members;
    for (std::size_t d = 0; d < days; ++d) {
      if (diag.clustering.assignment[d] != static_cast<int>(c)) continue;
      members.push_back(d);
      for (int q = 0; q < nq; ++q) {
        t1s.push_back(offline_history[d].t1_us(q));
        t2s.push_back(offline_history[d].t2_us(q));
      }
    }
    const double t1 = t1s.empty() ? 100.0 : median(t1s);
    const double t2 = t2s.empty() ? 80.0 : std::min(median(t2s), 2.0 * t1);
    const Calibration centroid_calib = Calibration::from_features(
        nq, edges, diag.clustering.centroids[c], t1, t2);

    const CompressedModel compressed =
        admm_compress(model, transpiled, theta_pretrained, train_data,
                      centroid_calib, options.admm);

    double cluster_acc = 0.0;
    for (std::size_t d : members) {
      const double acc =
          noisy_accuracy(model, transpiled, compressed.theta, profile_set,
                         offline_history[d]);
      cluster_acc += acc;
      sample_acc_sum += acc;
      ++sample_count;
    }
    if (!members.empty()) cluster_acc /= static_cast<double>(members.size());
    diag.cluster_mean_accuracy[c] = cluster_acc;

    RepoEntry entry;
    entry.centroid = diag.clustering.centroids[c];
    entry.theta = compressed.theta;
    entry.frozen = compressed.frozen;
    entry.mean_cluster_accuracy = cluster_acc;
    entry.valid = cluster_acc >= options.accuracy_requirement;
    entry.tag = "offline-c" + std::to_string(c);
    build.repository.add(std::move(entry));
  }

  diag.mean_accuracy_of_clusters = mean(diag.cluster_mean_accuracy);
  diag.mean_accuracy_of_samples =
      sample_count == 0 ? 0.0
                        : sample_acc_sum / static_cast<double>(sample_count);

  // 5. Matching threshold (Guidance 1).
  build.repository.set_weights(diag.weights);
  double th = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    if (diag.clustering.cluster_sizes[c] > 0) {
      th = std::max(th, diag.clustering.intra_mean_distance[c]);
    }
  }
  build.repository.set_threshold(th);

  const EvalCacheStats cache_after = CompiledEvalCache::global().stats();
  diag.eval_cache_hits = cache_after.hits - cache_before.hits;
  diag.eval_cache_misses = cache_after.misses - cache_before.misses;
  return build;
}

}  // namespace qucad
