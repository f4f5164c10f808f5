#include "repo/kmeans.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "repo/weights.hpp"

namespace qucad {

namespace {

/// Cap on Lloyd iterations per seeding.
constexpr int kMaxIterations = 60;

double metric_distance(const std::vector<double>& a, const std::vector<double>& b,
                       const std::vector<double>& w, ClusterMetric metric) {
  return metric == ClusterMetric::WeightedL1 ? weighted_l1(a, b, w)
                                             : euclidean(a, b);
}

std::vector<double> centroid_of(const std::vector<std::vector<double>>& data,
                                const std::vector<std::size_t>& members,
                                ClusterMetric metric) {
  const std::size_t d = data.front().size();
  std::vector<double> centroid(d, 0.0);
  if (metric == ClusterMetric::L2) {
    for (std::size_t m : members) {
      for (std::size_t j = 0; j < d; ++j) centroid[j] += data[m][j];
    }
    for (double& v : centroid) v /= static_cast<double>(members.size());
  } else {
    // Per-dimension median: the exact minimizer of the L1 objective.
    std::vector<double> column(members.size());
    for (std::size_t j = 0; j < d; ++j) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        column[i] = data[members[i]][j];
      }
      centroid[j] = median(column);
    }
  }
  return centroid;
}

}  // namespace

namespace {

KMeansResult kmeans_single_run(const std::vector<std::vector<double>>& data,
                               const std::vector<double>& weights,
                               const KMeansOptions& options);

}  // namespace

KMeansResult weighted_kmeans(const std::vector<std::vector<double>>& data,
                             const std::vector<double>& weights,
                             const KMeansOptions& options) {
  require(options.restarts > 0, "restarts must be positive");
  KMeansResult best;
  for (int r = 0; r < options.restarts; ++r) {
    KMeansOptions run_options = options;
    run_options.seed = options.seed + static_cast<std::uint64_t>(r) * 7919;
    KMeansResult result = kmeans_single_run(data, weights, run_options);
    if (r == 0 || result.objective < best.objective) best = std::move(result);
  }
  return best;
}

namespace {

KMeansResult kmeans_single_run(const std::vector<std::vector<double>>& data,
                               const std::vector<double>& weights,
                               const KMeansOptions& options) {
  require(!data.empty(), "empty clustering input");
  require(options.k > 0, "k must be positive");
  const std::size_t n = data.size();
  const std::size_t k = std::min(static_cast<std::size_t>(options.k), n);
  const std::size_t d = data.front().size();
  require(weights.size() == d, "weight dimension mismatch");

  Rng rng(options.seed);

  // kmeans++ seeding under the chosen metric.
  std::vector<std::vector<double>> centroids;
  centroids.reserve(k);
  centroids.push_back(data[rng.index(n)]);
  std::vector<double> best_dist(n, std::numeric_limits<double>::infinity());
  while (centroids.size() < k) {
    for (std::size_t i = 0; i < n; ++i) {
      best_dist[i] = std::min(
          best_dist[i],
          metric_distance(data[i], centroids.back(), weights, options.metric));
    }
    std::vector<double> sq(n);
    for (std::size_t i = 0; i < n; ++i) sq[i] = best_dist[i] * best_dist[i];
    centroids.push_back(data[rng.weighted_index(sq)]);
  }

  KMeansResult result;
  result.assignment.assign(n, -1);
  int iter = 0;
  bool changed = true;
  while (changed && iter < kMaxIterations) {
    changed = false;
    ++iter;

    // Assignment step.
    for (std::size_t i = 0; i < n; ++i) {
      int best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < centroids.size(); ++c) {
        const double dist =
            metric_distance(data[i], centroids[c], weights, options.metric);
        if (dist < best_d) {
          best_d = dist;
          best = static_cast<int>(c);
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
    }

    // Update step.
    std::vector<std::vector<std::size_t>> members(centroids.size());
    for (std::size_t i = 0; i < n; ++i) {
      members[static_cast<std::size_t>(result.assignment[i])].push_back(i);
    }
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      if (members[c].empty()) {
        // Reseed an empty cluster at the sample farthest from its centroid.
        std::size_t farthest = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double dist = metric_distance(
              data[i], centroids[static_cast<std::size_t>(result.assignment[i])],
              weights, options.metric);
          if (dist > far_d) {
            far_d = dist;
            farthest = i;
          }
        }
        centroids[c] = data[farthest];
        changed = true;
        continue;
      }
      centroids[c] = centroid_of(data, members[c], options.metric);
    }
  }

  // Final statistics.
  result.centroids = std::move(centroids);
  result.cluster_sizes.assign(result.centroids.size(), 0);
  result.intra_mean_distance.assign(result.centroids.size(), 0.0);
  result.objective = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = static_cast<std::size_t>(result.assignment[i]);
    const double dist =
        metric_distance(data[i], result.centroids[c], weights, options.metric);
    result.objective += dist;
    result.intra_mean_distance[c] += dist;
    ++result.cluster_sizes[c];
  }
  for (std::size_t c = 0; c < result.centroids.size(); ++c) {
    if (result.cluster_sizes[c] > 0) {
      result.intra_mean_distance[c] /= static_cast<double>(result.cluster_sizes[c]);
    }
  }
  return result;
}

}  // namespace

}  // namespace qucad
