#pragma once

#include <cstdint>
#include <vector>

namespace qucad {

enum class ClusterMetric {
  WeightedL1,  // the paper's dist^w_L1 with per-dim medians as centroids
  L2,          // standard k-means baseline (Table II)
};

struct KMeansOptions {
  int k = 6;
  int restarts = 4;  // independent seedings; lowest objective wins
  std::uint64_t seed = 2023;
  ClusterMetric metric = ClusterMetric::WeightedL1;
};

struct KMeansResult {
  std::vector<int> assignment;                // per sample
  std::vector<std::vector<double>> centroids;  // k x d
  std::vector<double> intra_mean_distance;     // per cluster (dist^w_L1)_i
  std::vector<std::size_t> cluster_sizes;
  double objective = 0.0;  // WSAE (Eq. 6) / SSE depending on metric
};

/// Weighted k-means (Sec. III-C). Under WeightedL1 the assignment uses
/// dist_L1(w*a, w*b) and centroids are per-dimension medians (the L1
/// minimizer), i.e. k-medians; under L2 it is standard k-means with
/// per-dimension means. Initialization is kmeans++ (seeded); empty
/// clusters are reseeded to the farthest sample.
KMeansResult weighted_kmeans(const std::vector<std::vector<double>>& data,
                             const std::vector<double>& weights,
                             const KMeansOptions& options);

}  // namespace qucad
