#pragma once

#include "compress/admm.hpp"
#include "qnn/evaluator.hpp"
#include "repo/kmeans.hpp"
#include "repo/repository.hpp"

namespace qucad {

struct ConstructorOptions {
  KMeansOptions kmeans;        // k groups (paper uses 6)
  AdmmOptions admm;            // compression settings per centroid
  std::size_t profile_samples = 64;  // validation samples per historical day
  double accuracy_requirement = 0.35;  // Guidance 2: clusters below are invalid
};

struct ConstructorDiagnostics {
  std::vector<double> day_accuracy;   // pretrained model under each offline day
  std::vector<double> weights;        // performance-aware w
  KMeansResult clustering;
  std::vector<double> cluster_mean_accuracy;  // compressed model on own cluster
  double mean_accuracy_of_clusters = 0.0;     // Table II column 1
  double mean_accuracy_of_samples = 0.0;      // Table II column 2
  // Compiled-executor cache traffic of this build (~100 noisy evaluations
  // per construction): how many re-lowers/recompiles the cache absorbed.
  std::size_t eval_cache_hits = 0;
  std::size_t eval_cache_misses = 0;
};

struct OfflineBuild {
  ModelRepository repository;
  ConstructorDiagnostics diagnostics;
};

/// Offline model-repository constructor (Sec. III-C): profiles the
/// pretrained model across the offline calibration history, derives
/// performance-aware weights, clusters the days, compresses the model on
/// each cluster centroid, and assembles the repository with threshold
/// th_w = max_i (mean intra-cluster distance) [Guidance 1] and invalid-
/// cluster flags [Guidance 2]. Every day is scored with the default exact
/// density-matrix evaluation, as admm_compress's keep-best is.
OfflineBuild build_repository(const QnnModel& model,
                              const TranspiledModel& transpiled,
                              const std::vector<double>& theta_pretrained,
                              const std::vector<Calibration>& offline_history,
                              const Dataset& train_data,
                              const Dataset& validation_data,
                              const ConstructorOptions& options);

}  // namespace qucad
