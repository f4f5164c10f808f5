#include "models.hpp"

#include <cmath>

#include "common.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/seismic_synth.hpp"

namespace perfbench {

using namespace qucad;

namespace {

constexpr int kQubits = 4;
constexpr std::size_t kTrafficChunk = 4096;

/// The labelled data the detector is trained and tested on.
Dataset seismic_data() { return make_seismic(600, 11); }

}  // namespace

fleet::DriftStream device_stream(bool maintenance) {
  fleet::DeviceSpec spec = fleet::DeviceSpec::belem();
  if (maintenance) {
    spec.maintenance_rate = 0.03;
    spec.maintenance_seed = 17;
  }
  StatusOr<fleet::DriftStream> stream =
      fleet::DriftStream::create(spec, CalibrationHistory::kTotalDays);
  require(stream.ok(), stream.status().to_string());
  return std::move(stream).value();
}

PipelineConfig bench_pipeline() {
  PipelineConfig config;
  config.num_qubits = kQubits;
  config.max_train_samples = 64;
  config.max_test_samples = 48;
  config.profile_samples = 12;
  config.pretrain.epochs = 6;
  config.admm.iterations = 1;
  config.admm.epochs_per_iteration = 1;
  config.admm.finetune_epochs = 2;
  config.admm.validation_samples = 16;
  config.nat.epochs = 1;
  config.constructor_options.kmeans.k = 3;
  config.constructor_options.accuracy_requirement = 0.35;
  config.constructor_options.profile_samples = config.profile_samples;
  config.constructor_options.admm = config.admm;
  config.manager_options.admm = config.admm;
  return config;
}

Environment seismic_environment(const fleet::DriftStream& stream) {
  StatusOr<CouplingMap> coupling = stream.spec().coupling();
  require(coupling.ok(), coupling.status().to_string());
  return prepare_environment(seismic_data(), *coupling, stream.history().day(0),
                             bench_pipeline());
}

BackendContext backend_context(const Environment& env,
                               std::span<const double> theta,
                               const Calibration& calibration) {
  BackendContext context;
  context.model = &env.model;
  context.transpiled = &env.transpiled;
  context.theta = theta;
  context.calibration = &calibration;
  context.noise = env.eval.noise;
  context.use_cache = env.eval.use_cache;
  return context;
}

double mean_batch(const ServingStats& before, const ServingStats& after) {
  return after.batches > before.batches
             ? static_cast<double>(after.requests - before.requests) /
                   static_cast<double>(after.batches - before.batches)
             : 1.0;
}

std::vector<std::vector<double>> Traffic::rows(std::size_t at,
                                               std::size_t count) const {
  std::vector<std::vector<double>> out;
  out.reserve(count);
  for (std::size_t i = at; i < at + count; ++i) {
    const std::span<const double> x = features(i % size());
    out.emplace_back(x.begin(), x.end());
  }
  return out;
}

Traffic make_traffic(std::uint64_t seed, std::size_t count) {
  // The scaler prepare_environment fits: min-max over the training split.
  const FeatureScaler scaler =
      FeatureScaler::fit(split_dataset(seismic_data(), bench_pipeline().test_fraction).train);
  Traffic traffic;
  Rng seeds(seed);
  // Generated in chunks so only the flat copy of the whole stream is kept.
  while (traffic.size() < count) {
    const Dataset chunk = scaler.transform(make_seismic(kTrafficChunk, seeds.engine()()));
    if (traffic.flat.empty()) {
      traffic.width = chunk.num_features();
      traffic.flat.reserve(count * traffic.width);
      traffic.labels.reserve(count);
    }
    for (std::size_t i = 0; i < chunk.size() && traffic.size() < count; ++i) {
      traffic.flat.insert(traffic.flat.end(), chunk.features[i].begin(),
                          chunk.features[i].end());
      traffic.labels.push_back(chunk.labels[i]);
    }
  }
  return traffic;
}

bool well_formed(const Prediction& p, std::uint64_t epoch, int num_classes) {
  if (p.epoch != epoch || p.logits.size() != static_cast<std::size_t>(num_classes) ||
      p.label < 0 || p.label >= num_classes) {
    return false;
  }
  int argmax = 0;
  for (int k = 0; k < num_classes; ++k) {
    const double z = p.logits[static_cast<std::size_t>(k)];
    if (!std::isfinite(z) || z < -1.0 || z > 1.0) return false;
    if (z > p.logits[static_cast<std::size_t>(argmax)]) argmax = k;
  }
  return p.label == argmax;
}

}  // namespace perfbench
