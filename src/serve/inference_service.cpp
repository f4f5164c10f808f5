#include "serve/inference_service.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <utility>

#include "backend/registry.hpp"
#include "common/require.hpp"

namespace qucad {

struct InferenceService::Impl {
  // Only the members the serving path reads live here. The OnlineManager
  // keeps its own copies of the model/routing/theta (it copies every ctor
  // input by value — small relative to the datasets) and is the sole owner
  // of the training data; the Environment's datasets are never stored
  // twice or kept alive unused.
  QnnModel model;
  TranspiledModel transpiled;
  std::vector<double> theta_pretrained;
  ServiceConfig config;
  OnlineManager manager;
  std::size_t min_features = 0;  // encoder input arity

  // --- sharded serving plane ---------------------------------------------
  AdmissionController admission;
  // The one current epoch every shard and submit path reads; written only
  // by install_epoch. Declared before the shards, which borrow it.
  EpochSlot epoch;
  // Stable addresses: shards hold references to config/admission/epoch
  // and run dispatcher threads, so they live behind unique_ptr and are
  // neither copied nor reallocated after create().
  std::vector<std::unique_ptr<ServingShard>> shards;
  mutable std::mutex admin_mutex;  // serializes on_calibration events

  // --- monitoring --------------------------------------------------------
  // Calibration-event counters; the serving-path counters live on the
  // shards (submit_batch sweeps are counted by the shard that ran them).
  mutable std::mutex stats_mutex;
  std::uint64_t reuses = 0;
  std::uint64_t compressions = 0;
  std::uint64_t failures = 0;

  Impl(Environment env, ModelRepository repository, ServiceConfig config_in)
      : model(std::move(env.model)),
        transpiled(std::move(env.transpiled)),
        theta_pretrained(std::move(env.theta_pretrained)),
        config(std::move(config_in)),
        manager(model, transpiled, theta_pretrained, env.train,
                std::move(repository), config.manager),
        min_features(static_cast<std::size_t>(model.num_inputs())),
        admission(config.deadline_budget) {
    shards.reserve(config.num_shards);
    for (std::size_t s = 0; s < config.num_shards; ++s) {
      shards.push_back(
          std::make_unique<ServingShard>(s, config, admission, epoch));
    }
  }

  // Shards close their queues and join their dispatchers in ~ServingShard;
  // nothing else to unwind.
  ~Impl() = default;

  std::shared_ptr<const ExecutionBackend> build_backend(
      std::span<const double> theta, const Calibration& calibration) const {
    BackendContext context;
    context.model = &model;
    context.transpiled = &transpiled;
    context.theta = theta;
    context.calibration = &calibration;
    context.noise = config.eval.noise;
    context.use_cache = config.eval.use_cache;
    StatusOr<std::shared_ptr<const ExecutionBackend>> backend =
        BackendRegistry::global().make(config.eval.backend, context);
    // Callers (create / on_calibration) wrap epoch installation in a
    // try/catch that converts to Status — surface registry failures the
    // same way.
    require(backend.ok(), backend.status().to_string());
    return *std::move(backend);
  }

  /// Builds one backend for (theta, calibration) and publishes it as the
  /// next epoch in a single store, so every shard moves at once. A build
  /// that throws installs nothing and consumes no id, which keeps ids
  /// gapless: the id of the current epoch is the number of installs. A
  /// batch that is mid-sweep keeps the snapshot it grabbed. The only writer
  /// of `epoch`; callers hold admin_mutex (or are create()).
  std::uint64_t install_epoch(std::vector<double> theta,
                              const Calibration& calibration) {
    auto next = std::make_shared<Epoch>();
    next->backend = build_backend(theta, calibration);
    const std::shared_ptr<const Epoch> current = epoch.load();
    next->id = current == nullptr ? 1 : current->id + 1;
    next->theta = std::move(theta);
    epoch.store(next);
    return next->id;
  }

  Status validate_features(const std::vector<double>& features) const {
    if (features.size() < min_features) {
      return Status::invalid_argument(
          "request has " + std::to_string(features.size()) +
          " features, the encoder reads " + std::to_string(min_features));
    }
    return Status();
  }

  /// The shard with the fewest outstanding requests (queued or mid-sweep),
  /// ties broken by the deterministic feature hash.
  ServingShard& route(const std::vector<double>& features) {
    const std::size_t by_hash = route_by_hash(features, shards.size());
    if (shards.size() == 1) return *shards[by_hash];
    std::size_t best = by_hash;
    std::uint64_t best_load = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const std::uint64_t load = shards[s]->outstanding();
      if (load < best_load) {
        best = s;
        best_load = load;
      } else if (load == best_load && s == by_hash) {
        best = s;  // hash fallback wins ties deterministically
      }
    }
    return *shards[best];
  }
};

StatusOr<InferenceService> InferenceService::create(
    Environment env, ModelRepository repository,
    const Calibration& initial_calibration,
    std::optional<ServiceConfig> config) {
  ServiceConfig resolved =
      config.has_value() ? std::move(*config) : ServiceConfig::from_environment(env);
  if (Status status = resolved.validate(); !status.ok()) return status;

  if (env.model.readout_qubits.empty()) {
    return Status::failed_precondition("model has no readout qubits");
  }
  if (static_cast<int>(env.theta_pretrained.size()) != env.model.num_params()) {
    return Status::invalid_argument(
        "theta_pretrained has " + std::to_string(env.theta_pretrained.size()) +
        " parameters, model has " + std::to_string(env.model.num_params()));
  }
  if (env.train.size() == 0) {
    return Status::failed_precondition(
        "empty training set: calibration events that miss the repository "
        "compress a new model online and need training data");
  }
  if (initial_calibration.num_qubits() !=
      env.transpiled.num_physical_qubits()) {
    return Status::invalid_argument(
        "calibration covers " + std::to_string(initial_calibration.num_qubits()) +
        " qubits, the routed circuit uses " +
        std::to_string(env.transpiled.num_physical_qubits()));
  }

  auto impl = std::make_unique<Impl>(std::move(env), std::move(repository),
                                     std::move(resolved));
  try {
    impl->install_epoch(impl->theta_pretrained, initial_calibration);
  } catch (const std::exception& e) {
    return Status::invalid_argument(
        std::string("cannot compile the initial epoch: ") + e.what());
  }
  // On failure the shards that did start are closed and joined as `impl`
  // goes out of scope.
  for (const std::unique_ptr<ServingShard>& shard : impl->shards) {
    if (Status status = shard->start(); !status.ok()) return status;
  }
  return InferenceService(std::move(impl));
}

InferenceService::InferenceService(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

InferenceService::~InferenceService() = default;
InferenceService::InferenceService(InferenceService&&) noexcept = default;
InferenceService& InferenceService::operator=(InferenceService&&) noexcept =
    default;

std::future<StatusOr<Prediction>> InferenceService::submit_async(
    std::vector<double> features) {
  if (Status status = impl_->validate_features(features); !status.ok()) {
    std::promise<StatusOr<Prediction>> rejected;
    rejected.set_value(std::move(status));
    return rejected.get_future();
  }
  return impl_->route(features).enqueue(std::move(features));
}

StatusOr<Prediction> InferenceService::submit(std::vector<double> features) {
  return submit_async(std::move(features)).get();
}

StatusOr<std::vector<Prediction>> InferenceService::submit_batch(
    std::span<const std::vector<double>> batch) {
  if (batch.empty()) return Status::invalid_argument("empty batch");
  for (const std::vector<double>& features : batch) {
    if (Status status = impl_->validate_features(features); !status.ok()) {
      return status;
    }
  }
  // A caller-assembled batch bypasses the queue: one sweep on the
  // current epoch, counted against the routed shard.
  const std::shared_ptr<const Epoch> epoch = impl_->epoch.load();
  try {
    return impl_->route(batch.front()).run_batch(*epoch, batch);
  } catch (const std::exception& e) {
    return Status::internal(std::string("batch sweep failed: ") + e.what());
  }
}

StatusOr<CalibrationReport> InferenceService::on_calibration(
    const Calibration& calibration) {
  if (calibration.num_qubits() != impl_->transpiled.num_physical_qubits()) {
    return Status::invalid_argument(
        "calibration covers " + std::to_string(calibration.num_qubits()) +
        " qubits, the routed circuit uses " +
        std::to_string(impl_->transpiled.num_physical_qubits()));
  }

  // One calibration event at a time; requests keep serving the current
  // epoch for however long the repository decision (possibly a full online
  // compression) takes.
  std::lock_guard<std::mutex> admin(impl_->admin_mutex);

  CalibrationReport report;
  try {
    report.decision = impl_->manager.process_day(calibration);
  } catch (const std::exception& e) {
    return Status::internal(std::string("repository decision failed: ") +
                            e.what());
  }
  {
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    using Action = OnlineManager::Decision::Action;
    if (report.decision.action == Action::Reuse) ++impl_->reuses;
    if (report.decision.action == Action::NewModel) ++impl_->compressions;
    if (report.decision.action == Action::Failure) ++impl_->failures;
  }

  const StatusOr<std::span<const double>> theta =
      impl_->manager.theta_for_decision(report.decision);
  std::vector<double> next_theta;
  if (theta.ok()) {
    next_theta.assign(theta->begin(), theta->end());
  } else {
    report.failure = theta.status();
    if (impl_->config.failure_policy ==
            ServiceConfig::FailurePolicy::kKeepServing ||
        report.decision.entry_index < 0) {
      // Guidance 2: keep the trusted epoch, hand the operator the report.
      report.swapped = false;
      report.epoch = active_epoch();
      return report;
    }
    // kServeMatched: install the matched-but-invalid model anyway.
    next_theta =
        impl_->manager.repository().entry(report.decision.entry_index).theta;
  }

  try {
    report.epoch = impl_->install_epoch(std::move(next_theta), calibration);
  } catch (const std::exception& e) {
    return Status::internal(std::string("cannot compile the new epoch: ") +
                            e.what());
  }
  report.swapped = true;
  return report;
}

std::uint64_t InferenceService::active_epoch() const {
  return impl_->epoch.load()->id;
}

std::vector<double> InferenceService::active_theta() const {
  return impl_->epoch.load()->theta;
}

ServingStats InferenceService::stats() const {
  ServingStats stats;
  // Ids are gapless from 1, so the current id counts every install.
  stats.swaps = active_epoch();
  {
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    stats.reuses = impl_->reuses;
    stats.compressions = impl_->compressions;
    stats.failures = impl_->failures;
  }
  for (const std::unique_ptr<ServingShard>& shard : impl_->shards) {
    const ShardStats s = shard->stats();
    stats.requests += s.requests;
    stats.batches += s.batches;
    stats.coalesced += s.coalesced;
    stats.shed += s.shed;
    stats.deadline_misses += s.deadline_misses;
    stats.queue_depth += s.queue_depth;
  }
  return stats;
}

std::vector<ShardStats> InferenceService::shard_stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(impl_->shards.size());
  for (const std::unique_ptr<ServingShard>& shard : impl_->shards) {
    stats.push_back(shard->stats());
  }
  return stats;
}

RepositorySnapshot InferenceService::repository_snapshot() const {
  // The calibration lock serializes against on_calibration: the snapshot
  // can never observe a half-applied repository decision.
  std::lock_guard<std::mutex> admin(impl_->admin_mutex);
  RepositorySnapshot snapshot;
  snapshot.entries = impl_->manager.repository().size();
  snapshot.threshold = impl_->manager.repository().threshold();
  snapshot.optimizations = impl_->manager.optimizations_run();
  snapshot.reuses = impl_->manager.reuses();
  snapshot.total_optimize_seconds = impl_->manager.total_optimize_seconds();
  return snapshot;
}

const OnlineManager& InferenceService::manager() const {
  return impl_->manager;
}

}  // namespace qucad
