#include "serve/inference_service.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "backend/registry.hpp"
#include "common/require.hpp"
#include "serve/result_cache.hpp"

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
  ResultCache cache;
  // Stable addresses: shards hold references to config/admission/cache and
  // run dispatcher threads, so they live behind unique_ptr and are neither
  // copied nor reallocated after create().
  std::vector<std::unique_ptr<ServingShard>> shards;

  // --- epoch state -------------------------------------------------------
  // Shards each hold their own epoch pointer; this is the service-level
  // view (what active_epoch()/active_theta() report after a broadcast).
  mutable std::mutex epoch_mutex;
  std::uint64_t current_epoch_id = 0;
  std::vector<double> current_theta;
  std::uint64_t next_epoch_id = 1;
  mutable std::mutex admin_mutex;  // serializes on_calibration events

  // --- monitoring --------------------------------------------------------
  // Calibration-event counters; the serving-path counters live on the
  // shards (submit_batch sweeps are counted by the shard that ran them).
  mutable std::mutex stats_mutex;
  std::uint64_t swaps = 0;
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
        admission(config.deadline_budget),
        cache(config.result_cache_capacity, config.result_cache_quantum) {
    shards.reserve(config.num_shards);
    for (std::size_t s = 0; s < config.num_shards; ++s) {
      shards.push_back(std::make_unique<ServingShard>(
          s, config, admission, cache.enabled() ? &cache : nullptr));
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

  /// Builds the next epoch and broadcasts it shard by shard: every shard
  /// gets its own backend instance for the same (theta, calibration) —
  /// resolved through the registry, sharing the compiled program via the
  /// executor cache — under ONE epoch id. A shard that is mid-sweep keeps
  /// its old snapshot until the batch finishes; shards are updated in
  /// index order, so during the broadcast early shards already serve the
  /// new epoch while late shards still serve the old one, and every
  /// prediction names whichever it ran on. The only writer of epoch state;
  /// callers hold admin_mutex (or are create()).
  std::uint64_t install_epoch(std::vector<double> theta,
                              const Calibration& calibration) {
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(epoch_mutex);
      id = next_epoch_id++;
    }
    for (const std::unique_ptr<ServingShard>& shard : shards) {
      auto epoch = std::make_shared<Epoch>();
      epoch->id = id;
      epoch->theta = theta;
      epoch->calibration = calibration;
      epoch->backend = build_backend(epoch->theta, calibration);
      shard->install_epoch(std::move(epoch));
    }
    std::lock_guard<std::mutex> lock(epoch_mutex);
    current_epoch_id = id;
    current_theta = std::move(theta);
    return id;
  }

  Status validate_features(const std::vector<double>& features) const {
    if (features.size() < min_features) {
      return Status::invalid_argument(
          "request has " + std::to_string(features.size()) +
          " features, the encoder reads " + std::to_string(min_features));
    }
    return Status();
  }

  /// Least-loaded shard, ties broken by the deterministic feature hash —
  /// or pure hash routing when configured.
  ServingShard& route(const std::vector<double>& features) {
    const std::size_t by_hash = route_by_hash(features, shards.size());
    if (config.routing == ServiceConfig::RoutingPolicy::kHash ||
        shards.size() == 1) {
      return *shards[by_hash];
    }
    std::size_t best = by_hash;
    std::size_t best_depth = std::numeric_limits<std::size_t>::max();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const std::size_t depth = shards[s]->queue_depth();
      if (depth < best_depth) {
        best = s;
        best_depth = depth;
      } else if (depth == best_depth && s == by_hash) {
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
  if (initial_calibration.num_qubits() < env.transpiled.num_physical_qubits()) {
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
  {
    std::lock_guard<std::mutex> lock(impl->stats_mutex);
    ++impl->swaps;
  }
  for (const std::unique_ptr<ServingShard>& shard : impl->shards) {
    shard->start();
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
  ServingShard& shard = impl_->route(features);
  if (impl_->cache.enabled()) {
    // Answer repeats from the shard's CURRENT epoch without queueing. The
    // key carries the epoch id, so a cached answer is exactly what this
    // epoch's sweep would compute (bitwise, for expectation backends) and
    // a hot-swap invalidates by construction.
    const std::shared_ptr<const Epoch> epoch = shard.epoch();
    if (std::optional<Prediction> hit =
            impl_->cache.lookup(epoch->id, features)) {
      std::promise<StatusOr<Prediction>> cached;
      cached.set_value(*std::move(hit));
      return cached.get_future();
    }
  }
  return shard.enqueue(std::move(features));
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
  // A caller-assembled batch bypasses queue and window: one sweep on the
  // routed shard's current epoch snapshot (all shards converge to the same
  // epoch outside an in-flight broadcast).
  ServingShard& shard = impl_->route(batch.front());
  const std::shared_ptr<const Epoch> epoch = shard.epoch();
  try {
    return shard.run_batch(*epoch, batch);
  } catch (const std::exception& e) {
    return Status::internal(std::string("batch sweep failed: ") + e.what());
  }
}

StatusOr<CalibrationReport> InferenceService::on_calibration(
    const Calibration& calibration) {
  if (calibration.num_qubits() < impl_->transpiled.num_physical_qubits()) {
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
  {
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    ++impl_->swaps;
  }
  return report;
}

std::uint64_t InferenceService::active_epoch() const {
  std::lock_guard<std::mutex> lock(impl_->epoch_mutex);
  return impl_->current_epoch_id;
}

std::vector<double> InferenceService::active_theta() const {
  std::lock_guard<std::mutex> lock(impl_->epoch_mutex);
  return impl_->current_theta;
}

ServingStats InferenceService::stats() const {
  ServingStats stats;
  {
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    stats.swaps = impl_->swaps;
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
  stats.cache_hits = impl_->cache.hits();
  stats.cache_lookups = impl_->cache.lookups();
  // Cache hits short-circuit the shards, but they are served requests all
  // the same.
  stats.requests += stats.cache_hits;
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

MethodResult run_longitudinal(InferenceService& service, const Dataset& test,
                              const std::vector<Calibration>& online_days,
                              const HarnessOptions& options) {
  require(!online_days.empty(), "no online days to evaluate");
  require(test.size() > 0, "empty test set");
  require(options.serve_clients >= 1,
          "serve_clients must be at least 1");

  MethodResult result;
  result.method = "InferenceService";
  result.daily_accuracy.reserve(online_days.size());

  // One day's traffic through the async serving path: `serve_clients`
  // submitters interleave the test set, each issuing submit_async and
  // gathering. Shed requests (bounded queue full) are retried with backoff
  // — the harness wants every sample's answer, so admission control
  // throttles it rather than dropping samples.
  const auto classify_day = [&]() -> std::vector<int> {
    std::vector<int> labels(test.size(), -1);
    std::vector<Status> failures(
        static_cast<std::size_t>(options.serve_clients));
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(options.serve_clients));
    for (int c = 0; c < options.serve_clients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c); i < test.size();
             i += static_cast<std::size_t>(options.serve_clients)) {
          for (int attempt = 0;; ++attempt) {
            StatusOr<Prediction> prediction =
                service.submit_async(test.features[i]).get();
            if (prediction.ok()) {
              labels[i] = prediction->label;
              break;
            }
            if (prediction.status().code() !=
                    StatusCode::kResourceExhausted ||
                attempt >= 10000) {
              failures[static_cast<std::size_t>(c)] = prediction.status();
              return;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    for (const Status& status : failures) {
      if (!status.ok()) require(false, status.to_string());
    }
    return labels;
  };

  for (std::size_t d = 0; d < online_days.size();
       d += static_cast<std::size_t>(options.day_stride)) {
    const StatusOr<CalibrationReport> report =
        service.on_calibration(online_days[d]);
    if (!report.ok()) require(false, report.status().to_string());
    result.online_optimize_seconds += report->decision.optimize_seconds;
    if (report->decision.action ==
        OnlineManager::Decision::Action::NewModel) {
      ++result.optimizations;
    }

    const std::vector<int> labels = classify_day();
    std::size_t correct = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == test.labels[i]) ++correct;
    }
    result.daily_accuracy.push_back(static_cast<double>(correct) /
                                    static_cast<double>(test.size()));
  }

  result.metrics = summarize_series(result.daily_accuracy);
  return result;
}

}  // namespace qucad
