#include "fleet/harness.hpp"

#include <chrono>
#include <utility>

#include "core/strategies.hpp"

namespace qucad::fleet {

namespace {

bool same_topology(const FluctuationScenario& a, const FluctuationScenario& b) {
  return a.num_qubits == b.num_qubits && a.edges == b.edges;
}

}  // namespace

StatusOr<FleetHarness> FleetHarness::create(const Environment& env,
                                            const FleetConfig& config,
                                            FleetOptions options) {
  if (Status status = config.validate(); !status.ok()) return status;
  if (options.offline_days < 1 || options.online_days < 1) {
    return Status::invalid_argument(
        "fleet offline_days and online_days must be >= 1");
  }
  if (options.day_stride < 1 || options.offline_stride < 1) {
    return Status::invalid_argument("fleet strides must be >= 1");
  }
  if (options.offline_days + options.online_days > config.days) {
    return Status::invalid_argument(
        "offline_days + online_days exceeds the fleet day count");
  }
  if (env.train.size() == 0 || env.test.size() == 0 ||
      env.profile.size() == 0) {
    return Status::invalid_argument(
        "fleet environment needs non-empty train/test/profile datasets");
  }
  if (options.backend.has_value()) {
    if (Status status = options.backend->validate(); !status.ok()) {
      return status;
    }
  }

  StatusOr<FluctuationScenario> first = config.devices.front().scenario();
  if (!first.ok()) return first.status();
  if (env.transpiled.num_physical_qubits() != first->num_qubits) {
    return Status::invalid_argument(
        "the environment's routed model spans " +
        std::to_string(env.transpiled.num_physical_qubits()) +
        " physical qubits but the fleet devices have " +
        std::to_string(first->num_qubits));
  }

  std::vector<DriftStream> streams;
  streams.reserve(config.devices.size());
  for (const DeviceSpec& spec : config.devices) {
    StatusOr<FluctuationScenario> scenario = spec.scenario();
    if (!scenario.ok()) return scenario.status();
    if (!same_topology(*first, *scenario)) {
      return Status::invalid_argument(
          "device '" + spec.name +
          "' has a different topology than the rest of the fleet; one "
          "repository serves one topology class (calibration features are "
          "topology-dimensioned)");
    }
    StatusOr<DriftStream> stream = DriftStream::create(spec, config.days);
    if (!stream.ok()) return stream.status();
    streams.push_back(*std::move(stream));
  }

  // The per-day evaluation settings live on the harness's own environment
  // copy, so the QuCAD strategy and the evaluator read one source.
  Environment harness_env = env;
  if (options.backend.has_value()) harness_env.eval.backend = *options.backend;
  if (options.max_eval_samples > 0 &&
      options.max_eval_samples < harness_env.test.size()) {
    harness_env.test = harness_env.test.take(options.max_eval_samples);
  }
  return FleetHarness(std::move(harness_env), config, options,
                      std::move(streams));
}

StatusOr<FleetResult> FleetHarness::run() {
  // Offline: one repository from the pooled offline windows of every
  // device's stream (interleaved device-major so the clustering sees the
  // fleet's regimes side by side).
  std::vector<Calibration> offline_pool;
  for (const DriftStream& stream : streams_) {
    for (int d = 0; d < options_.offline_days; d += options_.offline_stride) {
      offline_pool.push_back(stream.history().day(d));
    }
  }
  QuCadStrategy qucad(env_);
  qucad.offline(offline_pool);
  const std::size_t offline_entries = qucad.manager().repository().size();

  FleetResult result;
  result.devices.resize(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    result.devices[i].name = streams_[i].spec().name;
    result.devices[i].maintenance_events =
        static_cast<int>(streams_[i].maintenance_days().size());
  }

  std::vector<double> pooled;
  const int first_day = options_.offline_days;
  const int last_day = options_.offline_days + options_.online_days;
  for (int d = first_day; d < last_day; d += options_.day_stride) {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      FleetDeviceResult& device = result.devices[i];
      const Calibration& calibration = streams_[i].history().day(d);

      const auto start = std::chrono::steady_clock::now();
      // Failure days still serve the matched (invalid) model — the paper's
      // Table-I accounting — with the failure recorded below.
      const std::span<const double> theta = qucad.online_day(d, calibration);
      const OnlineManager::Decision& decision = qucad.last_decision();
      switch (decision.action) {
        case OnlineManager::Decision::Action::Reuse:
          ++device.reuses;
          break;
        case OnlineManager::Decision::Action::NewModel:
          ++device.new_models;
          break;
        case OnlineManager::Decision::Action::Failure:
          ++device.failures;
          break;
      }
      device.optimize_seconds += decision.optimize_seconds;

      StatusOr<NoisyEvalResult> evaluated =
          noisy_evaluate_or(env_.model, env_.transpiled, theta, env_.test,
                            calibration, env_.eval);
      if (!evaluated.ok()) return evaluated.status();

      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      device.daily_accuracy.push_back(evaluated->accuracy);
      device.day_seconds.push_back(seconds);
      pooled.push_back(evaluated->accuracy);
    }
  }

  for (FleetDeviceResult& device : result.devices) {
    device.metrics = summarize_series(device.daily_accuracy);
    result.reuses += device.reuses;
    result.new_models += device.new_models;
    result.failures += device.failures;
    result.optimize_seconds += device.optimize_seconds;
  }
  result.aggregate = summarize_series(pooled);
  result.repository_entries_offline = offline_entries;
  result.repository_entries_final = qucad.manager().repository().size();
  return result;
}

}  // namespace qucad::fleet
