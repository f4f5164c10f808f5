#include "fleet/harness.hpp"

#include <string>
#include <utility>

#include "backend/registry.hpp"
#include "common/require.hpp"
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
  if (options.harness.day_stride < 1 || options.offline_stride < 1) {
    return Status::invalid_argument("fleet strides must be >= 1");
  }
  // Subtract rather than add: both windows are positive, so this cannot
  // overflow where offline_days + online_days could.
  if (options.online_days > config.days - options.offline_days) {
    return Status::invalid_argument(
        "offline_days + online_days exceeds the fleet day count");
  }
  if (env.train.size() == 0 || env.test.size() == 0 ||
      env.profile.size() == 0) {
    return Status::invalid_argument(
        "fleet environment needs non-empty train/test/profile datasets");
  }
  // Refuse a backend the evaluations could not build now, not after the
  // offline repository build.
  if (Status status = BackendRegistry::global().validate(
          options.harness.backend.value_or(env.eval.backend));
      !status.ok()) {
    return status;
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
  if (options.harness.backend.has_value()) {
    harness_env.eval.backend = *options.harness.backend;
  }
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
  // fleet's regimes side by side). Online: one stream per device.
  std::vector<Calibration> offline_pool;
  std::vector<std::vector<Calibration>> online;
  online.reserve(streams_.size());
  for (const DriftStream& stream : streams_) {
    for (int d = 0; d < options_.offline_days; d += options_.offline_stride) {
      offline_pool.push_back(stream.history().day(d));
    }
    online.push_back(
        stream.history().slice(options_.offline_days, options_.online_days));
  }

  FleetResult result;
  QuCadStrategy qucad(env_);
  // create() validated every precondition of the research loop; anything
  // it still throws is an evaluation error, which leaves here as a Status.
  try {
    qucad.offline(offline_pool);
    result.repository_entries_offline = qucad.manager().repository().size();
    result.devices =
        run_longitudinal(qucad, env_, {}, online, options_.harness);
  } catch (const PreconditionError& e) {
    return Status::invalid_argument(std::string("fleet run failed: ") +
                                    e.what());
  }
  result.repository_entries_final = qucad.manager().repository().size();

  std::vector<double> pooled;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    MethodResult& device = result.devices[i];
    device.name = streams_[i].spec().name;
    pooled.insert(pooled.end(), device.daily_accuracy.begin(),
                  device.daily_accuracy.end());
    result.reuses += device.reuses;
    result.new_models += device.new_models;
    result.failures += device.failures;
    result.optimize_seconds += device.online_optimize_seconds;
  }
  result.aggregate = summarize_series(pooled);
  return result;
}

}  // namespace qucad::fleet
