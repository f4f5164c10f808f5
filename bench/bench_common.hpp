#pragma once

// Shared setup for the paper-reproduction benches and the run_all perf
// driver: dataset construction, pipeline configuration matching Sec. IV-A,
// the belem/jakarta noise histories (day 0 = Aug 10 2021; online window =
// last 146 days), and the deduplicated executor/backend workload builders
// (model + routing + theta + calibration in one struct, backends built via
// BackendRegistry instead of per-binary lowering blocks).

#include <iostream>
#include <memory>
#include <span>
#include <string>

#include "backend/registry.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/qucad.hpp"
#include "core/strategies.hpp"
#include "data/iris_synth.hpp"
#include "data/mnist_synth.hpp"
#include "data/seismic_synth.hpp"
#include "data/vibration_synth.hpp"
#include "eval/harness.hpp"
#include "fleet/device_spec.hpp"
#include "fleet/drift_stream.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/eval_cache.hpp"

namespace qucad::bench {

inline Dataset make_dataset(const std::string& name) {
  if (name == "mnist4") return make_mnist4(2000, 24);
  if (name == "iris") return make_iris(150, 7);
  if (name == "seismic") return make_seismic(1500, 11);
  if (name == "vibration") return make_vibration(2000, 23);
  require(false, "unknown dataset " + name);
  return {};
}

/// Paper-matched pipeline settings per dataset (Sec. IV-A): 2 VQC blocks for
/// MNIST/seismic, 3 for Iris; 90/10 splits (66.6/33.4 for Iris).
inline PipelineConfig paper_config(const std::string& dataset) {
  PipelineConfig config;
  if (dataset == "iris") {
    config.ansatz_repeats = 3;
    config.test_fraction = 0.334;
  }
  if (dataset == "mnist4") {
    config.max_train_samples = 160;  // 16-feature circuits are ~2x deeper
  }
  config.constructor_options.kmeans.k = 6;  // Table II setting
  config.constructor_options.admm = config.admm;
  config.manager_options.admm = config.admm;
  return config;
}

/// Synthesizes a device's calibration stream through the fleet machinery
/// (fleet::DriftStream) — the one calibration-generation code path the
/// paper-figure benches and the fleet simulator share. A bench
/// misconfiguration is a bug, so failures abort through require().
inline CalibrationHistory device_history(
    const fleet::DeviceSpec& spec,
    int days = CalibrationHistory::kTotalDays) {
  StatusOr<fleet::DriftStream> stream = fleet::DriftStream::create(spec, days);
  require(stream.ok(), stream.status().to_string());
  return stream->history();
}

/// The fig. 1/2/4 belem device (drift seed 2021, no maintenance events).
inline CalibrationHistory belem_history() {
  return device_history(fleet::DeviceSpec::belem());
}

/// The fig. 8 jakarta device (drift seed 1107).
inline CalibrationHistory jakarta_history() {
  return device_history(fleet::DeviceSpec::jakarta());
}

/// Dates of the online window for series printing.
inline std::vector<std::string> online_dates(const CalibrationHistory& history) {
  std::vector<std::string> dates;
  for (int d = CalibrationHistory::kOfflineDays; d < history.days(); ++d) {
    dates.push_back(history.date_string(d));
  }
  return dates;
}

/// Seeded uniform parameters in [-3, 3) — the shared bench theta init.
inline std::vector<double> bench_theta(int n, std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<double> theta(static_cast<std::size_t>(n));
  for (double& t : theta) t = rng.uniform(-3.0, 3.0);
  return theta;
}

/// One self-contained perf workload: the paper-scale model with a seeded
/// theta, routed on a device with a short drifting calibration history
/// (belem up to 5 qubits, jakarta above). Replaces the per-binary
/// history/model/theta/transpile setup blocks the bench sources used to
/// copy around.
struct BenchWorkload {
  CalibrationHistory history;
  QnnModel model;
  std::vector<double> theta;
  TranspiledModel transpiled;

  const Calibration& calib() const { return history.day(0); }
};

inline BenchWorkload make_workload(int qubits = 4, int classes = 2,
                                   int blocks = 2,
                                   std::uint64_t theta_seed = 7) {
  const bool on_belem = qubits <= 5;
  CalibrationHistory history(on_belem ? FluctuationScenario::belem()
                                      : FluctuationScenario::jakarta(),
                             10, 2021);
  QnnModel model = build_paper_model(qubits, qubits, classes, blocks);
  std::vector<double> theta = bench_theta(model.num_params(), theta_seed);
  TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits,
      on_belem ? CouplingMap::belem() : CouplingMap::jakarta(),
      &history.day(0));
  return BenchWorkload{std::move(history), std::move(model), std::move(theta),
                       std::move(transpiled)};
}

/// Registry context of a workload: exact expectations, executor cache on.
inline BackendContext workload_context(const BenchWorkload& workload) {
  BackendContext context;
  context.model = &workload.model;
  context.transpiled = &workload.transpiled;
  context.theta = workload.theta;
  context.calibration = &workload.calib();
  return context;
}

/// Builds an ExecutionBackend for the workload via BackendRegistry. A bench
/// misconfiguration is a bug, so failures abort through require().
inline std::shared_ptr<const ExecutionBackend> make_workload_backend(
    const BenchWorkload& workload, const BackendConfig& config = {}) {
  StatusOr<std::shared_ptr<const ExecutionBackend>> backend =
      make_backend(config, workload_context(workload));
  require(backend.ok(), backend.status().to_string());
  return *std::move(backend);
}

/// Theta-bound compiled noisy executor for an Environment — the raw engine
/// handle for benches that need density-matrix / probability access beyond
/// the backend interface (mitigation studies). Shares the environment's
/// noise options so results match the evaluator's.
inline std::shared_ptr<const CompiledExecutor> make_env_executor(
    const Environment& env, std::span<const double> theta,
    const Calibration& calib) {
  return build_noisy_executor(env.model, env.transpiled, theta, calib,
                              env.eval.noise);
}

}  // namespace qucad::bench
