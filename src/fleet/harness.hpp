#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/strategy.hpp"
#include "eval/metrics.hpp"
#include "fleet/device_spec.hpp"
#include "fleet/drift_stream.hpp"

namespace qucad::fleet {

/// Fleet run knobs. The day window is split the same way the single-device
/// harness splits a CalibrationHistory: days [0, offline_days) build the
/// repository, days [offline_days, offline_days + online_days) are served.
struct FleetOptions {
  int offline_days = 30;  ///< repository-construction window per device
  int online_days = 16;   ///< served days per device
  int day_stride = 1;     ///< serve every n-th online day
  /// Pool every n-th offline day per device into the repository build
  /// (the constructor profiles the pretrained model on every pooled day, so
  /// the stride is the offline-cost knob).
  int offline_stride = 1;
  /// Cap on test samples evaluated per device-day (0 = the whole test set).
  std::size_t max_eval_samples = 0;
  /// Overrides the environment's execution backend for the per-day accuracy
  /// evaluations (e.g. the remote stub kind) — same convention as
  /// HarnessOptions::backend.
  std::optional<BackendConfig> backend;
  bool verbose = false;
};

/// One device's slice of a fleet run.
struct FleetDeviceResult {
  std::string name;
  std::vector<double> daily_accuracy;  ///< one entry per served day
  std::vector<double> day_seconds;     ///< wall time per served day
  SeriesMetrics metrics;
  int reuses = 0;
  int new_models = 0;
  int failures = 0;
  double optimize_seconds = 0.0;
  int maintenance_events = 0;  ///< over the device's whole stream
};

/// The fleet-aggregate view: per-device results plus pooled repository
/// traffic — the "one repository, many noisy machines" accounting.
struct FleetResult {
  std::vector<FleetDeviceResult> devices;
  /// Metrics over every (device, day) accuracy sample pooled.
  SeriesMetrics aggregate;
  int reuses = 0;        ///< repository hits
  int new_models = 0;    ///< online compressions (repository misses)
  int failures = 0;      ///< Guidance-2 failure reports
  double optimize_seconds = 0.0;  ///< total online-compression cost
  std::size_t repository_entries_offline = 0;
  std::size_t repository_entries_final = 0;

  int decisions() const { return reuses + new_models + failures; }

  /// Repository hit share of all decisions (0 when nothing was decided).
  double reuse_rate() const {
    const int n = decisions();
    return n == 0 ? 0.0 : static_cast<double>(reuses) / n;
  }
};

/// Runs ONE model repository against every device of a fleet
/// longitudinally. Offline, the repository is built from the pooled offline
/// windows of all drift streams (it learns the fleet's regimes, not one
/// device's); online, each day every device's calibration goes through the
/// one shared QuCAD online step (QuCadStrategy::online_day) — reuse,
/// compress-new, or failure-report — and the selected model is evaluated
/// under that device's noise.
///
/// All devices must share one topology class (qubit count + coupled edges):
/// calibration feature vectors are topology-dimensioned, so that is the
/// fleet a single repository can serve; create() rejects mixed fleets.
/// Decision counts and (with a deterministic backend) accuracies are a pure
/// function of (environment, config, options) — only timing fields vary.
class FleetHarness {
 public:
  /// Validates the fleet against the environment and synthesizes every
  /// device's drift stream. The environment is copied (the OnlineManager
  /// convention: a harness cannot dangle), with `options.backend` and
  /// `options.max_eval_samples` applied to the copy.
  static StatusOr<FleetHarness> create(const Environment& env,
                                       const FleetConfig& config,
                                       FleetOptions options = {});

  /// Builds the repository and serves the online window. Evaluation errors
  /// (a calibration that does not cover the routed device, a misconfigured
  /// backend) surface as Status.
  StatusOr<FleetResult> run();

  const std::vector<DriftStream>& streams() const { return streams_; }

 private:
  FleetHarness(Environment env, FleetConfig config, FleetOptions options,
               std::vector<DriftStream> streams)
      : env_(std::move(env)),
        config_(std::move(config)),
        options_(options),
        streams_(std::move(streams)) {}

  Environment env_;
  FleetConfig config_;
  FleetOptions options_;
  std::vector<DriftStream> streams_;
};

}  // namespace qucad::fleet
