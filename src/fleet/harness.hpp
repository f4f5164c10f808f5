#pragma once

#include <vector>

#include "common/status.hpp"
#include "eval/harness.hpp"
#include "fleet/device_spec.hpp"
#include "fleet/drift_stream.hpp"
#include "repo/repository.hpp"

namespace qucad::fleet {

/// Fleet run knobs. The day window is split the same way the single-device
/// harness splits a CalibrationHistory: days [0, offline_days) build the
/// repository, days [offline_days, offline_days + online_days) are served.
struct FleetOptions {
  int offline_days = 30;  ///< repository-construction window per device
  int online_days = 16;   ///< served days per device
  /// Pool every n-th offline day per device into the repository build
  /// (the constructor profiles the pretrained model on every pooled day, so
  /// the stride is the offline-cost knob).
  int offline_stride = 1;
  /// Cap on test samples evaluated per device-day (0 = the whole test set).
  std::size_t max_eval_samples = 0;
  /// The longitudinal loop's own settings: serve every `day_stride`-th
  /// online day, and evaluate (and compress) under `backend` when set.
  HarnessOptions harness;
};

/// The fleet-aggregate view: one run_longitudinal row per device (named
/// after it) plus pooled repository traffic — the "one repository, many
/// noisy machines" accounting.
struct FleetResult {
  std::vector<MethodResult> devices;
  /// Metrics over every (device, day) accuracy sample pooled.
  SeriesMetrics aggregate;
  int reuses = 0;        ///< repository hits
  int new_models = 0;    ///< online compressions (repository misses)
  int failures = 0;      ///< Guidance-2 failure reports
  double optimize_seconds = 0.0;  ///< total online cost (process CPU s)
  /// The repository the offline build made from the pooled offline windows,
  /// before any online day added to it: what a serving deployment of the
  /// fleet starts from.
  ModelRepository offline_repository;
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
/// device's); online, one QuCadStrategy runs through run_longitudinal with
/// one stream per device, so each day every device's calibration goes
/// through the shared QuCAD online step — reuse, compress-new, or
/// failure-report — and the selected model is evaluated under that
/// device's noise.
///
/// All devices must share one topology class (qubit count + coupled edges):
/// calibration feature vectors are topology-dimensioned, so that is the
/// fleet a single repository can serve; create() rejects mixed fleets.
/// Decision counts and (with a deterministic backend) accuracies are a pure
/// function of (environment, config, options) — only timing fields vary.
class FleetHarness {
 public:
  /// Validates the fleet against the environment and synthesizes every
  /// device's drift stream. The evaluation backend must pass
  /// BackendRegistry::global().validate() (a kind with no registered
  /// factory is refused here, before any offline work). The environment is
  /// copied (the OnlineManager convention: a harness cannot dangle), with
  /// `options.harness.backend` and `options.max_eval_samples` applied to
  /// the copy.
  static StatusOr<FleetHarness> create(const Environment& env,
                                       const FleetConfig& config,
                                       FleetOptions options = {});

  /// Builds the repository and serves the online window. Evaluation errors
  /// (a calibration that does not cover the routed device, a backend
  /// factory that fails) surface as Status.
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
