#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "core/strategy.hpp"
#include "eval/metrics.hpp"

namespace qucad {

struct HarnessOptions {
  /// Days between evaluations (1 = every day, matching the paper).
  int day_stride = 1;
  /// Execution regime override for the daily evaluation. Unset, the
  /// environment's own `eval.backend` applies (exact density noise by
  /// default); set it to replay the same longitudinal comparison under a
  /// different regime — e.g. kSampled to ask how the paper's conclusions
  /// shift with hardware-like finite-shot readout, or kPureStatevector for
  /// the noise-free ceiling.
  std::optional<BackendConfig> backend;
};

/// One served day of one calibration stream: what the strategy decided and
/// how the day went.
struct DayRecord {
  int day = 0;  ///< index into the stream's online window
  /// The Sec. III-D decision (action, matched entry, match distance vs the
  /// threshold `th_w`, and the manager's wall-clock compression seconds).
  /// Empty for strategies without a model repository.
  std::optional<OnlineManager::Decision> decision;
  /// The strategy's online optimization cost that day (process CPU seconds).
  double optimize_seconds = 0.0;
  double accuracy = 0.0;      ///< under that day's noise
  double wall_seconds = 0.0;  ///< adapt + evaluate
};

/// One calibration stream's row of a longitudinal comparison: a Table I row,
/// or one device of a fleet.
struct MethodResult {
  std::string method;  ///< the strategy's name
  std::string name;    ///< the stream's name (a fleet's device); may be empty
  std::vector<DayRecord> days;         ///< one per served day
  std::vector<double> daily_accuracy;  ///< days[i].accuracy
  std::vector<double> day_seconds;     ///< days[i].wall_seconds
  SeriesMetrics metrics;
  double online_optimize_seconds = 0.0;   // process CPU seconds
  double offline_optimize_seconds = 0.0;  // process CPU seconds
  int optimizations = 0;
  /// Repository decisions by action (all zero without a repository).
  int reuses = 0;
  int new_models = 0;
  int failures = 0;
};

/// THE longitudinal loop. Runs one strategy over one or more online
/// calibration streams (one per device): offline() on the historical days
/// (skipped when `offline_history` is empty), then day by day, and within a
/// day stream by stream, adapt + evaluate on the test set under that
/// stream's noise for the day (or the regime selected by
/// `options.backend`). Returns one result per stream, in stream order. The
/// day-outer order matters when the strategy learns online: a repository
/// grown from one device's calibration serves the next device the same
/// day.
///
/// The streams must be non-empty and of one length, `options.day_stride`
/// must be >= 1 and the evaluation backend (`options.backend`, else the
/// environment's) must pass BackendRegistry::global().validate(); all are
/// checked before offline().
std::vector<MethodResult> run_longitudinal(
    Strategy& strategy, const Environment& env,
    const std::vector<Calibration>& offline_history,
    const std::vector<std::vector<Calibration>>& online_streams,
    const HarnessOptions& options = {});

/// Prints the Table-I style comparison (metrics + deltas vs. the first row).
void print_comparison_table(std::ostream& os,
                            const std::vector<MethodResult>& results,
                            const std::string& dataset_name);

/// Prints a date-indexed accuracy series (Fig. 2/4/8/9 style), every
/// `stride`-th day (>= 1).
void print_accuracy_series(std::ostream& os, const MethodResult& result,
                           const std::vector<std::string>& dates,
                           int stride = 7);

}  // namespace qucad
