#pragma once

#include <iosfwd>
#include <optional>

#include "backend/backend.hpp"
#include "core/strategy.hpp"
#include "eval/metrics.hpp"

namespace qucad {

struct HarnessOptions {
  /// Days between evaluations (1 = every day, matching the paper).
  int day_stride = 1;
  bool verbose = false;
  /// Execution regime override for the daily evaluation. Unset, the
  /// environment's own `eval.backend` applies (exact density noise by
  /// default); set it to replay the same longitudinal comparison under a
  /// different regime — e.g. kSampled to ask how the paper's conclusions
  /// shift with hardware-like finite-shot readout, or kPureStatevector for
  /// the noise-free ceiling.
  std::optional<BackendConfig> backend;
};

/// Runs one strategy over the online calibration window: offline() on the
/// historical days, then for each online day adapt + evaluate on the test
/// set under that day's exact noise model (or the regime selected by
/// `options.backend`). `options.day_stride` must be >= 1.
MethodResult run_longitudinal(Strategy& strategy, const Environment& env,
                              const std::vector<Calibration>& offline_history,
                              const std::vector<Calibration>& online_days,
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
