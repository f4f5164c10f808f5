#include "eval/harness.hpp"

#include <ostream>

#include "common/require.hpp"
#include "common/table.hpp"

namespace qucad {

MethodResult run_longitudinal(Strategy& strategy, const Environment& env,
                              const std::vector<Calibration>& offline_history,
                              const std::vector<Calibration>& online_days,
                              const HarnessOptions& options) {
  require(!online_days.empty(), "no online days to evaluate");
  require(options.day_stride >= 1, "day_stride must be >= 1");
  require(!options.backend.has_value() || options.backend->validate().ok(),
          "harness backend config is invalid");
  if (!offline_history.empty()) strategy.offline(offline_history);

  MethodResult result;
  result.method = strategy.name();
  result.daily_accuracy.reserve(online_days.size());

  NoisyEvalOptions eval = env.eval;
  if (options.backend.has_value()) eval.backend = *options.backend;

  for (std::size_t d = 0; d < online_days.size();
       d += static_cast<std::size_t>(options.day_stride)) {
    const Calibration& calib = online_days[d];
    const std::span<const double> theta =
        strategy.online_day(static_cast<int>(d), calib);
    result.daily_accuracy.push_back(
        noisy_accuracy(env.model, env.transpiled, theta, env.test, calib, eval));
  }

  result.metrics = summarize_series(result.daily_accuracy);
  result.online_optimize_seconds = strategy.online_optimize_seconds();
  result.offline_optimize_seconds = strategy.offline_optimize_seconds();
  result.optimizations = strategy.optimizations();
  return result;
}

void print_comparison_table(std::ostream& os,
                            const std::vector<MethodResult>& results,
                            const std::string& dataset_name) {
  require(!results.empty(), "no results to print");
  const SeriesMetrics& base = results.front().metrics;

  TextTable table({"Method", "Mean Acc", "vs Base", "Variance", "Days>0.8",
                   "vs", "Days>0.7", "vs", "Days>0.5", "vs", "Online opt (s)",
                   "#opt"});
  for (const MethodResult& r : results) {
    const SeriesMetrics& m = r.metrics;
    table.add_row({r.method, fmt_pct(m.mean_accuracy),
                   fmt_pct_signed(m.mean_accuracy - base.mean_accuracy),
                   fmt(m.variance, 3), std::to_string(m.days_over_08),
                   std::to_string(m.days_over_08 - base.days_over_08),
                   std::to_string(m.days_over_07),
                   std::to_string(m.days_over_07 - base.days_over_07),
                   std::to_string(m.days_over_05),
                   std::to_string(m.days_over_05 - base.days_over_05),
                   fmt(r.online_optimize_seconds, 2),
                   std::to_string(r.optimizations)});
  }
  os << "=== " << dataset_name << " ===\n" << table.to_string();
}

void print_accuracy_series(std::ostream& os, const MethodResult& result,
                           const std::vector<std::string>& dates, int stride) {
  require(stride >= 1, "stride must be >= 1");
  os << result.method << ":\n";
  for (std::size_t d = 0; d < result.daily_accuracy.size();
       d += static_cast<std::size_t>(stride)) {
    const std::string date = d < dates.size() ? dates[d] : std::to_string(d);
    os << "  " << date << "  " << fmt_pct(result.daily_accuracy[d]) << "\n";
  }
}

}  // namespace qucad
