#include "eval/harness.hpp"

#include <chrono>
#include <ostream>

#include "backend/registry.hpp"
#include "common/require.hpp"
#include "common/table.hpp"
#include "core/strategies.hpp"

namespace qucad {

std::vector<MethodResult> run_longitudinal(
    Strategy& strategy, const Environment& env,
    const std::vector<Calibration>& offline_history,
    const std::vector<std::vector<Calibration>>& online_streams,
    const HarnessOptions& options) {
  require(!online_streams.empty(), "no online streams to evaluate");
  const std::size_t days = online_streams.front().size();
  require(days > 0, "no online days to evaluate");
  for (const std::vector<Calibration>& stream : online_streams) {
    require(stream.size() == days, "online streams differ in length");
  }
  require(options.day_stride >= 1, "day_stride must be >= 1");
  NoisyEvalOptions eval = env.eval;
  if (options.backend.has_value()) eval.backend = *options.backend;
  require(BackendRegistry::global().validate(eval.backend).ok(),
          "harness backend config is invalid");
  if (!offline_history.empty()) strategy.offline(offline_history);

  // Only the QuCAD strategies keep a repository, so only they decide.
  const auto* qucad = dynamic_cast<const QuCadStrategy*>(&strategy);

  std::vector<MethodResult> results(online_streams.size());
  for (std::size_t d = 0; d < days;
       d += static_cast<std::size_t>(options.day_stride)) {
    for (std::size_t s = 0; s < online_streams.size(); ++s) {
      const Calibration& calib = online_streams[s][d];
      MethodResult& result = results[s];
      const double cost_before = strategy.online_optimize_seconds();
      const int optimizations_before = strategy.optimizations();
      const auto start = std::chrono::steady_clock::now();

      DayRecord record;
      record.day = static_cast<int>(d);
      const std::span<const double> theta =
          strategy.online_day(record.day, calib);
      record.accuracy = noisy_accuracy(env.model, env.transpiled, theta,
                                       env.test, calib, eval);
      record.wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
      record.optimize_seconds =
          strategy.online_optimize_seconds() - cost_before;
      if (qucad != nullptr) record.decision = qucad->last_decision();
      result.optimizations += strategy.optimizations() - optimizations_before;
      result.days.push_back(record);
    }
  }

  for (MethodResult& result : results) {
    result.method = strategy.name();
    result.offline_optimize_seconds = strategy.offline_optimize_seconds();
    for (const DayRecord& record : result.days) {
      result.daily_accuracy.push_back(record.accuracy);
      result.day_seconds.push_back(record.wall_seconds);
      result.online_optimize_seconds += record.optimize_seconds;
      if (!record.decision.has_value()) continue;
      switch (record.decision->action) {
        case OnlineManager::Decision::Action::Reuse:
          ++result.reuses;
          break;
        case OnlineManager::Decision::Action::NewModel:
          ++result.new_models;
          break;
        case OnlineManager::Decision::Action::Failure:
          ++result.failures;
          break;
      }
    }
    result.metrics = summarize_series(result.daily_accuracy);
  }
  return results;
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
