// 4-class MNIST under a noise surge: compares how the baseline, noise-aware
// training and QuCAD behave across a 30-day window that contains a global
// noise episode (the paper's Fig. 2 phenomenon in miniature).

#include <iostream>

#include "common/table.hpp"
#include "core/qucad.hpp"
#include "core/strategies.hpp"
#include "data/mnist_synth.hpp"
#include "eval/harness.hpp"
#include "noise/calibration_history.hpp"

using namespace qucad;

int main() {
  const CalibrationHistory history(FluctuationScenario::belem(),
                                   CalibrationHistory::kTotalDays, 2021);

  PipelineConfig config;
  config.max_train_samples = 160;
  config.max_test_samples = 80;
  config.constructor_options.kmeans.k = 5;
  const Environment env = prepare_environment(
      make_mnist4(1200, 24), CouplingMap::belem(), history.day(0), config);

  // A window straddling the global surge (days 263..287).
  const auto offline = history.slice(0, CalibrationHistory::kOfflineDays);
  const auto window = history.slice(255, 30);
  std::vector<std::string> dates;
  for (int d = 255; d < 285; ++d) dates.push_back(history.date_string(d));

  BaselineStrategy baseline(env);
  NoiseAwareTrainEverydayStrategy nat(env);
  QuCadStrategy qucad(env);

  const MethodResult r_base =
      run_longitudinal(baseline, env, {}, {window}).front();
  const MethodResult r_nat = run_longitudinal(nat, env, {}, {window}).front();
  const MethodResult r_qucad =
      run_longitudinal(qucad, env, offline, {window}).front();

  std::cout << "=== 4-class MNIST through a noise surge (" << dates.front()
            << " .. " << dates.back() << ") ===\n\n";
  TextTable table({"Date", "Baseline", "NAT everyday", "QuCAD"});
  for (std::size_t d = 0; d < window.size(); d += 2) {
    table.add_row({dates[d], fmt_pct(r_base.daily_accuracy[d]),
                   fmt_pct(r_nat.daily_accuracy[d]),
                   fmt_pct(r_qucad.daily_accuracy[d])});
  }
  table.print(std::cout);

  std::cout << "\nmeans: baseline " << fmt_pct(r_base.metrics.mean_accuracy)
            << ", NAT " << fmt_pct(r_nat.metrics.mean_accuracy) << " ("
            << r_nat.optimizations << " retrainings), QuCAD "
            << fmt_pct(r_qucad.metrics.mean_accuracy) << " ("
            << r_qucad.optimizations << " online optimizations)\n";
  return 0;
}
