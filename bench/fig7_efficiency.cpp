// Figure 7 reproduction: online training time vs mean accuracy on 4-class
// MNIST. The paper reports QuCAD cutting online optimization time ~146x vs
// "compression everyday" and ~110x vs "noise-aware train everyday" while
// matching or beating their accuracy — the speedup comes from reusing
// repository models instead of re-optimizing.

#include <memory>

#include "bench_common.hpp"

using namespace qucad;
using namespace qucad::bench;

int main() {
  const CalibrationHistory history = belem_history();
  const auto offline = history.slice(0, CalibrationHistory::kOfflineDays);
  const auto online = history.slice(CalibrationHistory::kOfflineDays,
                                    CalibrationHistory::kOnlineDays);

  const Environment env =
      prepare_environment(make_dataset("mnist4"), CouplingMap::belem(),
                          history.day(0), paper_config("mnist4"));

  std::vector<std::unique_ptr<Strategy>> strategies;
  strategies.push_back(std::make_unique<CompressionEverydayStrategy>(
      env, CompressionMode::NoiseAware));
  strategies.push_back(std::make_unique<NoiseAwareTrainEverydayStrategy>(env));
  strategies.push_back(std::make_unique<QuCadWithoutOfflineStrategy>(env));
  strategies.push_back(std::make_unique<QuCadStrategy>(env));

  std::vector<MethodResult> results;
  for (auto& strategy : strategies) {
    const bool wants_offline = strategy->name() == "QuCAD";
    results.push_back(
        run_longitudinal(*strategy, env,
                         wants_offline ? offline : std::vector<Calibration>{},
                         {online})
            .front());
  }

  // Normalize online optimization time to QuCAD's (the paper's unit of 1).
  const double qucad_time = std::max(results.back().online_optimize_seconds, 1e-9);

  std::cout << "=== Fig. 7: online training time vs accuracy (4-class MNIST, "
               "146 days) ===\n\n";
  TextTable table({"Method", "Mean Acc", "Online opt (s)", "Normalized time",
                   "#opt runs"});
  for (const MethodResult& r : results) {
    table.add_row({r.method, fmt_pct(r.metrics.mean_accuracy),
                   fmt(r.online_optimize_seconds, 2),
                   fmt(r.online_optimize_seconds / qucad_time, 1) + "x",
                   std::to_string(r.optimizations)});
  }
  table.print(std::cout);

  std::cout << "\nPaper reference: normalized training times 146.1 "
               "(compression everyday),\n110.3 (noise-aware train everyday), "
               "6.9 (QuCAD w/o offline), 1.0 (QuCAD),\nwith QuCAD's accuracy "
               "highest — reuse beats re-optimization.\n";
  return 0;
}
