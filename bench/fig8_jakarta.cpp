// Figure 8 reproduction: earthquake detection on the 7-qubit jakarta
// device. Five rounds at different calibration times; Baseline vs
// noise-aware training vs QuCAD. The paper reports QuCAD consistently
// ~+13% over both competitors with visibly more stable accuracy.

#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace qucad;
using namespace qucad::bench;

int main() {
  // The fig. 8 device as a fleet DeviceSpec — same generator as the fleet
  // simulator's jakarta devices.
  const fleet::DeviceSpec device = fleet::DeviceSpec::jakarta();
  const CalibrationHistory history = device_history(device);
  // Subsample the offline history 3x: 7-qubit density matrices are ~16x
  // more expensive than belem's and the clusters are unchanged.
  std::vector<Calibration> offline;
  for (int d = 0; d < CalibrationHistory::kOfflineDays; d += 3) {
    offline.push_back(history.day(d));
  }

  PipelineConfig config = paper_config("seismic");
  config.profile_samples = 32;
  config.constructor_options.profile_samples = 32;
  const StatusOr<CouplingMap> coupling = device.coupling();
  require(coupling.ok(), coupling.status().to_string());
  const Environment env = prepare_environment(make_dataset("seismic"),
                                              *coupling, history.day(0), config);

  // Five "execution rounds" at different times in the online window,
  // including the edge-<1,3> episode around day 317: the online stream each
  // strategy runs through.
  const int rounds[5] = {250, 275, 317, 330, 370};
  std::vector<Calibration> stream;
  for (int day : rounds) stream.push_back(history.day(day));

  BaselineStrategy baseline(env);
  NoiseAwareTrainOnceStrategy nat(env);
  QuCadStrategy qucad(env);
  const MethodResult results[3] = {
      run_longitudinal(baseline, env, {}, {stream}).front(),
      run_longitudinal(nat, env, {}, {stream}).front(),
      run_longitudinal(qucad, env, offline, {stream}).front(),
  };

  std::cout << "=== Fig. 8: earthquake detection on 7-qubit jakarta ===\n\n";
  TextTable table({"Round", "Date", "Baseline", "Noise-aware Training",
                   "QuCAD"});
  for (int r = 0; r < 5; ++r) {
    std::vector<std::string> row = {std::to_string(r + 1),
                                    history.date_string(rounds[r])};
    for (const MethodResult& result : results) {
      row.push_back(
          fmt_pct(result.daily_accuracy[static_cast<std::size_t>(r)]));
    }
    table.add_row(row);
  }
  std::vector<std::string> avg = {"Avg", ""};
  for (const MethodResult& result : results) {
    avg.push_back(fmt_pct(result.metrics.mean_accuracy));
  }
  table.add_row(avg);
  table.print(std::cout);

  std::cout << "\nPaper reference: averages 0.656 (Baseline), 0.668 "
               "(noise-aware training), 0.793\n(QuCAD) — QuCAD +13.7% / "
               "+12.52% and the most stable across rounds.\n";
  return 0;
}
