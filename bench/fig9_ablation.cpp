// Figure 9 reproduction (ablations on 8 representative online days):
//  (a) QuCAD vs the practical upper bound (noise-aware compression every
//      day) vs noise-aware training every day.
//  (b) noise-aware vs noise-agnostic compression, re-run on each day.

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "compress/admm.hpp"

using namespace qucad;
using namespace qucad::bench;

int main() {
  const CalibrationHistory history = belem_history();
  const auto offline = history.slice(0, CalibrationHistory::kOfflineDays);
  // Eight representative days spanning quiet stretches and the episodes
  // (analogue of the paper's 5/2 .. 7/14 picks).
  const int days[8] = {250, 270, 285, 300, 313, 330, 347, 365};

  const Environment env =
      prepare_environment(make_dataset("mnist4"), CouplingMap::belem(),
                          history.day(0), paper_config("mnist4"));

  std::cout << "=== Fig. 9(a): QuCAD vs practical upper bound ===\n\n";
  {
    std::vector<Calibration> stream;
    for (int day : days) stream.push_back(history.day(day));
    QuCadStrategy qucad(env);
    CompressionEverydayStrategy upper(env, CompressionMode::NoiseAware);
    NoiseAwareTrainEverydayStrategy nat(env);
    const MethodResult results[3] = {
        run_longitudinal(qucad, env, offline, {stream}).front(),
        run_longitudinal(upper, env, {}, {stream}).front(),
        run_longitudinal(nat, env, {}, {stream}).front(),
    };

    TextTable table({"Date", "QuCAD", "Compression Everyday",
                     "Noise-Aware Train Everyday"});
    for (int r = 0; r < 8; ++r) {
      std::vector<std::string> row = {history.date_string(days[r])};
      for (const MethodResult& result : results) {
        row.push_back(
            fmt_pct(result.daily_accuracy[static_cast<std::size_t>(r)]));
      }
      table.add_row(row);
    }
    std::vector<std::string> avg = {"Avg"};
    for (const MethodResult& result : results) {
      avg.push_back(fmt_pct(result.metrics.mean_accuracy));
    }
    table.add_row(avg);
    table.print(std::cout);
    std::cout << "\nPaper reference: QuCAD tracks the per-day compression "
                 "upper bound closely while\nnoise-aware training trails "
                 "badly on the noisy days.\n";
  }

  std::cout << "\n=== Fig. 9(b): noise-aware vs noise-agnostic compression "
               "===\n\n";
  {
    TextTable table({"Date", "Noise-Aware", "Noise-Agnostic", "CX aware",
                     "CX agnostic"});
    double s_aware = 0.0, s_agnostic = 0.0;
    for (int r = 0; r < 8; ++r) {
      const Calibration& calib = history.day(days[r]);
      AdmmOptions aware = env.admm;
      aware.seed += static_cast<std::uint64_t>(r);
      AdmmOptions agnostic = aware;
      agnostic.mode = CompressionMode::NoiseAgnostic;

      const CompressedModel m_aware =
          admm_compress(env.model, env.transpiled, env.theta_pretrained,
                        env.train, calib, aware);
      const CompressedModel m_agnostic =
          admm_compress(env.model, env.transpiled, env.theta_pretrained,
                        env.train, calib, agnostic);
      const double acc_aware = noisy_accuracy(env.model, env.transpiled,
                                              m_aware.theta, env.test, calib);
      const double acc_agnostic = noisy_accuracy(
          env.model, env.transpiled, m_agnostic.theta, env.test, calib);
      s_aware += acc_aware;
      s_agnostic += acc_agnostic;
      table.add_row({history.date_string(days[r]), fmt_pct(acc_aware),
                     fmt_pct(acc_agnostic), std::to_string(m_aware.cx_after),
                     std::to_string(m_agnostic.cx_after)});
    }
    table.add_row({"Avg", fmt_pct(s_aware / 8), fmt_pct(s_agnostic / 8), "", ""});
    table.print(std::cout);
    std::cout << "\nPaper reference: noise-aware compression wins on most "
                 "days and ties on quiet\ndays where the qubits are roughly "
                 "homogeneous (their 5/4 and 7/14).\n";
  }
  return 0;
}
