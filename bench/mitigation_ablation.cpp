// Extension ablation (Sec. II-A related work): error *mitigation* vs error
// *adaptation* under drifting noise. Readout mitigation [18] and zero-noise
// extrapolation [17] correct the *outputs* of a fixed calibration; QuCAD
// adapts the *model*. Each is measured on its own terms:
//   - readout mitigation: computational accuracy 1-H^2 of the output
//     distribution vs the ideal circuit (it provably inverts the assignment
//     confusion);
//   - ZNE: mean |<Z> - <Z>_ideal| bias of the readout expectations;
//   - QuCAD: classification accuracy.
// The punchline matches the paper: mitigation corrects a calibration's
// outputs (the bench counts the days on which each one helped) but cannot
// respond to regime shifts, and must be re-run per calibration anyway (ZNE
// pays 3x executions per sample).

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "mitigation/readout_mitigation.hpp"
#include "mitigation/stability.hpp"
#include "mitigation/zne.hpp"

using namespace qucad;
using namespace qucad::bench;

int main() {
  const CalibrationHistory history = belem_history();
  const auto offline = history.slice(0, CalibrationHistory::kOfflineDays);

  PipelineConfig config = paper_config("seismic");
  config.max_test_samples = 60;  // ZNE triples the execution cost
  const Environment env = prepare_environment(
      make_dataset("seismic"), CouplingMap::belem(), history.day(0), config);

  QuCadStrategy qucad(env);
  qucad.offline(offline);

  std::cout << "=== Mitigation vs adaptation under drifting noise ===\n\n";
  TextTable table({"Date", "CompAcc raw", "CompAcc readout-mit", "|Z| bias raw",
                   "|Z| bias ZNE", "Acc baseline", "Acc QuCAD"});

  const std::size_t probes = 12;  // samples for the distribution metrics
  const std::vector<int> days = {250, 270, 313, 347, 370};
  int readout_helped = 0;  // days on which each mitigation improved its metric
  int zne_helped = 0;
  int round = 0;
  for (int day : days) {
    const Calibration& calib = history.day(day);
    // The compiled engine answers run_z; the gate-by-gate oracles walk the
    // circuit and noise model it was compiled from.
    const std::shared_ptr<const CompiledExecutor> executor =
        make_env_executor(env, env.theta_pretrained, calib);
    const PhysicalCircuit phys =
        lower_noisy_circuit(env.model, env.transpiled, env.theta_pretrained);
    const NoiseModel noise(calib, env.eval.noise);
    const ReadoutMitigator mitigator(noise.readout());

    // One ZNE call per day: each scale factor compiles once and replays
    // every probe row.
    const std::vector<std::vector<double>> z_zne_rows = zne_expectations(
        phys, calib,
        std::span<const std::vector<double>>(env.test.features).first(probes));

    double comp_raw = 0.0, comp_mit = 0.0, bias_raw = 0.0, bias_zne = 0.0;
    for (std::size_t s = 0; s < probes; ++s) {
      const auto& x = env.test.features[s];
      // Ideal (noise-free) reference distribution and expectations.
      const StateVector ideal_sv = run_physical_pure(phys, x);
      const auto ideal_probs = ideal_sv.probabilities();

      // Measured distribution (readout confusion on all qubits) and its
      // mitigated inversion.
      const DensityMatrix dm = run_density(phys, noise, x);
      const auto measured = apply_readout_error(dm.diagonal_probabilities(),
                                                noise.readout());
      const auto mitigated = mitigator.apply(measured);
      comp_raw += computational_accuracy(ideal_probs, measured);
      comp_mit += computational_accuracy(ideal_probs, mitigated);

      // Expectation bias with and without ZNE.
      // run_z / zne_expectations order their output by readout slot, so
      // index by class position k, not by logical qubit id.
      const auto z_raw = executor->run_z(x);
      const std::vector<double>& z_zne = z_zne_rows[s];
      for (std::size_t k = 0; k < env.model.readout_qubits.size(); ++k) {
        const int lq = env.model.readout_qubits[k];
        const int pq = env.transpiled.readout_physical(lq);
        double z_ideal = 0.0;
        const std::size_t mq = std::size_t{1} << pq;
        for (std::size_t i = 0; i < ideal_probs.size(); ++i) {
          z_ideal += (i & mq) ? -ideal_probs[i] : ideal_probs[i];
        }
        bias_raw += std::abs(z_raw[k] - z_ideal);
        bias_zne += std::abs(z_zne[k] - z_ideal);
      }
    }
    const double norm_dist = 1.0 / static_cast<double>(probes);
    const double norm_bias =
        1.0 / static_cast<double>(probes * env.model.readout_qubits.size());

    if (comp_mit > comp_raw) ++readout_helped;
    if (bias_zne < bias_raw) ++zne_helped;

    const double acc_base = noisy_accuracy(env.model, env.transpiled,
                                           env.theta_pretrained, env.test, calib);
    const std::span<const double> theta_qucad = qucad.online_day(round++, calib);
    const double acc_qucad = noisy_accuracy(env.model, env.transpiled,
                                            theta_qucad, env.test, calib);

    table.add_row({history.date_string(day), fmt(comp_raw * norm_dist, 3),
                   fmt(comp_mit * norm_dist, 3), fmt(bias_raw * norm_bias, 3),
                   fmt(bias_zne * norm_bias, 3), fmt_pct(acc_base),
                   fmt_pct(acc_qucad)});
  }
  table.print(std::cout);

  std::cout << "\nReading: readout mitigation lifted distributional fidelity "
               "on "
            << readout_helped << " of " << days.size()
            << " days\nand ZNE cut expectation bias on " << zne_helped
            << " of " << days.size()
            << " days, but neither moves classification\naccuracy under a "
               "regime shift, which is what QuCAD's adaptation addresses. "
               "Both\nmitigations also have to be recomputed per calibration "
               "(ZNE: 3x executions per\nsample).\n";
  return 0;
}
