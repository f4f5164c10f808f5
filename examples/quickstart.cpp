// Quickstart: the core QuCAD loop, narrated.
//
// This walkthrough (referenced from docs/ARCHITECTURE.md) trains a 4-qubit
// QNN on a synthetic earthquake-detection task, watches fluctuating device
// noise break it, and fixes it with noise-aware compression. Each step names
// the subsystem it exercises, so it doubles as a tour of the codebase:
//
//   data/      -> step 1    circuit/ + qnn/ -> step 2
//   noise/     -> step 3    transpile/      -> step 3
//   compress/  -> step 4    qnn/evaluator   -> throughout
//
// Build: cmake --build build --target quickstart && ./build/examples/quickstart

#include <iostream>

#include "common/table.hpp"
#include "compress/admm.hpp"
#include "data/seismic_synth.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/evaluator.hpp"
#include "qnn/trainer.hpp"
#include "transpile/transpiler.hpp"

using namespace qucad;

int main() {
  // ---------------------------------------------------------------------
  // 1. Data (data/seismic_synth): synthetic seismograms reduced to 4
  //    detection features. FeatureScaler maps each feature into [0, pi] so
  //    it can be angle-encoded as an RZ rotation; the scaler is fit on the
  //    training split only (no test leakage), then applied to both.
  const Dataset raw = make_seismic(/*samples=*/600, /*seed=*/11);
  const TrainTestSplit split = split_dataset(raw, /*test_fraction=*/0.2);
  const FeatureScaler scaler = FeatureScaler::fit(split.train);
  const Dataset train = scaler.transform(split.train).take(160);
  const Dataset test = scaler.transform(split.test).take(80);

  // ---------------------------------------------------------------------
  // 2. Model (qnn/model + qnn/ansatz): the paper's VQC — an angle-encoding
  //    prefix followed by 2 trainable blocks on 4 qubits. Class logits are
  //    read POSITIONALLY: logit k is <Z> of model.readout_qubits[k] (the
  //    readout-slot contract; see docs/ARCHITECTURE.md).
  //
  //    train_model runs mini-batch Adam on exact adjoint gradients from the
  //    compiled statevector engine: the circuit is lowered once with BOTH
  //    encoding and trainable angles symbolic, and that one compiled
  //    program is replayed for every (sample, theta) pair.
  QnnModel model = build_paper_model(/*num_qubits=*/4, /*num_features=*/4,
                                     /*num_classes=*/2, /*repeats=*/2);
  std::vector<double> theta = init_params(model, /*seed=*/3);
  TrainConfig config;
  config.epochs = 30;
  config.lr = 0.08;
  train_model(model, theta, train, config);
  std::cout << "noise-free accuracy after training: "
            << fmt_pct(noise_free_accuracy(model, theta, test)) << "\n";

  // ---------------------------------------------------------------------
  // 3. Device (noise/ + transpile/): a simulated ibmq_belem with a year of
  //    drifting daily calibrations. transpile_model routes the logical
  //    circuit onto the coupling map (noise-aware placement on the given
  //    calibration); lower_model then binds theta and lowers to the
  //    {CX, RZ, SX, X} basis, where the compression peephole shortens the
  //    physical pulse sequence.
  //
  //    noisy_accuracy executes the lowered circuit on the compiled
  //    density-matrix engine (CompiledExecutor): calibrated error channels are
  //    folded into the op-stream once, and the compiled program is replayed
  //    per test sample (cached across calls by CompiledEvalCache).
  const CouplingMap belem = CouplingMap::belem();
  const CalibrationHistory history(FluctuationScenario::belem(),
                                   CalibrationHistory::kTotalDays, 2021);
  const Calibration& quiet_day = history.day(250);
  const Calibration& noisy_day = history.day(310);  // edge <1,2> episode

  const TranspiledModel transpiled =
      transpile_model(model.circuit, model.readout_qubits, belem, &quiet_day);
  std::cout << "physical circuit: " << lower_model(transpiled, theta).summary()
            << "\n";

  std::cout << "noisy accuracy, quiet day:  "
            << fmt_pct(noisy_accuracy(model, transpiled, theta, test, quiet_day))
            << "\n";
  std::cout << "noisy accuracy, noisy day:  "
            << fmt_pct(noisy_accuracy(model, transpiled, theta, test, noisy_day))
            << "  <- fluctuating noise collapses the model\n";

  //    Every evaluation above picked its execution regime from config: the
  //    default BackendConfig is the exact density engine, and swapping the
  //    kind re-runs the same call under a different regime (src/backend/).
  //    kSampled draws seeded finite-shot bitstrings from the compiled
  //    statevector with the day's readout confusion — hardware-like
  //    readout, orders of magnitude cheaper than the density path.
  NoisyEvalOptions sampled;
  sampled.backend =
      BackendConfig().with_kind(BackendKind::kSampled).with_shots(1024);
  std::cout << "sampled accuracy (1024 shots), quiet day: "
            << fmt_pct(noisy_accuracy(model, transpiled, theta, test,
                                      quiet_day, sampled))
            << "\n";

  // ---------------------------------------------------------------------
  // 4. QuCAD's answer (compress/): noise-aware ADMM compression targeted at
  //    the noisy day. Each iteration alternates a proximal retraining step
  //    (noise-injected, fine-tuned with the compiled training engine)
  //    against a compression step that snaps gate angles to cheap levels —
  //    fewer CX and pulses mean less exposure to the noisy hardware, which
  //    is exactly what restores accuracy when the device drifts.
  //
  //    The full framework (bench/table1_main, src/repo/) goes further:
  //    offline it clusters a year of calibrations and pre-compresses one
  //    model per cluster; online it matches each day against the repository
  //    and reuses the stored model instead of re-optimizing. The deployment
  //    shape of that loop is qucad::InferenceService (src/serve/): requests
  //    micro-batched through the compiled engine, calibration events
  //    hot-swapping the served model — examples/earthquake_monitor.cpp
  //    runs it end to end. See the data-flow diagrams in
  //    docs/ARCHITECTURE.md.
  AdmmOptions admm;
  admm.iterations = 4;
  admm.epochs_per_iteration = 1;
  const CompressedModel compressed =
      admm_compress(model, transpiled, theta, train, noisy_day, admm);
  std::cout << "compressed: " << compressed.cx_before << " -> "
            << compressed.cx_after << " CX, " << compressed.pulses_before
            << " -> " << compressed.pulses_after << " pulses\n";
  std::cout << "noisy accuracy, noisy day, compressed model: "
            << fmt_pct(noisy_accuracy(model, transpiled, compressed.theta, test,
                                      noisy_day))
            << "\n";
  return 0;
}
