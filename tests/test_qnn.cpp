#include <gtest/gtest.h>

#include <cmath>

#include "common/require.hpp"
#include "data/iris_synth.hpp"
#include "data/seismic_synth.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/evaluator.hpp"
#include "qnn/gradients.hpp"
#include "qnn/loss.hpp"
#include "qnn/noise_injection.hpp"
#include "qnn/optimizer.hpp"
#include "qnn/trainer.hpp"

namespace qucad {
namespace {

TEST(Encoding, SingleLayerForMatchingDims) {
  const Circuit c = angle_encoder(4, 4);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.num_inputs(), 4);
  for (const Gate& g : c.gates()) EXPECT_EQ(g.kind, GateKind::RY);
}

TEST(Encoding, SixteenPixelsCycleAxes) {
  const Circuit c = angle_encoder(4, 16);
  EXPECT_EQ(c.size(), 16u);
  EXPECT_EQ(c.num_inputs(), 16);
  EXPECT_EQ(c.gates()[0].kind, GateKind::RY);   // layer 0
  EXPECT_EQ(c.gates()[4].kind, GateKind::RZ);   // layer 1
  EXPECT_EQ(c.gates()[8].kind, GateKind::RX);   // layer 2
  EXPECT_EQ(c.gates()[12].kind, GateKind::RY);  // layer 3 wraps
  EXPECT_EQ(c.gates()[5].q0, 1);
}

TEST(Ansatz, PaperBlockStructure) {
  const Circuit c = build_paper_ansatz(4, 1);
  EXPECT_EQ(c.num_trainable(), 40);  // 10 layers x 4 qubits
  EXPECT_EQ(c.size(), 40u);
  EXPECT_EQ(paper_ansatz_params(4, 2), 80);
  // Layer order: RY, CRY, RY, RX, CRX, RX, RZ, CRZ, RZ, CRZ.
  EXPECT_EQ(c.gates()[0].kind, GateKind::RY);
  EXPECT_EQ(c.gates()[4].kind, GateKind::CRY);
  EXPECT_EQ(c.gates()[12].kind, GateKind::RX);
  EXPECT_EQ(c.gates()[16].kind, GateKind::CRX);
  EXPECT_EQ(c.gates()[28].kind, GateKind::CRZ);
  EXPECT_EQ(c.gates()[36].kind, GateKind::CRZ);
}

TEST(Ansatz, RingConnectivity) {
  const Circuit c = build_paper_ansatz(4, 1);
  const Gate& last_cry = c.gates()[7];  // 4th CRY: ring closure 3 -> 0
  EXPECT_EQ(last_cry.kind, GateKind::CRY);
  EXPECT_EQ(last_cry.q0, 3);
  EXPECT_EQ(last_cry.q1, 0);
}

TEST(Model, BuildAndForward) {
  const QnnModel model = build_paper_model(4, 4, 3, 2);
  EXPECT_EQ(model.num_params(), 80);
  EXPECT_EQ(model.num_inputs(), 4);
  EXPECT_EQ(model.readout_qubits.size(), 3u);

  const std::vector<double> theta = init_params(model, 1);
  EXPECT_EQ(theta.size(), 80u);
  const std::vector<double> x{0.5, 1.0, 1.5, 2.0};
  const auto logits = forward_logits(model, theta, x);
  EXPECT_EQ(logits.size(), 3u);
  for (double l : logits) {
    EXPECT_GE(l, -1.0);
    EXPECT_LE(l, 1.0);
  }
  const int pred = predict(model, theta, x);
  EXPECT_GE(pred, 0);
  EXPECT_LT(pred, 3);
}

TEST(Model, TooManyClassesRejected) {
  EXPECT_THROW(build_paper_model(4, 4, 5, 1), PreconditionError);
}

TEST(Loss, SoftmaxNormalizes) {
  const auto p = softmax(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Loss, CrossEntropyGradientMatchesFiniteDifference) {
  const std::vector<double> logits{0.3, -0.5, 0.8};
  const int label = 1;
  const double scale = 5.0;
  const auto grad = cross_entropy_grad(logits, label, scale);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    std::vector<double> up = logits, down = logits;
    up[i] += eps;
    down[i] -= eps;
    const double fd =
        (cross_entropy(up, label, scale) - cross_entropy(down, label, scale)) /
        (2 * eps);
    EXPECT_NEAR(grad[i], fd, 1e-5);
  }
}

TEST(Loss, PerfectPredictionLowLoss) {
  EXPECT_LT(cross_entropy(std::vector<double>{1.0, -1.0}, 0, 8.0), 0.01);
  EXPECT_GT(cross_entropy(std::vector<double>{1.0, -1.0}, 1, 8.0), 2.0);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Adam adam(0.1);
  std::vector<double> params{5.0};
  for (int i = 0; i < 300; ++i) {
    adam.step(params, {2.0 * params[0]});  // d/dx x^2
  }
  EXPECT_NEAR(params[0], 0.0, 0.05);
}

TEST(Optimizer, RejectsBadConfig) {
  EXPECT_THROW(Adam(-0.1), PreconditionError);
}

TEST(BatchGrad, LossDecreasesUnderGradientStep) {
  const QnnModel model = build_paper_model(4, 4, 2, 1);
  std::vector<double> theta = init_params(model, 3);
  const Dataset data = [&] {
    Dataset raw = make_seismic(64, 5);
    const FeatureScaler scaler = FeatureScaler::fit(raw);
    return scaler.transform(raw);
  }();
  std::vector<std::size_t> idx(data.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  const BatchGrad g0 =
      batch_loss_grad(model.circuit, model.readout_qubits, theta, data, idx, 5.0);
  for (std::size_t i = 0; i < theta.size(); ++i) theta[i] -= 0.05 * g0.grad[i];
  const double loss1 =
      batch_loss_grad(model.circuit, model.readout_qubits, theta, data, idx, 5.0)
          .loss;
  EXPECT_LT(loss1, g0.loss);
}

TEST(Trainer, ReducesLossOnSeparableData) {
  const QnnModel model = build_paper_model(4, 4, 2, 1);
  std::vector<double> theta = init_params(model, 11);
  Dataset raw = make_seismic(96, 5);
  const FeatureScaler scaler = FeatureScaler::fit(raw);
  const Dataset data = scaler.transform(raw);

  TrainConfig config;
  config.epochs = 12;
  config.lr = 0.08;
  const TrainResult result = train_model(model, theta, data, config);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
  EXPECT_GT(result.final_train_accuracy, 0.6);
}

TEST(Trainer, FrozenParametersDoNotMove) {
  const QnnModel model = build_paper_model(4, 4, 2, 1);
  std::vector<double> theta = init_params(model, 13);
  const std::vector<double> original = theta;
  Dataset raw = make_seismic(32, 7);
  const Dataset data = FeatureScaler::fit(raw).transform(raw);

  TrainConfig config;
  config.epochs = 2;
  config.frozen.assign(theta.size(), 0);
  config.frozen[0] = 1;
  config.frozen[17] = 1;
  train_model(model, theta, data, config);
  EXPECT_DOUBLE_EQ(theta[0], original[0]);
  EXPECT_DOUBLE_EQ(theta[17], original[17]);
  EXPECT_NE(theta[1], original[1]);
}

TEST(Trainer, ProximalTermPullsTowardAnchor) {
  const QnnModel model = build_paper_model(4, 4, 2, 1);
  std::vector<double> theta = init_params(model, 17);
  const std::vector<double> anchor(theta.size(), 0.0);
  Dataset raw = make_seismic(32, 7);
  const Dataset data = FeatureScaler::fit(raw).transform(raw);

  const double norm_before = std::sqrt(
      std::inner_product(theta.begin(), theta.end(), theta.begin(), 0.0));
  TrainConfig config;
  config.epochs = 5;
  config.prox_anchor = &anchor;
  config.prox_rho = 50.0;  // dominate the data term
  train_model(model, theta, data, config);
  const double norm_after = std::sqrt(
      std::inner_product(theta.begin(), theta.end(), theta.begin(), 0.0));
  EXPECT_LT(norm_after, norm_before);
}

TEST(NoiseInjection, InsertsPaulisProportionalToNoise) {
  Circuit routed(2);
  for (int i = 0; i < 50; ++i) routed.cry(0, 1, trainable(i));
  Calibration cal(2, {{0, 1}});
  cal.set_cx_error(0, 1, 0.25);

  Rng rng(3);
  int injected_total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Circuit injected = inject_pauli_noise(routed, cal, rng);
    injected_total += static_cast<int>(injected.size() - routed.size());
  }
  // Expected ~ 2*0.25 * 50 = 25 insertions per trial.
  EXPECT_GT(injected_total, 20 * 15);
  EXPECT_LT(injected_total, 20 * 35);
}

TEST(NoiseInjection, ZeroNoiseInjectsNothing) {
  Circuit routed(2);
  routed.cry(0, 1, trainable(0)).ry(0, trainable(1)).rz(1, trainable(2));
  const Calibration cal(2, {{0, 1}});
  Rng rng(3);
  const Circuit injected = inject_pauli_noise(routed, cal, rng);
  EXPECT_EQ(injected.size(), routed.size());
}

TEST(NoiseInjection, PreservesParameterSpace) {
  Circuit routed(2);
  routed.cry(0, 1, trainable(0)).ry(0, input(0));
  Calibration cal(2, {{0, 1}});
  cal.set_cx_error(0, 1, 0.4);
  Rng rng(7);
  const Circuit injected = inject_pauli_noise(routed, cal, rng);
  EXPECT_EQ(injected.num_trainable(), routed.num_trainable());
  EXPECT_EQ(injected.num_inputs(), routed.num_inputs());
}

TEST(Evaluator, ZeroNoiseMatchesNoiseFree) {
  const QnnModel model = build_paper_model(4, 4, 3, 1);
  const std::vector<double> theta = init_params(model, 19);
  Dataset raw = make_iris(60, 3);
  const Dataset data = FeatureScaler::fit(raw).transform(raw);

  Calibration zero(5, CouplingMap::belem().edges());
  const TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits, CouplingMap::belem(), nullptr);

  NoisyEvalOptions options;
  options.noise.include_thermal_relaxation = false;
  options.noise.include_readout_error = false;
  const double noisy = noisy_accuracy(model, transpiled, theta, data, zero, options);
  const double clean = noise_free_accuracy(model, theta, data);
  EXPECT_NEAR(noisy, clean, 1e-9);
}

TEST(Evaluator, NonContiguousReadoutQubitsClassifyCorrectly) {
  // Regression: class logits must be read positionally from the executor's
  // readout slots. Indexing the z vector by qubit id read slot 1 for class 0
  // and ran past the end (slot 3 of a 2-slot vector) for class 1 whenever
  // readout_qubits != {0..k-1}.
  QnnModel model;
  model.circuit = angle_encoder(4, 4);
  model.circuit.append(build_paper_ansatz(4, 1));
  model.num_classes = 2;
  model.readout_qubits = {1, 3};
  const std::vector<double> theta = init_params(model, 31);

  Dataset raw = make_seismic(48, 9);
  const Dataset data = FeatureScaler::fit(raw).transform(raw);

  Calibration zero(5, CouplingMap::belem().edges());
  const TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits, CouplingMap::belem(), nullptr);
  ASSERT_EQ(transpiled.readout_logical, model.readout_qubits);

  NoisyEvalOptions options;
  options.noise.include_thermal_relaxation = false;
  options.noise.include_readout_error = false;
  const NoisyEvalResult result =
      noisy_evaluate(model, transpiled, theta, data, zero, options);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(result.predictions[i], predict(model, theta, data.features[i]))
        << "sample " << i;
  }
  EXPECT_NEAR(result.accuracy, noise_free_accuracy(model, theta, data), 1e-12);

  // Routing must matter: place logical qubits on scattered physical homes
  // so logical and physical ids genuinely diverge, then re-check the whole
  // positional pipeline through that permutation.
  TranspiledModel routed;
  routed.routed =
      route_circuit(model.circuit, CouplingMap::belem(), Layout{4, 2, 0, 1});
  routed.readout_logical = model.readout_qubits;
  ASSERT_TRUE(routed.readout_physical(1) != 1 || routed.readout_physical(3) != 3)
      << "layout failed to separate logical from physical ids";
  const PhysicalCircuit phys = lower_model(routed, theta);
  ASSERT_EQ(phys.readout_physical().size(), 2u);
  EXPECT_EQ(phys.readout_physical()[0], routed.readout_physical(1));
  EXPECT_EQ(phys.readout_physical()[1], routed.readout_physical(3));

  const NoisyEvalResult permuted =
      noisy_evaluate(model, routed, theta, data, zero, options);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(permuted.predictions[i], predict(model, theta, data.features[i]))
        << "sample " << i << " (scattered layout)";
  }
}

TEST(Evaluator, NoiseDegradesTrainedAccuracy) {
  const QnnModel model = build_paper_model(4, 4, 2, 1);
  std::vector<double> theta = init_params(model, 23);
  Dataset raw = make_seismic(128, 5);
  const Dataset data = FeatureScaler::fit(raw).transform(raw);
  TrainConfig config;
  config.epochs = 10;
  train_model(model, theta, data, config);

  const CalibrationHistory h(FluctuationScenario::belem(), 320, 2021);
  const TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits, CouplingMap::belem(), &h.day(250));
  const double clean = noise_free_accuracy(model, theta, data);
  // Day 310 sits in the <1,2> hot episode.
  const double noisy =
      noisy_accuracy(model, transpiled, theta, data, h.day(310));
  EXPECT_LT(noisy, clean);
}

}  // namespace
}  // namespace qucad
