// Contract tests of the pluggable execution-backend API (src/backend/):
// config validation, registry dispatch equivalence with
// the direct CompiledExecutor paths (1e-10), the sampled
// backend's seeded determinism + shots->inf convergence to the pure logits
// + hand-computed readout-error application (sampled and density shots),
// the SlotReadout kernel's distribution (chi-square against the exact
// confused slot marginals) and rounding robustness, and the config
// threading through evaluator / trainer / harness / serving.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "backend/registry.hpp"
#include "common/stats.hpp"
#include "core/strategies.hpp"
#include "data/seismic_synth.hpp"
#include "data/vibration_synth.hpp"
#include "eval/harness.hpp"
#include "noise/calibration_history.hpp"
#include "noise/slot_readout.hpp"
#include "qnn/eval_cache.hpp"
#include "qnn/evaluator.hpp"
#include "serve/inference_service.hpp"
#include "test_support.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {
namespace {

using test::kAgreementTol;

/// Small but real evaluation configuration: the 4-qubit paper model routed
/// on belem with a drifting calibration and a seeded theta.
struct BackendFixture {
  CalibrationHistory history{FluctuationScenario::belem(), 5, 4242};
  QnnModel model = build_paper_model(4, 4, 2, 1);
  std::vector<double> theta = init_params(model, 11);
  TranspiledModel transpiled =
      transpile_model(model.circuit, model.readout_qubits, CouplingMap::belem(),
                      &history.day(0));
  Dataset data;

  BackendFixture() {
    Dataset raw = make_seismic(24, 5);
    data = FeatureScaler::fit(raw).transform(raw);
  }

  BackendContext context() const {
    BackendContext c;
    c.model = &model;
    c.transpiled = &transpiled;
    c.theta = theta;
    c.calibration = &history.day(0);
    return c;
  }
};

std::shared_ptr<const ExecutionBackend> must_make(const BackendConfig& config,
                                                  const BackendContext& context) {
  StatusOr<std::shared_ptr<const ExecutionBackend>> backend =
      make_backend(config, context);
  EXPECT_TRUE(backend.ok()) << backend.status().to_string();
  return *backend;
}

TEST(BackendConfig, ValidatesKnobCombinations) {
  EXPECT_TRUE(BackendConfig().validate().ok());
  EXPECT_TRUE(BackendConfig()
                  .with_kind(BackendKind::kSampled)
                  .with_shots(1024)
                  .validate()
                  .ok());
  // Unseeded sampling draws its base seed from entropy.
  EXPECT_TRUE(BackendConfig()
                  .with_kind(BackendKind::kSampled)
                  .with_shots(64)
                  .with_seed(std::nullopt)
                  .validate()
                  .ok());

  // The density kind draws finite-shot readout from BackendConfig::shots.
  EXPECT_TRUE(BackendConfig().with_shots(100).validate().ok());
  EXPECT_TRUE(
      BackendConfig().with_shots(100).with_seed(std::nullopt).validate().ok());

  EXPECT_EQ(BackendConfig().with_shots(-1).validate().code(),
            StatusCode::kInvalidArgument);
  // Pure plus shots stays inconsistent: kSampled is the noise-free
  // finite-shot kind.
  EXPECT_EQ(BackendConfig()
                .with_kind(BackendKind::kPureStatevector)
                .with_shots(100)
                .validate()
                .code(),
            StatusCode::kInvalidArgument);
  // A sampling backend without a shot budget cannot produce logits.
  EXPECT_EQ(BackendConfig().with_kind(BackendKind::kSampled).validate().code(),
            StatusCode::kInvalidArgument);
}

TEST(BackendRegistry, DensityDispatchMatchesDirectExecutor) {
  const BackendFixture fx;
  const std::shared_ptr<const ExecutionBackend> backend =
      must_make(BackendConfig{}, fx.context());
  EXPECT_EQ(backend->kind(), BackendKind::kDensityNoisy);

  const std::shared_ptr<const CompiledExecutor> direct = build_noisy_executor(
      fx.model, fx.transpiled, fx.theta, fx.history.day(0), {});
  for (std::size_t i = 0; i < 4; ++i) {
    const std::vector<double> via_registry =
        backend->run_logits(fx.data.features[i]);
    const std::vector<double> via_executor = direct->run_z(fx.data.features[i]);
    ASSERT_EQ(via_registry.size(), via_executor.size());
    for (std::size_t k = 0; k < via_registry.size(); ++k) {
      EXPECT_NEAR(via_registry[k], via_executor[k], kAgreementTol)
          << "sample " << i << " slot " << k;
    }
  }

  // The fused batch path is the same sweep the executor runs directly.
  const auto batch_registry = backend->run_logits_batch(fx.data.features);
  const auto batch_executor = direct->run_z_batch(fx.data.features);
  ASSERT_EQ(batch_registry.size(), batch_executor.size());
  for (std::size_t i = 0; i < batch_registry.size(); ++i) {
    for (std::size_t k = 0; k < batch_registry[i].size(); ++k) {
      EXPECT_NEAR(batch_registry[i][k], batch_executor[i][k], kAgreementTol);
    }
  }

  const BackendDiagnostics diag = backend->diagnostics();
  EXPECT_EQ(diag.kind, BackendKind::kDensityNoisy);
  EXPECT_GT(diag.compiled_ops, 0u);
  EXPECT_EQ(diag.num_qubits, direct->program().num_qubits());
}

TEST(BackendRegistry, DensityLegacyShotsMatchExecutorShotPath) {
  // Density plus shots is a plain BackendConfig: the backend draws sample i
  // from seed + i, exactly the executor's shot batch.
  const BackendFixture fx;
  const std::shared_ptr<const ExecutionBackend> backend = must_make(
      BackendConfig().with_shots(64).with_seed(std::uint64_t{7}), fx.context());
  EXPECT_EQ(backend->diagnostics().shots, 64);

  const std::shared_ptr<const CompiledExecutor> direct = build_noisy_executor(
      fx.model, fx.transpiled, fx.theta, fx.history.day(0), {});
  const auto via_registry = backend->run_logits_batch(fx.data.features);
  const auto via_executor = direct->run_z_batch(fx.data.features, {}, 64, 7);
  ASSERT_EQ(via_registry.size(), via_executor.size());
  for (std::size_t i = 0; i < via_registry.size(); ++i) {
    EXPECT_EQ(via_registry[i], via_executor[i]) << "sample " << i;
  }
  // Single-sample replay equals slot 0 of the batch (seed + 0).
  EXPECT_EQ(backend->run_logits(fx.data.features[0]), via_registry[0]);
  EXPECT_EQ(direct->run_z(fx.data.features[0], {}, 64, 7), via_registry[0]);

  // The seed resolution is shared with kSampled: an unseeded config draws
  // its base seed from entropy and still answers every row.
  const auto unseeded = must_make(
      BackendConfig().with_shots(64).with_seed(std::nullopt), fx.context());
  EXPECT_EQ(unseeded->run_logits_batch(fx.data.features).size(),
            fx.data.features.size());

  // Exact kinds draw no shots, so the seed cannot change their logits.
  for (const BackendKind kind :
       {BackendKind::kDensityNoisy, BackendKind::kPureStatevector}) {
    const BackendConfig seeded = BackendConfig().with_kind(kind);
    EXPECT_EQ(must_make(BackendConfig(seeded).with_seed(std::nullopt),
                        fx.context())
                  ->run_logits_batch(fx.data.features),
              must_make(seeded, fx.context())->run_logits_batch(fx.data.features))
        << backend_kind_name(kind);
  }
}

TEST(BackendRegistry, PureDispatchMatchesDirectExecutor) {
  const BackendFixture fx;
  const std::shared_ptr<const ExecutionBackend> backend = must_make(
      BackendConfig().with_kind(BackendKind::kPureStatevector), fx.context());
  EXPECT_EQ(backend->kind(), BackendKind::kPureStatevector);

  const std::shared_ptr<const CompiledExecutor> direct =
      build_pure_executor(fx.model.circuit, fx.model.readout_qubits);
  for (std::size_t i = 0; i < 4; ++i) {
    const std::vector<double> via_registry =
        backend->run_logits(fx.data.features[i]);
    const std::vector<double> via_executor =
        direct->run_z(fx.data.features[i], fx.theta);
    // Bitwise: the one statevector backend at shots == 0 ends in the same
    // confusion-free run_z_lanes call as the executor.
    EXPECT_EQ(via_registry, via_executor) << "sample " << i;
  }
  const std::vector<std::vector<double>> rows(fx.data.features.begin(),
                                              fx.data.features.begin() + 9);
  EXPECT_EQ(backend->run_logits_batch(rows),
            direct->run_z_batch(rows, fx.theta));
}

TEST(BackendRegistry, ReportsMissingContext) {
  const BackendFixture fx;
  BackendContext context = fx.context();
  context.calibration = nullptr;
  const auto backend = make_backend(BackendConfig{}, context);
  EXPECT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);

  BackendContext no_model;
  EXPECT_FALSE(
      make_backend(BackendConfig().with_kind(BackendKind::kPureStatevector),
                   no_model)
          .ok());
}

TEST(BackendRegistry, CustomFactoryOverrides) {
  /// Stand-in for a future remote/hardware backend: fixed logits.
  class StubBackend final : public ExecutionBackend {
   public:
    BackendKind kind() const override { return BackendKind::kPureStatevector; }
    BackendDiagnostics diagnostics() const override {
      BackendDiagnostics d;
      d.name = "stub";
      return d;
    }
    std::vector<std::vector<double>> run_logits_batch(
        std::span<const std::vector<double>> xs,
        ThreadPool* = nullptr) const override {
      return std::vector<std::vector<double>>(xs.size(), {0.25, -0.75});
    }
  };

  BackendRegistry registry;  // local: the global registry stays pristine
  registry.register_factory(
      BackendKind::kPureStatevector,
      [](const BackendConfig&, const BackendContext&)
          -> StatusOr<std::shared_ptr<const ExecutionBackend>> {
        return std::shared_ptr<const ExecutionBackend>(
            std::make_shared<const StubBackend>());
      });

  const BackendFixture fx;
  const auto backend = registry.make(
      BackendConfig().with_kind(BackendKind::kPureStatevector), fx.context());
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ((*backend)->diagnostics().name, "stub");
  // run_logits is the stub's batch path at one row.
  EXPECT_EQ((*backend)->run_logits(fx.data.features[0])[1], -0.75);

  // A brand-new kind beyond the built-in enumerators: the table grows on
  // demand, and an unregistered kind is a Status, not an abort.
  const BackendKind custom = static_cast<BackendKind>(7);
  EXPECT_FALSE(
      registry.make(BackendConfig().with_kind(custom), fx.context()).ok());
  registry.register_factory(
      custom,
      [](const BackendConfig&, const BackendContext&)
          -> StatusOr<std::shared_ptr<const ExecutionBackend>> {
        return std::shared_ptr<const ExecutionBackend>(
            std::make_shared<const StubBackend>());
      });
  EXPECT_TRUE(
      registry.make(BackendConfig().with_kind(custom), fx.context()).ok());
}

TEST(BackendRegistry, RejectsLegacyDensityShotsOnNonDensityKinds) {
  // Pure plus shots is rejected at the registry, never silently dropped:
  // kSampled is the noise-free finite-shot kind.
  const BackendFixture fx;
  const auto backend = make_backend(
      BackendConfig().with_kind(BackendKind::kPureStatevector).with_shots(32),
      fx.context());
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
}

TEST(BackendRegistry, SampledReportsUncoveredReadoutAsStatus) {
  // A calibration narrower than a routed readout qubit must come back as a
  // Status through the registry's no-throw path, never as an exception.
  QnnModel model;
  model.circuit = Circuit(3);
  model.circuit.x(2);
  model.num_classes = 2;
  model.readout_qubits = {0, 2};
  Calibration narrow(2, {});

  BackendContext context;
  context.model = &model;
  context.calibration = &narrow;
  const auto backend = make_backend(
      BackendConfig().with_kind(BackendKind::kSampled).with_shots(16), context);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
}

TEST(SampledBackend, DeterministicUnderFixedSeed) {
  const BackendFixture fx;
  const BackendConfig config =
      BackendConfig().with_kind(BackendKind::kSampled).with_shots(256).with_seed(
          std::uint64_t{5});
  const auto a = must_make(config, fx.context());
  const auto b = must_make(config, fx.context());

  const auto batch_a = a->run_logits_batch(fx.data.features);
  const auto batch_b = b->run_logits_batch(fx.data.features);
  ASSERT_EQ(batch_a.size(), batch_b.size());
  for (std::size_t i = 0; i < batch_a.size(); ++i) {
    EXPECT_EQ(batch_a[i], batch_b[i]) << "sample " << i;  // bitwise
  }
  // Single-sample replay equals slot 0 of the batch (seed + 0 convention).
  EXPECT_EQ(a->run_logits(fx.data.features[0]), batch_a[0]);

  const auto c = must_make(
      BackendConfig(config).with_seed(std::uint64_t{6}), fx.context());
  EXPECT_NE(c->run_logits_batch(fx.data.features), batch_a)
      << "a different seed must draw a different shot stream";

  // An unseeded config draws its base seed from entropy and still answers
  // every row.
  const auto unseeded =
      must_make(BackendConfig(config).with_seed(std::nullopt), fx.context());
  const auto batch_unseeded = unseeded->run_logits_batch(fx.data.features);
  ASSERT_EQ(batch_unseeded.size(), fx.data.features.size());
  EXPECT_EQ(batch_unseeded[0].size(), batch_a[0].size());
}

TEST(SampledBackend, ConvergesToPureLogitsAsShotsGrow) {
  const BackendFixture fx;
  // Confusion-free context: convergence target is the exact pure logits.
  BackendContext context = fx.context();
  context.noise.include_readout_error = false;

  const auto pure = must_make(
      BackendConfig().with_kind(BackendKind::kPureStatevector), context);
  const std::vector<double> exact = pure->run_logits(fx.data.features[0]);

  // Tolerance schedule: 5 standard deviations of the worst-case shot noise
  // (sigma <= 1/sqrt(shots) per <Z> estimate). Deterministic under the
  // fixed seed, so this never flakes.
  double previous_worst = 2.0;
  for (const int shots : {1000, 10000, 100000}) {
    const auto sampled = must_make(BackendConfig()
                                       .with_kind(BackendKind::kSampled)
                                       .with_shots(shots)
                                       .with_seed(std::uint64_t{12}),
                                   context);
    const std::vector<double> estimate =
        sampled->run_logits(fx.data.features[0]);
    ASSERT_EQ(estimate.size(), exact.size());
    const double tolerance = 5.0 / std::sqrt(static_cast<double>(shots));
    double worst = 0.0;
    for (std::size_t k = 0; k < exact.size(); ++k) {
      worst = std::max(worst, std::abs(estimate[k] - exact[k]));
      EXPECT_NEAR(estimate[k], exact[k], tolerance)
          << "shots=" << shots << " slot " << k;
    }
    EXPECT_LT(worst, previous_worst * 1.5)
        << "error must not blow up as shots grow (shots=" << shots << ")";
    previous_worst = std::max(worst, 1e-6);
  }
}

TEST(SampledBackend, AppliesReadoutErrorHandComputedCase) {
  // Deterministic 2-qubit state |01> (qubit 0 flipped to 1): the sampled
  // bit of qubit 0 is always 1 and of qubit 1 always 0 before confusion, so
  // the confused expectations are closed-form:
  //   E[Z_0] = -(1 - p0|1) + p0|1 = 2*p0|1 - 1 = -0.6
  //   E[Z_1] = (1 - p1|0) - p1|0 = 1 - 2*p1|0 = 0.9
  QnnModel model;
  model.circuit = Circuit(2);
  model.circuit.x(0);
  model.num_classes = 2;
  model.readout_qubits = {0, 1};

  Calibration calib(2, {});
  calib.set_readout(0, ReadoutError{0.1, 0.2});
  calib.set_readout(1, ReadoutError{0.05, 0.3});

  BackendContext context;
  context.model = &model;
  context.calibration = &calib;

  const auto sampled = must_make(BackendConfig()
                                     .with_kind(BackendKind::kSampled)
                                     .with_shots(200000)
                                     .with_seed(std::uint64_t{3}),
                                 context);
  const std::vector<double> z = sampled->run_logits(std::vector<double>{});
  ASSERT_EQ(z.size(), 2u);
  // 200k shots: sigma < 0.0023 per slot; 0.01 is > 4 sigma.
  EXPECT_NEAR(z[0], -0.6, 0.01);
  EXPECT_NEAR(z[1], 0.9, 0.01);

  // The same configuration with confusion disabled reads the true bits.
  context.noise.include_readout_error = false;
  const auto clean = must_make(BackendConfig()
                                   .with_kind(BackendKind::kSampled)
                                   .with_shots(128)
                                   .with_seed(std::uint64_t{3}),
                               context);
  const std::vector<double> exact_bits = clean->run_logits(std::vector<double>{});
  EXPECT_DOUBLE_EQ(exact_bits[0], -1.0);
  EXPECT_DOUBLE_EQ(exact_bits[1], 1.0);
}

TEST(SampledBackend, DensityShotsApplyReadoutErrorHandComputedCase) {
  // The density-plus-shots twin of AppliesReadoutErrorHandComputedCase: the
  // same |01> state evolved noise-free through the density engine (zero
  // gate errors, thermal relaxation off) must read out the same closed
  // form, exactly at shots == 0 and within 4 sigma at 200k shots.
  QnnModel model;
  model.circuit = Circuit(2);
  model.circuit.x(0);
  model.num_classes = 2;
  model.readout_qubits = {0, 1};
  const TranspiledModel transpiled =
      transpile_model(model.circuit, model.readout_qubits, CouplingMap::line(2));

  Calibration calib(2, {{0, 1}});
  calib.set_readout(transpiled.readout_physical(0), ReadoutError{0.1, 0.2});
  calib.set_readout(transpiled.readout_physical(1), ReadoutError{0.05, 0.3});

  BackendContext context;
  context.model = &model;
  context.transpiled = &transpiled;
  context.calibration = &calib;
  context.noise.include_thermal_relaxation = false;

  const auto exact = must_make(BackendConfig{}, context);
  const std::vector<double> z_exact = exact->run_logits(std::vector<double>{});
  ASSERT_EQ(z_exact.size(), 2u);
  EXPECT_NEAR(z_exact[0], -0.6, 1e-12);
  EXPECT_NEAR(z_exact[1], 0.9, 1e-12);

  const auto sampled = must_make(
      BackendConfig().with_shots(200000).with_seed(std::uint64_t{3}), context);
  const std::vector<double> z = sampled->run_logits(std::vector<double>{});
  ASSERT_EQ(z.size(), 2u);
  EXPECT_NEAR(z[0], -0.6, 0.01);
  EXPECT_NEAR(z[1], 0.9, 0.01);

  // Confusion disabled: every shot reads the true bits.
  context.noise.include_readout_error = false;
  const auto clean = must_make(
      BackendConfig().with_shots(128).with_seed(std::uint64_t{3}), context);
  const std::vector<double> bits = clean->run_logits(std::vector<double>{});
  EXPECT_DOUBLE_EQ(bits[0], -1.0);
  EXPECT_DOUBLE_EQ(bits[1], 1.0);
}

TEST(BackendRegistry, DensityExactPathMatchesReferenceWithScatteredReadout) {
  // Readout slots {1, 3}: the kernel's slot marginal plus per-slot
  // confusion must equal the gate-by-gate reference's full-vector
  // confusion at 1e-10, slot by slot in class order.
  BackendFixture fx;
  fx.model.readout_qubits = {1, 3};
  fx.transpiled =
      transpile_model(fx.model.circuit, fx.model.readout_qubits,
                      CouplingMap::belem(), &fx.history.day(0));
  const auto backend = must_make(BackendConfig{}, fx.context());
  const PhysicalCircuit circuit =
      lower_noisy_circuit(fx.model, fx.transpiled, fx.theta);
  const NoiseModel noise(fx.history.day(0));
  const auto batch = backend->run_logits_batch(fx.data.features);
  for (std::size_t i = 0; i < fx.data.size(); ++i) {
    const std::vector<double> reference =
        run_z_reference(circuit, noise, fx.data.features[i]);
    ASSERT_EQ(batch[i].size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_NEAR(batch[i][k], reference[k], kAgreementTol)
          << "sample " << i << " slot " << k;
    }
  }
}

/// Chi-square statistic of `counts` (summing to `shots`) against `bins`
/// (normalized here). A bin without mass must hold no count.
double chi_square(const std::vector<int>& counts,
                  const std::vector<double>& bins, int shots) {
  double total = 0.0;
  for (double b : bins) total += b;
  double chi2 = 0.0;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    const double expected = shots * bins[b] / total;
    if (expected == 0.0) {
      EXPECT_EQ(counts[b], 0) << "bin " << b << " has no mass";
      continue;
    }
    const double d = counts[b] - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

/// Draws 1e5 shots per seed from the confused slot marginals of `x` (the
/// gate-by-gate density of `circuit` under `noise`) and pins the chi-square
/// statistic below the p = 0.001 critical value; also checks the engine
/// compiled from them ends in exactly these counts on its own shot path.
void expect_multinomial_matches_marginals(const PhysicalCircuit& circuit,
                                          const NoiseModel& noise,
                                          const std::vector<double>& x,
                                          double critical) {
  const CompiledExecutor executor(circuit, noise);
  std::vector<ReadoutError> errors;
  for (int pq : circuit.readout_physical()) {
    errors.push_back(noise.readout()[static_cast<std::size_t>(pq)]);
  }
  const SlotReadout readout(circuit.num_qubits(), circuit.readout_physical(),
                            errors);
  const std::vector<double> probs =
      run_density(circuit, noise, x).diagonal_probabilities();
  std::vector<double> bins;
  readout.confused_bins(probs, bins);
  ASSERT_EQ(bins.size(), std::size_t{1} << circuit.readout_physical().size());

  const int shots = 100000;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<int> counts;
    SlotReadout::draw_counts(bins, shots, rng, counts);
    int sum = 0;
    for (int c : counts) sum += c;
    EXPECT_EQ(sum, shots);
    EXPECT_LT(chi_square(counts, bins, shots), critical) << "seed " << seed;

    // The engine's shot path draws the same counts from the same seed.
    const std::vector<double> z = executor.run_z(x, {}, shots, seed);
    for (std::size_t k = 0; k < z.size(); ++k) {
      double ones = 0.0;
      for (std::size_t b = 0; b < counts.size(); ++b) {
        if ((b >> k) & 1) ones += counts[b];
      }
      EXPECT_NEAR(z[k], (shots - 2.0 * ones) / shots, 1e-12) << "slot " << k;
    }
  }
}

TEST(SlotReadout, MultinomialMatchesConfusedMarginalsTwoSlots) {
  const BackendFixture fx;
  // 3 degrees of freedom: chi2(0.999) = 16.27.
  expect_multinomial_matches_marginals(
      lower_noisy_circuit(fx.model, fx.transpiled, fx.theta),
      NoiseModel(fx.history.day(0)), fx.data.features[0], 16.27);
}

TEST(SlotReadout, MultinomialMatchesConfusedMarginalsFourSlotsVibration) {
  // The 4-class vibration workload: 16 bins, readout on all four qubits.
  const CalibrationHistory history{FluctuationScenario::belem(), 2, 77};
  const QnnModel model = build_paper_model(4, 4, 4, 1);
  const std::vector<double> theta = init_params(model, 5);
  const TranspiledModel transpiled = transpile_model(
      model.circuit, model.readout_qubits, CouplingMap::belem(),
      &history.day(0));
  const Dataset raw = make_vibration(8, 23);
  const Dataset data = FeatureScaler::fit(raw).transform(raw);
  const PhysicalCircuit circuit = lower_noisy_circuit(model, transpiled, theta);
  ASSERT_EQ(circuit.readout_physical().size(), 4u);
  // 15 degrees of freedom: chi2(0.999) = 37.70.
  expect_multinomial_matches_marginals(circuit, NoiseModel(history.day(1)),
                                       data.features[3], 37.70);
}

TEST(SlotReadout, BinomialDrawsHaveBinomialSpread) {
  // One chi-square over a single draw checks the mean; this checks the
  // spread of the conditional binomials across seeds, on the small-n
  // Bernoulli path (10 shots) and through the order-statistic recursion
  // (1000 and 100000 shots): mean within 5 standard errors, variance
  // within 15% of n p (1 - p) over 2000 draws (~5 standard errors).
  const int draws = 2000;
  for (const int shots : {10, 1000, 100000}) {
    for (const double p : {0.3, 0.97}) {
      double sum = 0.0;
      double sum_sq = 0.0;
      std::vector<int> counts;
      for (int seed = 0; seed < draws; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed));
        SlotReadout::draw_counts(std::vector<double>{p, 1.0 - p}, shots, rng,
                                 counts);
        sum += counts[0];
        sum_sq += static_cast<double>(counts[0]) * counts[0];
      }
      const double mean = sum / draws;
      const double variance = (sum_sq - draws * mean * mean) / (draws - 1);
      const double expected_variance = shots * p * (1.0 - p);
      EXPECT_NEAR(mean, shots * p, 5.0 * std::sqrt(expected_variance / draws))
          << "shots " << shots << " p " << p;
      EXPECT_NEAR(variance / expected_variance, 1.0, 0.15)
          << "shots " << shots << " p " << p;
    }
  }
}

TEST(SlotReadout, RoundingResidueNeverLeavesTheUnitInterval) {
  // Basis probabilities as a replay leaves them: -1e-17 rounding entries
  // and totals of 1 +- 1e-15. Every conditional binomial must see a p in
  // [0, 1] (the kernel throws otherwise), so no count lands on an empty or
  // negative bin, the counts sum to the shot budget, and every estimate
  // stays in [-1, 1].
  const std::vector<double> rounding_sets[] = {
      {0.25, -1e-17, 0.5 + 1e-15, 0.25},
      {0.25, 0.25, 0.5 - 1e-15, -1e-17},
      {-1e-17, 1.0 + 1e-15, -1e-17, 0.0},
      {1e-300, 0.0, -1e-17, 1.0 - 1e-15},
  };
  const std::vector<int> slots{0, 1};
  for (const auto& probs : rounding_sets) {
    for (const std::vector<ReadoutError>& errors :
         {std::vector<ReadoutError>{},
          std::vector<ReadoutError>{{0.0, 0.0}, {1e-17, 0.0}}}) {
      const SlotReadout readout(2, slots, errors);
      std::vector<double> bins;
      readout.confused_bins(probs, bins);
      for (const int shots : {1, 7, 100000}) {
        Rng rng(9);
        std::vector<int> counts;
        SlotReadout::draw_counts(bins, shots, rng, counts);
        int sum = 0;
        for (std::size_t b = 0; b < counts.size(); ++b) {
          EXPECT_GE(counts[b], 0);
          if (bins[b] <= 0.0) {
            EXPECT_EQ(counts[b], 0) << "bin " << b;
          }
          sum += counts[b];
        }
        EXPECT_EQ(sum, shots);
        for (double z : readout.z(probs, shots, 9)) {
          EXPECT_GE(z, -1.0);
          EXPECT_LE(z, 1.0);
        }
      }
    }
  }
  // Every bin empty: no binomial is drawn; the shots land in the last bin.
  Rng rng(1);
  std::vector<int> counts;
  SlotReadout::draw_counts(std::vector<double>{0.0, -1e-17, 0.0}, 5, rng,
                           counts);
  EXPECT_EQ(counts, (std::vector<int>{0, 0, 5}));
}

TEST(SlotReadout, SingleShotReadsOneOutcomePerSlot) {
  const BackendFixture fx;
  for (const BackendKind kind :
       {BackendKind::kDensityNoisy, BackendKind::kSampled}) {
    const auto backend =
        must_make(BackendConfig().with_kind(kind).with_shots(1), fx.context());
    for (const auto& z : backend->run_logits_batch(fx.data.features)) {
      ASSERT_EQ(z.size(), 2u);
      for (double v : z) EXPECT_TRUE(v == 1.0 || v == -1.0) << v;
    }
  }
  // A deterministic basis state reads its bits on the one shot.
  const SlotReadout readout(2, std::vector<int>{1, 0}, {});
  EXPECT_EQ(readout.z(std::vector<double>{0.0, 1.0, 0.0, 0.0}, 1, 4),
            (std::vector<double>{1.0, -1.0}));
}

TEST(BackendThreading, EvaluatorDispatchesConfiguredBackend) {
  const BackendFixture fx;

  // Pure backend through the evaluator == the noise-free evaluator path.
  NoisyEvalOptions pure_options;
  pure_options.backend.kind = BackendKind::kPureStatevector;
  const double via_eval =
      noisy_accuracy(fx.model, fx.transpiled, fx.theta, fx.data,
                     fx.history.day(0), pure_options);
  EXPECT_DOUBLE_EQ(via_eval, noise_free_accuracy(fx.model, fx.theta, fx.data));

  // Sampled backend evaluates end to end and is deterministic.
  NoisyEvalOptions sampled_options;
  sampled_options.backend =
      BackendConfig().with_kind(BackendKind::kSampled).with_shots(512);
  const NoisyEvalResult a = noisy_evaluate(fx.model, fx.transpiled, fx.theta,
                                           fx.data, fx.history.day(0),
                                           sampled_options);
  const NoisyEvalResult b = noisy_evaluate(fx.model, fx.transpiled, fx.theta,
                                           fx.data, fx.history.day(0),
                                           sampled_options);
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_GE(a.accuracy, 0.0);
  EXPECT_LE(a.accuracy, 1.0);

  // Density plus shots evaluates through the same backend config, equal
  // to the executor's shot batch.
  NoisyEvalOptions density_sampled;
  density_sampled.backend = BackendConfig().with_shots(256);
  const NoisyEvalResult shot_eval = noisy_evaluate(
      fx.model, fx.transpiled, fx.theta, fx.data, fx.history.day(0),
      density_sampled);
  const auto shot_zs =
      build_noisy_executor(fx.model, fx.transpiled, fx.theta,
                           fx.history.day(0), {})
          ->run_z_batch(fx.data.features, {}, 256, 99);
  for (std::size_t i = 0; i < shot_zs.size(); ++i) {
    EXPECT_EQ(shot_eval.predictions[i], static_cast<int>(argmax(shot_zs[i])))
        << "sample " << i;
  }

  // Pure plus shots is rejected, not silently evaluated exactly.
  NoisyEvalOptions conflicting = pure_options;
  conflicting.backend.shots = 32;
  const auto status = noisy_evaluate_or(fx.model, fx.transpiled, fx.theta,
                                        fx.data, fx.history.day(0), conflicting);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kInvalidArgument);

  // An invalid backend config surfaces as a Status, not an abort.
  NoisyEvalOptions invalid;
  invalid.backend.kind = BackendKind::kSampled;  // shots == 0
  EXPECT_FALSE(noisy_evaluate_or(fx.model, fx.transpiled, fx.theta, fx.data,
                                 fx.history.day(0), invalid)
                   .ok());
}

TEST(BackendStatus, OtherDeviceCalibrationIsInvalidArgument) {
  // A 7-qubit jakarta calibration for a belem-routed model covers every
  // routed qubit but is not the routed device: the density engine needs
  // the widths equal, so the Status surface refuses it up front.
  const BackendFixture fx;
  const CalibrationHistory jakarta{FluctuationScenario::jakarta(), 1, 4242};
  const auto result = noisy_evaluate_or(fx.model, fx.transpiled, fx.theta,
                                        fx.data, jakarta.day(0), {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BackendThreading, HarnessBackendOverride) {
  const BackendFixture fx;
  Environment env;
  env.model = fx.model;
  env.transpiled = fx.transpiled;
  env.theta_pretrained = fx.theta;
  env.train = fx.data;
  env.test = fx.data;

  BaselineStrategy strategy(env);
  HarnessOptions options;
  options.backend = BackendConfig().with_kind(BackendKind::kPureStatevector);
  const MethodResult result =
      run_longitudinal(strategy, env, {},
                       {{fx.history.day(0), fx.history.day(1)}}, options)
          .front();
  ASSERT_EQ(result.daily_accuracy.size(), 2u);
  const double noise_free = noise_free_accuracy(fx.model, fx.theta, fx.data);
  // The noise-free regime is calibration-independent: every day equals the
  // pure accuracy exactly.
  EXPECT_DOUBLE_EQ(result.daily_accuracy[0], noise_free);
  EXPECT_DOUBLE_EQ(result.daily_accuracy[1], noise_free);
}

TEST(BackendThreading, ServiceConfigValidatesBackendCombinations) {
  // Backend config errors propagate through ServiceConfig::validate.
  EXPECT_EQ(ServiceConfig()
                .with_backend(BackendConfig().with_kind(BackendKind::kSampled))
                .validate()
                .code(),
            StatusCode::kInvalidArgument);
  // Pure plus shots is inconsistent; density plus shots is a config.
  EXPECT_EQ(ServiceConfig()
                .with_backend(BackendConfig()
                                  .with_kind(BackendKind::kPureStatevector)
                                  .with_shots(64))
                .validate()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ServiceConfig()
                  .with_backend(BackendConfig().with_shots(64))
                  .validate()
                  .ok());
  EXPECT_EQ(ServiceConfig()
                .with_backend(BackendConfig().with_shots(-5))
                .validate()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ServiceConfig()
                  .with_backend(BackendConfig()
                                    .with_kind(BackendKind::kSampled)
                                    .with_shots(128))
                  .validate()
                  .ok());
}

TEST(BackendThreading, ServingOnSampledBackendReportsKind) {
  const BackendFixture fx;
  Environment env;
  env.model = fx.model;
  env.transpiled = fx.transpiled;
  env.theta_pretrained = fx.theta;
  env.train = fx.data;

  ServiceConfig config = ServiceConfig::from_environment(env).with_backend(
      BackendConfig().with_kind(BackendKind::kSampled).with_shots(256));
  StatusOr<InferenceService> service =
      InferenceService::create(env, {}, fx.history.day(0), config);
  ASSERT_TRUE(service.ok()) << service.status().to_string();

  const auto first = service->submit_batch(fx.data.features);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  for (const Prediction& p : *first) {
    EXPECT_EQ(p.backend, BackendKind::kSampled);
    EXPECT_EQ(p.epoch, 1u);
  }
  // Identical batch layout + fixed seed: sampled serving is reproducible.
  const auto second = service->submit_batch(fx.data.features);
  ASSERT_TRUE(second.ok());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].logits, (*second)[i].logits) << "sample " << i;
  }

  // The default service keeps reporting the density regime.
  StatusOr<InferenceService> density =
      InferenceService::create(env, {}, fx.history.day(0));
  ASSERT_TRUE(density.ok());
  const auto prediction = density->submit(fx.data.features[0]);
  ASSERT_TRUE(prediction.ok());
  EXPECT_EQ(prediction->backend, BackendKind::kDensityNoisy);
}

}  // namespace
}  // namespace qucad
