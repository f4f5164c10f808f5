// Fleet simulator tests: seeded drift-stream reproducibility, FleetConfig
// text round-trips, positional readout on the fleet's evaluation path, and
// the fleet harness serving many heterogeneous devices from one repository
// through the shared longitudinal loop.

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "backend/registry.hpp"
#include "common/stats.hpp"
#include "core/qucad.hpp"
#include "core/strategies.hpp"
#include "data/seismic_synth.hpp"
#include "eval/harness.hpp"
#include "fleet/device_spec.hpp"
#include "fleet/drift_stream.hpp"
#include "fleet/harness.hpp"
#include "noise/calibration_history.hpp"
#include "noise/noise_model.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/eval_cache.hpp"
#include "qnn/evaluator.hpp"
#include "transpile/executor.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {
namespace {

using fleet::DeviceSpec;
using fleet::DriftStream;
using fleet::FleetConfig;
using fleet::FleetHarness;
using fleet::FleetOptions;

void expect_calibration_identical(const Calibration& a, const Calibration& b,
                                  int day) {
  ASSERT_EQ(a.num_qubits(), b.num_qubits()) << "day " << day;
  ASSERT_EQ(a.edges(), b.edges()) << "day " << day;
  for (int q = 0; q < a.num_qubits(); ++q) {
    EXPECT_EQ(a.sx_error(q), b.sx_error(q)) << "day " << day << " sx q" << q;
    EXPECT_EQ(a.readout(q).p1_given_0, b.readout(q).p1_given_0)
        << "day " << day << " ro q" << q;
    EXPECT_EQ(a.readout(q).p0_given_1, b.readout(q).p0_given_1)
        << "day " << day << " ro q" << q;
    EXPECT_EQ(a.t1_us(q), b.t1_us(q)) << "day " << day << " t1 q" << q;
    EXPECT_EQ(a.t2_us(q), b.t2_us(q)) << "day " << day << " t2 q" << q;
  }
  for (const auto& [p, r] : a.edges()) {
    EXPECT_EQ(a.cx_error(p, r), b.cx_error(p, r))
        << "day " << day << " cx <" << p << "," << r << ">";
  }
}

bool calibration_differs(const Calibration& a, const Calibration& b) {
  for (int q = 0; q < a.num_qubits(); ++q) {
    if (a.sx_error(q) != b.sx_error(q)) return true;
    if (a.readout(q).p1_given_0 != b.readout(q).p1_given_0) return true;
    if (a.t1_us(q) != b.t1_us(q)) return true;
  }
  for (const auto& [p, r] : a.edges()) {
    if (a.cx_error(p, r) != b.cx_error(p, r)) return true;
  }
  return false;
}

// --------------------------------------------------------------------------
// DriftStream

TEST(DriftStream, SameSpecReproducesBitwiseIdenticalDays) {
  DeviceSpec spec = DeviceSpec::belem("twin", 77);
  spec.error_scale = 1.2;
  spec.baseline_jitter = 0.2;
  spec.maintenance_rate = 0.3;
  spec.episode_shift = -5;

  const StatusOr<DriftStream> a = DriftStream::create(spec, 48);
  const StatusOr<DriftStream> b = DriftStream::create(spec, 48);
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  ASSERT_TRUE(b.ok()) << b.status().to_string();
  ASSERT_EQ(a->history().days(), 48);
  ASSERT_EQ(b->history().days(), 48);
  EXPECT_EQ(a->maintenance_days(), b->maintenance_days());
  for (int d = 0; d < 48; ++d) {
    expect_calibration_identical(a->history().day(d), b->history().day(d), d);
  }
}

TEST(DriftStream, ZeroMaintenanceMatchesSharedGenerator) {
  // A vanilla belem spec (unit scales, no jitter, no maintenance) must
  // reproduce the paper benches' generator exactly: one calibration
  // synthesis code path.
  const DeviceSpec spec = DeviceSpec::belem();
  const StatusOr<DriftStream> stream = DriftStream::create(spec, 60);
  ASSERT_TRUE(stream.ok()) << stream.status().to_string();
  EXPECT_TRUE(stream->maintenance_days().empty());

  const std::vector<Calibration> reference =
      generate_fluctuation_days(FluctuationScenario::belem(), 60, 2021);
  ASSERT_EQ(stream->history().days(), static_cast<int>(reference.size()));
  for (int d = 0; d < 60; ++d) {
    expect_calibration_identical(stream->history().day(d),
                                 reference[static_cast<std::size_t>(d)], d);
  }
}

TEST(DriftStream, MaintenanceEventsStepTheCalibration) {
  DeviceSpec spec = DeviceSpec::belem("maint", 3);
  spec.maintenance_rate = 0.25;
  DeviceSpec quiet = spec;
  quiet.maintenance_rate = 0.0;

  const StatusOr<DriftStream> noisy = DriftStream::create(spec, 80);
  const StatusOr<DriftStream> base = DriftStream::create(quiet, 80);
  ASSERT_TRUE(noisy.ok()) << noisy.status().to_string();
  ASSERT_TRUE(base.ok()) << base.status().to_string();

  const std::vector<int>& events = noisy->maintenance_days();
  ASSERT_FALSE(events.empty()) << "rate 0.25 over 80 days fired no event";
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i], 0);
    EXPECT_LT(events[i], 80);
    if (i > 0) {
      EXPECT_GT(events[i], events[i - 1]);
    }
  }

  // Before the first event the stream is the pure OU sequence; from the
  // event on, the persistent step change must be visible.
  for (int d = 0; d < events.front(); ++d) {
    expect_calibration_identical(noisy->history().day(d),
                                 base->history().day(d), d);
  }
  EXPECT_TRUE(calibration_differs(noisy->history().day(events.front()),
                                  base->history().day(events.front())));
}

TEST(DriftStream, RejectsInvalidSpecsAndDayCounts) {
  const DeviceSpec good = DeviceSpec::belem();
  EXPECT_FALSE(DriftStream::create(good, 0).ok());
  EXPECT_FALSE(DriftStream::create(good, 5000).ok());

  DeviceSpec bad_topology = good;
  bad_topology.topology = "mars";
  EXPECT_FALSE(DriftStream::create(bad_topology, 10).ok());

  DeviceSpec bad_scale = good;
  bad_scale.error_scale = 0.0;
  EXPECT_FALSE(DriftStream::create(bad_scale, 10).ok());
}

// --------------------------------------------------------------------------
// FleetConfig text form

TEST(FleetConfig, HeterogeneousTextRoundTripIsExact) {
  const FleetConfig config = FleetConfig::heterogeneous(6, 99, 120);
  ASSERT_TRUE(config.validate().ok());
  const std::string text = config.to_text();

  const StatusOr<FleetConfig> parsed = FleetConfig::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->days, config.days);
  EXPECT_EQ(parsed->seed, config.seed);
  ASSERT_EQ(parsed->devices.size(), config.devices.size());
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    const DeviceSpec& want = config.devices[i];
    const DeviceSpec& got = parsed->devices[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.topology, want.topology);
    EXPECT_EQ(got.drift_seed, want.drift_seed);
    EXPECT_EQ(got.error_scale, want.error_scale);  // exact: %.17g round-trip
    EXPECT_EQ(got.t_scale, want.t_scale);
    EXPECT_EQ(got.ou_sigma_scale, want.ou_sigma_scale);
    EXPECT_EQ(got.baseline_jitter, want.baseline_jitter);
    EXPECT_EQ(got.episode_shift, want.episode_shift);
    EXPECT_EQ(got.maintenance_rate, want.maintenance_rate);
    EXPECT_EQ(got.maintenance_seed, want.maintenance_seed);
  }
  EXPECT_EQ(parsed->to_text(), text);
}

TEST(FleetConfig, ParseAcceptsCommentsAndWhitespace) {
  const StatusOr<FleetConfig> parsed = FleetConfig::parse(
      "# fleet scenario\n"
      "\n"
      "fleet days=30 seed=2\n"
      "  device name=a topology=belem seed=5  # trailing note\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->days, 30);
  EXPECT_EQ(parsed->seed, 2u);
  ASSERT_EQ(parsed->devices.size(), 1u);
  EXPECT_EQ(parsed->devices[0].name, "a");
  EXPECT_EQ(parsed->devices[0].drift_seed, 5u);
}

TEST(FleetConfig, ParseRejectsMalformedInput) {
  const char* bad[] = {
      "",                                              // no devices
      "fleet days=10 seed=1\n",                        // no devices
      "fleet days=10\nfleet days=11\n"
      "device name=a topology=belem\n",                // duplicate fleet line
      "fleet days=0\ndevice name=a topology=belem\n",  // days out of range
      "widget name=a\n",                               // unknown line head
      "device name=a name=b topology=belem\n",         // duplicate key
      "device name=a topology=belem error_scale=nope\n",
      "device name=a topology=belem error_scale=1e999\n",  // overflow
      "device name=a topology=belem error_scale=\n",       // empty value
      "device name=a topology=belem bogus=1\n",            // unknown key
      "device name=a topology=mars\n",                     // unknown topology
      "device name=a topology=belem\n"
      "device name=a topology=belem\n",                    // duplicate name
      "device name=a topology=belem maintenance_rate=1.5\n",
      "device name=a topology=belem seed\n",               // not key=value
  };
  for (const char* text : bad) {
    EXPECT_FALSE(FleetConfig::parse(text).ok()) << "accepted: " << text;
  }

  // The size cap guards the fuzz/ingest surface.
  const std::string oversized((1u << 20) + 1, '#');
  EXPECT_FALSE(FleetConfig::parse(oversized).ok());
}

// --------------------------------------------------------------------------
// Positional readout through the fleet path

TEST(Fleet, PositionalReadoutSurvivesStubAndScatteredLayout) {
  // Regression guard on the fleet's evaluation path: with readout_qubits =
  // {1, 3} and a layout that scatters logical onto physical ids, the density
  // evaluation of a drift-stream day must predict what the gate-by-gate
  // reference's slot-ordered <Z> says — a positional indexing slip on
  // either side would diverge (or read out of bounds).
  QnnModel model;
  model.circuit = angle_encoder(4, 4);
  model.circuit.append(build_paper_ansatz(4, 1));
  model.num_classes = 2;
  model.readout_qubits = {1, 3};
  const std::vector<double> theta = init_params(model, 31);

  const StatusOr<DriftStream> stream =
      DriftStream::create(DeviceSpec::belem("ro", 91), 40);
  ASSERT_TRUE(stream.ok()) << stream.status().to_string();
  const Calibration& calib = stream->history().day(23);

  TranspiledModel routed;
  routed.routed =
      route_circuit(model.circuit, CouplingMap::belem(), Layout{4, 2, 0, 1});
  routed.readout_logical = model.readout_qubits;
  ASSERT_TRUE(routed.readout_physical(1) != 1 || routed.readout_physical(3) != 3)
      << "layout failed to separate logical from physical ids";

  Dataset raw = make_seismic(32, 9);
  const Dataset data = FeatureScaler::fit(raw).transform(raw);

  const StatusOr<NoisyEvalResult> direct =
      noisy_evaluate_or(model, routed, theta, data, calib, {});
  ASSERT_TRUE(direct.ok()) << direct.status().to_string();
  const PhysicalCircuit circuit = lower_noisy_circuit(model, routed, theta);
  const NoiseModel noise(calib);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::vector<double> z =
        run_z_reference(circuit, noise, data.features[i]);
    ASSERT_EQ(z.size(), 2u) << "sample " << i;
    const int label = static_cast<int>(argmax(z));
    EXPECT_EQ(direct->predictions[i], label) << "sample " << i;
    if (label == data.labels[i]) ++correct;
  }
  EXPECT_DOUBLE_EQ(direct->accuracy, static_cast<double>(correct) /
                                         static_cast<double>(data.size()));
}

// --------------------------------------------------------------------------
// FleetHarness

PipelineConfig fleet_test_config() {
  // Small data and one-shot compression: the fleet tests assert plumbing and
  // accounting, not paper-quality accuracy.
  PipelineConfig config;
  config.pretrain.epochs = 4;
  config.max_train_samples = 64;
  config.max_test_samples = 24;
  config.profile_samples = 12;
  config.admm.iterations = 1;
  config.admm.epochs_per_iteration = 1;
  config.admm.finetune_epochs = 2;
  config.admm.validation_samples = 16;
  config.nat.epochs = 1;
  config.constructor_options.admm = config.admm;
  config.constructor_options.kmeans.k = 2;
  config.constructor_options.profile_samples = 12;
  config.manager_options.admm = config.admm;
  return config;
}

const Environment& fleet_env() {
  static const Environment env = prepare_environment(
      make_seismic(240, 11), CouplingMap::belem(),
      CalibrationHistory(FluctuationScenario::belem(), 1, 2021).day(0),
      fleet_test_config());
  return env;
}

TEST(Fleet, ServesSixteenHeterogeneousDevicesFromOneRepository) {
  const FleetConfig config = FleetConfig::heterogeneous(16, 5, 8);
  FleetOptions options;
  options.offline_days = 4;
  options.online_days = 2;
  options.offline_stride = 2;
  options.max_eval_samples = 16;

  StatusOr<FleetHarness> harness =
      FleetHarness::create(fleet_env(), config, options);
  ASSERT_TRUE(harness.ok()) << harness.status().to_string();
  ASSERT_EQ(harness->streams().size(), 16u);

  // Independent seeded drift: the devices must not be clones of each other.
  EXPECT_TRUE(calibration_differs(harness->streams()[0].history().day(0),
                                  harness->streams()[1].history().day(0)));

  const StatusOr<fleet::FleetResult> result = harness->run();
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  ASSERT_EQ(result->devices.size(), 16u);
  EXPECT_EQ(result->decisions(), 16 * 2);
  EXPECT_GE(result->reuse_rate(), 0.0);
  EXPECT_LE(result->reuse_rate(), 1.0);
  EXPECT_GE(result->repository_entries_offline, 1u);
  EXPECT_GE(result->repository_entries_final,
            result->repository_entries_offline);

  for (const MethodResult& device : result->devices) {
    ASSERT_EQ(device.daily_accuracy.size(), 2u) << device.name;
    ASSERT_EQ(device.day_seconds.size(), 2u) << device.name;
    EXPECT_EQ(device.reuses + device.new_models + device.failures, 2)
        << device.name;
    for (double acc : device.daily_accuracy) {
      EXPECT_GE(acc, 0.0) << device.name;
      EXPECT_LE(acc, 1.0) << device.name;
    }
  }

  // heterogeneous() gives every other device a maintenance stream.
  int maintenance_capable = 0;
  for (const DriftStream& stream : harness->streams()) {
    if (stream.spec().maintenance_rate > 0.0) ++maintenance_capable;
  }
  EXPECT_EQ(maintenance_capable, 8);
}

TEST(Fleet, HarnessServesNonContiguousReadoutModel) {
  // The end-to-end fleet path (repository build, online matching, per-day
  // evaluation) on a model whose classes read from qubits {1, 3}: the
  // positional-readout regression exercised through every fleet layer.
  Environment env = fleet_env();
  QnnModel model;
  model.circuit = angle_encoder(4, 4);
  model.circuit.append(build_paper_ansatz(4, 1));
  model.num_classes = 2;
  model.readout_qubits = {1, 3};
  env.model = model;
  env.theta_pretrained = init_params(model, 31);
  env.transpiled =
      transpile_model(model.circuit, model.readout_qubits, CouplingMap::belem(),
                      &CalibrationHistory(FluctuationScenario::belem(), 1, 2021)
                           .day(0));

  FleetConfig config = FleetConfig::heterogeneous(2, 13, 6);
  FleetOptions options;
  options.offline_days = 3;
  options.online_days = 2;
  options.max_eval_samples = 12;

  StatusOr<FleetHarness> harness = FleetHarness::create(env, config, options);
  ASSERT_TRUE(harness.ok()) << harness.status().to_string();
  const StatusOr<fleet::FleetResult> result = harness->run();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->decisions(), 2 * 2);
  for (const MethodResult& device : result->devices) {
    for (double acc : device.daily_accuracy) {
      EXPECT_GE(acc, 0.0);
      EXPECT_LE(acc, 1.0);
    }
  }
}

TEST(Fleet, CreateRejectsMixedTopologiesAndBadWindows) {
  FleetConfig mixed;
  mixed.days = 40;
  mixed.devices = {DeviceSpec::belem("b"), DeviceSpec::jakarta("j")};
  EXPECT_FALSE(FleetHarness::create(fleet_env(), mixed, {}).ok());

  const FleetConfig small = FleetConfig::heterogeneous(2, 3, 10);
  FleetOptions oversized_window;
  oversized_window.offline_days = 8;
  oversized_window.online_days = 4;
  EXPECT_FALSE(
      FleetHarness::create(fleet_env(), small, oversized_window).ok());

  FleetOptions bad_stride;
  bad_stride.offline_days = 4;
  bad_stride.online_days = 2;
  bad_stride.harness.day_stride = 0;
  EXPECT_FALSE(FleetHarness::create(fleet_env(), small, bad_stride).ok());

  FleetConfig empty;
  empty.devices.clear();
  EXPECT_FALSE(FleetHarness::create(fleet_env(), empty, {}).ok());
}

// offline_days + online_days used to be summed in int: INT_MAX + 1 wrapped
// negative, passed create(), and run() then threw "day index out of range"
// out of the no-throw fleet.
TEST(Fleet, CreateRejectsDayWindowsThatOverflowInt) {
  const FleetConfig small = FleetConfig::heterogeneous(2, 3, 10);
  FleetOptions huge_offline;
  huge_offline.offline_days = INT_MAX;
  huge_offline.online_days = 1;
  const StatusOr<FleetHarness> harness =
      FleetHarness::create(fleet_env(), small, huge_offline);
  ASSERT_FALSE(harness.ok());
  EXPECT_EQ(harness.status().code(), StatusCode::kInvalidArgument);
}

// A day stride past the window used to overflow `d += day_stride` after the
// first served day and index a negative day.
TEST(Fleet, HugeDayStrideServesOneDayPerDevice) {
  const FleetConfig config = FleetConfig::heterogeneous(2, 13, 6);
  FleetOptions options;
  options.offline_days = 3;
  options.online_days = 3;
  options.max_eval_samples = 8;
  options.harness.day_stride = INT_MAX;

  StatusOr<FleetHarness> harness =
      FleetHarness::create(fleet_env(), config, options);
  ASSERT_TRUE(harness.ok()) << harness.status().to_string();
  const StatusOr<fleet::FleetResult> result = harness->run();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->decisions(), 2);
  for (const MethodResult& device : result->devices) {
    ASSERT_EQ(device.days.size(), 1u) << device.name;
    EXPECT_EQ(device.days[0].day, 0) << device.name;
  }
}

// A backend kind with no registered factory validates, so create() accepts
// it; the first evaluation fails, and run() must say so as a Status.
TEST(Fleet, RunReturnsEvaluationErrorsAsStatus) {
  // A backend kind with no registered factory is refused by create(),
  // before any offline work; a registered kind whose factory fails at
  // evaluation time comes back from run() as a Status.
  const FleetConfig config = FleetConfig::heterogeneous(2, 13, 6);
  FleetOptions options;
  options.offline_days = 3;
  options.online_days = 1;
  options.max_eval_samples = 8;
  options.harness.backend =
      BackendConfig().with_kind(static_cast<BackendKind>(200));

  const StatusOr<FleetHarness> refused =
      FleetHarness::create(fleet_env(), config, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  constexpr auto kFailing = static_cast<BackendKind>(201);
  BackendRegistry::global().register_factory(
      kFailing, [](const BackendConfig&, const BackendContext&)
                    -> StatusOr<std::shared_ptr<const ExecutionBackend>> {
        return Status::invalid_argument("this backend builds nothing");
      });
  options.harness.backend = BackendConfig().with_kind(kFailing);
  StatusOr<FleetHarness> harness =
      FleetHarness::create(fleet_env(), config, options);
  ASSERT_TRUE(harness.ok()) << harness.status().to_string();
  const StatusOr<fleet::FleetResult> result = harness->run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// The fleet is an adapter over the one longitudinal loop: a one-device
// fleet must reproduce run_longitudinal with QuCadStrategy on that device's
// stream, decision for decision and accuracy for accuracy.
TEST(Fleet, OneDeviceRunMatchesLongitudinalLoop) {
  const FleetConfig config = FleetConfig::heterogeneous(1, 21, 8);
  FleetOptions options;
  options.offline_days = 4;
  options.online_days = 4;
  options.max_eval_samples = 12;

  StatusOr<FleetHarness> harness =
      FleetHarness::create(fleet_env(), config, options);
  ASSERT_TRUE(harness.ok()) << harness.status().to_string();
  const StatusOr<fleet::FleetResult> fleet_result = harness->run();
  ASSERT_TRUE(fleet_result.ok()) << fleet_result.status().to_string();
  ASSERT_EQ(fleet_result->devices.size(), 1u);
  const MethodResult& device = fleet_result->devices.front();

  Environment env = fleet_env();
  env.test = env.test.take(options.max_eval_samples);
  const CalibrationHistory& history = harness->streams().front().history();
  QuCadStrategy qucad(env);
  const MethodResult direct =
      run_longitudinal(qucad, env, history.slice(0, 4), {history.slice(4, 4)})
          .front();

  EXPECT_EQ(device.name, config.devices.front().name);
  EXPECT_EQ(device.daily_accuracy, direct.daily_accuracy);
  EXPECT_EQ(device.reuses, direct.reuses);
  EXPECT_EQ(device.new_models, direct.new_models);
  EXPECT_EQ(device.failures, direct.failures);
  ASSERT_EQ(device.days.size(), direct.days.size());
  for (std::size_t d = 0; d < direct.days.size(); ++d) {
    ASSERT_TRUE(device.days[d].decision.has_value()) << "day " << d;
    ASSERT_TRUE(direct.days[d].decision.has_value()) << "day " << d;
    const OnlineManager::Decision& a = *device.days[d].decision;
    const OnlineManager::Decision& b = *direct.days[d].decision;
    EXPECT_EQ(device.days[d].day, direct.days[d].day);
    EXPECT_EQ(a.action, b.action) << "day " << d;
    EXPECT_EQ(a.entry_index, b.entry_index) << "day " << d;
    EXPECT_EQ(a.distance, b.distance) << "day " << d;
    EXPECT_EQ(a.threshold, b.threshold) << "day " << d;
  }
}

}  // namespace
}  // namespace qucad
