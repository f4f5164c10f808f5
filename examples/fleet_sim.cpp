// fleet_sim: one model repository serving a whole fleet of drifting
// devices — the paper's longitudinal loop (Sec. III-D) scaled out from one
// machine to M, twice over:
//
//  Phase 1 (longitudinal study): a FleetHarness runs ONE shared repository
//  against every device's seeded drift stream — pooled offline build, then
//  the shared longitudinal loop (run_longitudinal): day by day each
//  device's calibration goes through the OnlineManager (reuse /
//  compress-new / failure) and the chosen model is scored under that
//  device's noise. The harness options select the execution regime: the
//  density backend with finite-shot readout, as a QPU would report it.
//
//  Phase 2 (serving drill): phase 1's offline repository (as the offline
//  build left it, before the online days added to it) behind a sharded
//  InferenceService and the TCP wire protocol, one client per device. The
//  service holds one epoch for the fleet, so on each online day the devices
//  take turns: push_calibration (repository decision + epoch hot-swap),
//  then that day's burst of predictions, each served under the pushing
//  device's noise. The drill reports per-device accuracy and request
//  latency (p50/p99) plus the service's admission and swap counters.
//
//   fleet_sim [--devices M] [--seed S] [--config PATH]
//             [--offline-days N] [--online-days N]
//             [--workload seismic|vibration] [--shards N] [--requests N]
//
//   --devices M     fleet size for the generated heterogeneous fleet
//                   (default 4; ignored with --config)
//   --config PATH   load a fleet from its text form instead of generating
//   --workload      dataset the repository classifies (default seismic)
//   --shards N      InferenceService shard count for phase 2 (default 2)
//   --requests N    predictions per device per online day (default 8)

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/qucad.hpp"
#include "data/seismic_synth.hpp"
#include "data/vibration_synth.hpp"
#include "fleet/device_spec.hpp"
#include "fleet/harness.hpp"
#include "io/wire.hpp"
#include "serve/inference_service.hpp"

using namespace qucad;

namespace {

struct Args {
  int devices = 4;
  std::uint64_t seed = 7;
  std::string config_path;
  int offline_days = 6;
  int online_days = 4;
  std::string workload = "seismic";
  std::size_t shards = 2;
  int requests_per_day = 8;
};

template <typename Int>
bool parse_int(const char* v, Int& out) {
  if (v == nullptr) return false;
  const auto [ptr, ec] = std::from_chars(v, v + std::strlen(v), out);
  return ec == std::errc() && *ptr == '\0';
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--devices") {
      if (!parse_int(next(), args.devices)) return false;
    } else if (flag == "--seed") {
      if (!parse_int(next(), args.seed)) return false;
    } else if (flag == "--config") {
      const char* v = next();
      if (v == nullptr) return false;
      args.config_path = v;
    } else if (flag == "--offline-days") {
      if (!parse_int(next(), args.offline_days)) return false;
    } else if (flag == "--online-days") {
      if (!parse_int(next(), args.online_days)) return false;
    } else if (flag == "--workload") {
      const char* v = next();
      if (v == nullptr) return false;
      args.workload = v;
      if (args.workload != "seismic" && args.workload != "vibration") {
        return false;
      }
    } else if (flag == "--shards") {
      if (!parse_int(next(), args.shards)) return false;
    } else if (flag == "--requests") {
      if (!parse_int(next(), args.requests_per_day)) return false;
    } else {
      return false;
    }
  }
  // The day window is summed below; refuse windows whose sum overflows.
  return args.devices >= 1 && args.offline_days >= 1 &&
         args.online_days >= 1 &&
         args.online_days <=
             std::numeric_limits<int>::max() - args.offline_days &&
         args.shards >= 1 && args.requests_per_day >= 1;
}

/// Deterministic environment shared by both phases. Cost knobs sized so the
/// whole demo (offline build + M-device longitudinal run + serving drill)
/// finishes in well under a minute on a laptop.
Environment make_environment(const std::string& workload,
                             const Calibration& day0) {
  PipelineConfig config;
  config.max_train_samples = 96;
  config.max_test_samples = 32;
  config.profile_samples = 16;
  config.pretrain.epochs = 6;
  config.constructor_options.kmeans.k = 3;
  config.constructor_options.accuracy_requirement = 0.35;
  config.admm.iterations = 1;
  config.admm.epochs_per_iteration = 1;
  config.admm.finetune_epochs = 2;
  config.admm.validation_samples = 16;
  config.nat.epochs = 1;
  config.constructor_options.admm = config.admm;
  config.manager_options.admm = config.admm;
  const Dataset raw = workload == "vibration" ? make_vibration(320, 23)
                                              : make_seismic(320, 11);
  return prepare_environment(raw, CouplingMap::belem(), day0, config);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Per-device outcome of the phase-2 serving drill.
struct DrillResult {
  int predictions = 0;
  int correct = 0;
  int refused = 0;   ///< shed / deadline-expired requests (not retried)
  int reuses = 0;
  int compressions = 0;
  int failures = 0;
  std::vector<double> latency_ms;
};

/// One device's online day: push its calibration (repository decision +
/// epoch hot-swap), then send that day's predictions, so every one of them
/// is served under this device's noise.
void drill_device_day(WireClient& client, const fleet::DriftStream& stream,
                      const Dataset& test, int day, int day_index,
                      int requests_per_day, DrillResult& out) {
  const StatusOr<WireCalibrationAck> ack =
      client.push_calibration(stream.history().day(day));
  if (ack.ok()) {
    using Action = OnlineManager::Decision::Action;
    switch (ack->action) {
      case Action::Reuse: ++out.reuses; break;
      case Action::NewModel: ++out.compressions; break;
      default: ++out.failures; break;
    }
  }
  for (int r = 0; r < requests_per_day; ++r) {
    const std::size_t i =
        static_cast<std::size_t>(day_index * requests_per_day + r) %
        test.size();
    const auto start = std::chrono::steady_clock::now();
    const StatusOr<Prediction> prediction = client.predict(test.features[i]);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    if (!prediction.ok()) {
      ++out.refused;
      continue;
    }
    ++out.predictions;
    if (prediction->label == test.labels[i]) ++out.correct;
    out.latency_ms.push_back(elapsed.count());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: fleet_sim [--devices M] [--seed S] [--config PATH] "
                 "[--offline-days N] [--online-days N] "
                 "[--workload seismic|vibration] [--shards N] "
                 "[--requests N]\n";
    return 2;
  }

  // --- fleet scenario ----------------------------------------------------
  const int days = args.offline_days + args.online_days;
  fleet::FleetConfig fleet_config;
  if (args.config_path.empty()) {
    fleet_config =
        fleet::FleetConfig::heterogeneous(args.devices, args.seed, days);
  } else {
    std::ifstream in(args.config_path);
    if (!in) {
      std::cerr << "cannot open " << args.config_path << "\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    StatusOr<fleet::FleetConfig> parsed =
        fleet::FleetConfig::parse(text.str());
    if (!parsed.ok()) {
      std::cerr << "cannot parse " << args.config_path << ": "
                << parsed.status().to_string() << "\n";
      return 1;
    }
    fleet_config = *std::move(parsed);
  }
  std::cout << "fleet: " << fleet_config.devices.size() << " device(s), "
            << days << " days (" << args.offline_days << " offline + "
            << args.online_days << " online), workload " << args.workload
            << "\n";

  // --- shared environment ------------------------------------------------
  const fleet::DeviceSpec& first = fleet_config.devices.front();
  StatusOr<fleet::DriftStream> day0_stream =
      fleet::DriftStream::create(first, 1);
  if (!day0_stream.ok()) {
    std::cerr << "bad device spec: " << day0_stream.status().to_string()
              << "\n";
    return 1;
  }
  const Environment env =
      make_environment(args.workload, day0_stream->history().day(0));

  // --- phase 1: longitudinal fleet study under finite-shot readout -------
  constexpr int kShots = 1024;
  fleet::FleetOptions options;
  options.offline_days = args.offline_days;
  options.online_days = args.online_days;
  options.max_eval_samples = 24;
  options.harness.backend = BackendConfig()
                                .with_kind(BackendKind::kDensityNoisy)
                                .with_shots(kShots)
                                .with_seed(args.seed);

  StatusOr<fleet::FleetHarness> harness =
      fleet::FleetHarness::create(env, fleet_config, options);
  if (!harness.ok()) {
    std::cerr << "cannot create fleet harness: "
              << harness.status().to_string() << "\n";
    return 1;
  }
  std::cout << "\n[phase 1] longitudinal run (density backend, " << kShots
            << "-shot readout)...\n";
  StatusOr<fleet::FleetResult> fleet_result = harness->run();
  if (!fleet_result.ok()) {
    std::cerr << "fleet run failed: " << fleet_result.status().to_string()
              << "\n";
    return 1;
  }
  for (std::size_t i = 0; i < fleet_result->devices.size(); ++i) {
    const MethodResult& device = fleet_result->devices[i];
    std::cout << "  " << device.name << ": mean accuracy "
              << device.metrics.mean_accuracy << " (" << device.reuses << " reuse, "
              << device.new_models << " new, " << device.failures
              << " fail, " << harness->streams()[i].maintenance_days().size()
              << " maintenance event(s))\n";
  }
  std::cout << "  fleet aggregate: mean " << fleet_result->aggregate.mean_accuracy
            << ", reuse rate " << fleet_result->reuse_rate()
            << ", repository " << fleet_result->offline_repository.size()
            << " -> " << fleet_result->repository_entries_final
            << " entries, online optimization "
            << fleet_result->optimize_seconds << " CPU s\n";

  // --- phase 2: phase 1's offline repository behind the wire service -----
  std::cout << "\n[phase 2] serving drill: " << args.shards
            << "-shard InferenceService behind the TCP wire protocol, one "
               "client per device...\n";
  const ServiceConfig service_config =
      ServiceConfig::from_environment(env)
          .with_num_shards(args.shards)
          .with_queue_capacity(256)
          .with_deadline_budget(std::chrono::seconds(2));
  StatusOr<InferenceService> service = InferenceService::create(
      env, std::move(fleet_result->offline_repository),
      harness->streams().front().history().day(args.offline_days),
      service_config);
  if (!service.ok()) {
    std::cerr << "cannot start service: " << service.status().to_string()
              << "\n";
    return 1;
  }
  StatusOr<WireServer> server = WireServer::start(*service, {});
  if (!server.ok()) {
    std::cerr << "cannot start server: " << server.status().to_string()
              << "\n";
    return 1;
  }

  const Dataset drill_test = env.test.take(std::min<std::size_t>(
      env.test.size(), 24));
  const int first_day = args.offline_days;
  const int last_day = args.offline_days + args.online_days;
  std::vector<DrillResult> drill(harness->streams().size());
  std::vector<StatusOr<WireClient>> clients;
  for (std::size_t i = 0; i < drill.size(); ++i) {
    clients.push_back(WireClient::connect("127.0.0.1", server->port()));
  }
  // The service holds one epoch for the whole fleet, so the devices take
  // turns: each pushes its day and sends that day's requests before the
  // next device pushes.
  for (int d = first_day; d < last_day; ++d) {
    for (std::size_t i = 0; i < drill.size(); ++i) {
      if (!clients[i].ok()) continue;
      drill_device_day(*clients[i], harness->streams()[i], drill_test, d,
                       d - first_day, args.requests_per_day, drill[i]);
    }
  }
  clients.clear();
  server->stop();

  for (std::size_t i = 0; i < drill.size(); ++i) {
    const DrillResult& r = drill[i];
    const double accuracy =
        r.predictions > 0
            ? static_cast<double>(r.correct) / r.predictions
            : 0.0;
    std::cout << "  " << harness->streams()[i].spec().name << ": "
              << r.predictions << " served (" << r.refused
              << " refused), accuracy " << accuracy << ", latency p50 "
              << percentile(r.latency_ms, 0.5) << " ms / p99 "
              << percentile(r.latency_ms, 0.99) << " ms; decisions "
              << r.reuses << " reuse / " << r.compressions << " new / "
              << r.failures << " fail\n";
  }
  const ServingStats stats = service->stats();
  std::cout << "  service: " << stats.requests << " requests in "
            << stats.batches << " sweeps over "
            << server->connections_accepted() << " connection(s); "
            << stats.swaps << " epoch swap(s), " << stats.shed
            << " shed, " << stats.deadline_misses << " deadline miss(es)\n";
  return 0;
}
