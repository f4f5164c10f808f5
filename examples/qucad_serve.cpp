// qucad_serve: the deployment daemon. Brings up an InferenceService behind
// the length-prefixed TCP wire protocol (src/io/wire.hpp) and keeps serving
// until SIGINT/SIGTERM.
//
// Persistence is the point: on first launch the daemon runs the offline
// pipeline (repository construction over a calibration history), saves the
// trained state as a versioned artifact file (src/io/artifacts.hpp), and
// serves. Every later launch cold-starts from that file in seconds — no
// retraining — and serves bitwise-identical predictions. Remote processes
// classify with WireClient::predict and feed the daemon fresh device
// calibrations with WireClient::push_calibration, which drives the
// repository decision + epoch hot-swap exactly like an in-process
// on_calibration call.
//
//   qucad_serve [--port N] [--artifacts PATH] [--offline-days N] [--expose]
//
//   --port N          TCP port (default 0 = ephemeral; the bound port is
//                     printed either way)
//   --artifacts PATH  artifact file (default qucad_artifacts.qcd); created
//                     on first launch, cold-started from afterwards
//   --offline-days N  offline window for the first-launch build (default 40)
//   --expose          bind all interfaces instead of loopback only

// NOLINTNEXTLINE(modernize-deprecated-headers): POSIX sigset_t/pthread_sigmask
// live in <signal.h>; <csignal> only guarantees std::signal/std::raise.
#include <signal.h>

#include <charconv>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/qucad.hpp"
#include "data/seismic_synth.hpp"
#include "io/artifacts.hpp"
#include "io/wire.hpp"
#include "noise/calibration_history.hpp"
#include "repo/constructor.hpp"
#include "serve/inference_service.hpp"
#include "sim/isa_clones.hpp"

using namespace qucad;

namespace {

struct Args {
  std::uint16_t port = 0;
  std::string artifacts = "qucad_artifacts.qcd";
  int offline_days = 40;
  bool expose = false;
};

// from_chars instead of stoi: a non-numeric or out-of-range value becomes a
// usage error instead of an uncaught std::invalid_argument from main.
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
    if (flag == "--port") {
      if (!parse_int(next(), args.port)) return false;
    } else if (flag == "--artifacts") {
      const char* v = next();
      if (v == nullptr) return false;
      args.artifacts = v;
    } else if (flag == "--offline-days") {
      if (!parse_int(next(), args.offline_days)) return false;
    } else if (flag == "--expose") {
      args.expose = true;
    } else {
      return false;
    }
  }
  return args.offline_days > 0;
}

/// The deterministic half of the service: dataset, model, pretraining and
/// routing are rebuilt identically on every launch (fixed seeds), so only
/// the trained state needs to live in the artifact file.
Environment make_environment(const CalibrationHistory& history) {
  PipelineConfig config;
  config.max_train_samples = 160;
  config.max_test_samples = 64;
  config.constructor_options.kmeans.k = 4;
  config.constructor_options.accuracy_requirement = 0.55;
  // Fast online-compression knobs: a daemon answering a novel calibration
  // should spend seconds, not minutes, on its ADMM rounds.
  config.admm.iterations = 2;
  config.admm.epochs_per_iteration = 1;
  config.admm.finetune_epochs = 0;
  config.constructor_options.admm = config.admm;
  config.manager_options.admm = config.admm;
  return prepare_environment(make_seismic(600, 11), CouplingMap::belem(),
                             history.day(0), config);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: qucad_serve [--port N] [--artifacts PATH] "
                 "[--offline-days N] [--expose]\n";
    return 2;
  }

  const CalibrationHistory history(FluctuationScenario::belem(),
                                   CalibrationHistory::kTotalDays, 2021);
  std::cout << "preparing environment (deterministic: rebuilt identically "
               "every launch)...\n";
  const Environment env = make_environment(history);

  // --- trained state: cold start from the artifact, or build + save ------
  Artifacts artifacts;
  StatusOr<Artifacts> loaded = load_artifacts(args.artifacts);
  if (loaded.ok()) {
    artifacts = std::move(*loaded);
    std::cout << "cold start from " << args.artifacts << ": "
              << artifacts.repository.size() << " models, "
              << artifacts.calibration_history.size()
              << " calibration days\n";
  } else if (loaded.status().code() == StatusCode::kNotFound) {
    std::cout << "no artifact at " << args.artifacts
              << "; running the offline pipeline over " << args.offline_days
              << " days...\n";
    OfflineBuild build = build_repository(
        env.model, env.transpiled, env.theta_pretrained,
        history.slice(0, args.offline_days), env.train, env.profile,
        env.constructor_options);
    artifacts.repository = std::move(build.repository);
    artifacts.calibration_history = history.slice(0, args.offline_days);
    artifacts.config = ServiceConfig::from_environment(env)
                           .with_num_shards(2)
                           .with_queue_capacity(256)
                           .with_deadline_budget(std::chrono::seconds(2));
    if (Status s = save_artifacts(artifacts, args.artifacts); !s.ok()) {
      std::cerr << "cannot save artifacts: " << s.to_string() << "\n";
      return 1;
    }
    std::cout << "trained state saved to " << args.artifacts
              << " (next launch cold-starts from it)\n";
  } else {
    // A present-but-unreadable artifact is refused, not clobbered: the
    // operator decides whether to delete a corrupt file.
    std::cerr << "cannot load " << args.artifacts << ": "
              << loaded.status().to_string() << "\n";
    return 1;
  }

  StatusOr<InferenceService> service = cold_start_service(env, artifacts);
  if (!service.ok()) {
    std::cerr << "cannot start service: " << service.status().to_string()
              << "\n";
    return 1;
  }

  // Block the shutdown signals before the server spawns its threads, so
  // every thread inherits the mask and sigwait below is the one receiver.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  WireServerOptions options;
  options.port = args.port;
  options.loopback_only = !args.expose;
  StatusOr<WireServer> server = WireServer::start(*service, options);
  if (!server.ok()) {
    std::cerr << "cannot start server: " << server.status().to_string()
              << "\n";
    return 1;
  }
  std::cout << "serving on " << (args.expose ? "0.0.0.0" : "127.0.0.1")
            << ":" << server->port() << " (epoch "
            << service->active_epoch() << ", engine " << engine_isa()
            << "); Ctrl-C to stop\n";

  int received = 0;
  sigwait(&signals, &received);
  std::cout << "\nsignal " << received << ": draining...\n";
  server->stop();

  const ServingStats stats = service->stats();
  std::cout << "served " << stats.requests << " requests over "
            << server->connections_accepted() << " connections in "
            << stats.batches << " compiled sweeps; " << stats.swaps
            << " epoch swaps (" << stats.reuses << " reuses, "
            << stats.compressions << " compressions, " << stats.failures
            << " failure reports)\n";
  return 0;
}
