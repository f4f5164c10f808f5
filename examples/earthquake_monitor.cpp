// Earthquake monitor: the paper's motivating deployment, now in its serving
// shape. A seismic-event detector QNN serves classification requests on a
// drifting quantum backend through qucad::InferenceService: the offline-
// built repository answers each morning's calibration (reuse / compress a
// new model / Guidance-2 failure report) with a shard-by-shard hot-swap of
// the compiled executor, and the day's requests arrive as independent
// submit_async() calls — routed across shards, micro-batched per shard and
// admission-controlled (bounded queues + a per-request deadline budget),
// each one classified under that day's epoch. Compare
// src/core/strategies.hpp for the research-harness shape of the same loop.

#include <future>
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "core/qucad.hpp"
#include "data/seismic_synth.hpp"
#include "noise/calibration_history.hpp"
#include "repo/constructor.hpp"
#include "serve/inference_service.hpp"

using namespace qucad;

int main() {
  // --- setup: device history and the trained detector --------------------
  const CalibrationHistory history(FluctuationScenario::belem(),
                                   CalibrationHistory::kTotalDays, 2021);
  PipelineConfig config;
  config.max_train_samples = 160;
  config.max_test_samples = 80;
  config.constructor_options.kmeans.k = 5;
  config.constructor_options.accuracy_requirement = 0.55;
  const Environment env = prepare_environment(
      make_seismic(1200, 11), CouplingMap::belem(), history.day(0), config);

  // --- offline: build the model repository from history ------------------
  std::cout << "building repository from "
            << CalibrationHistory::kOfflineDays << " days of calibrations...\n";
  OfflineBuild build = build_repository(
      env.model, env.transpiled, env.theta_pretrained,
      history.slice(0, CalibrationHistory::kOfflineDays), env.train,
      env.profile, env.constructor_options);

  std::cout << "repository ready: " << build.repository.size()
            << " models, threshold " << fmt(build.repository.threshold(), 4)
            << "\n\n";
  TextTable repo_table({"Entry", "Cluster acc", "Valid", "Frozen params"});
  for (std::size_t i = 0; i < build.repository.size(); ++i) {
    const RepoEntry& e = build.repository.entry(static_cast<int>(i));
    std::size_t frozen = 0;
    for (auto f : e.frozen) frozen += f;
    repo_table.add_row({e.tag, fmt_pct(e.mean_cluster_accuracy),
                        e.valid ? "yes" : "NO", std::to_string(frozen)});
  }
  repo_table.print(std::cout);

  // --- bring up the serving surface --------------------------------------
  // The service owns copies of the model, routing, training data and the
  // repository; the setup objects above can go out of scope. create()
  // validates and returns a Status instead of aborting the process.
  // Production shape: two shards (each with its own micro-batch dispatcher
  // and bounded queue), a deadline budget generous enough for an epoch's
  // first (compile-carrying) sweep but bounding tail latency under real
  // saturation.
  const ServiceConfig serving_config =
      ServiceConfig::from_environment(env)
          .with_num_shards(2)
          .with_queue_capacity(256)
          .with_deadline_budget(std::chrono::seconds(2));
  const int start = CalibrationHistory::kOfflineDays;
  StatusOr<InferenceService> service = InferenceService::create(
      env, std::move(build.repository), history.day(start), serving_config);
  if (!service.ok()) {
    std::cerr << "cannot start serving: " << service.status().to_string()
              << "\n";
    return 1;
  }

  // --- online: three months of daily monitoring --------------------------
  std::cout << "\ndaily monitoring (every 3rd day shown):\n";
  TextTable log({"Date", "Decision", "Model", "Accuracy"});
  for (int day = start; day < start + 90; ++day) {
    const Calibration& calib = history.day(day);

    // Morning calibration event: repository decision + executor hot-swap.
    // In-flight requests would finish on the previous epoch; a failure
    // report keeps the last trusted model serving.
    const StatusOr<CalibrationReport> report = service->on_calibration(calib);
    if (!report.ok()) {
      std::cerr << "calibration event failed: " << report.status().to_string()
                << "\n";
      return 1;
    }
    if (day % 3 != 0) continue;

    // The day's traffic: every sensor reading is an independent async
    // submission — the router spreads them across the shards and each
    // shard's dispatcher coalesces concurrent arrivals into compiled
    // sweeps. A full queue would resolve the future with
    // kResourceExhausted; an expired deadline with kDeadlineExceeded.
    std::vector<std::future<StatusOr<Prediction>>> in_flight;
    in_flight.reserve(env.test.size());
    for (const std::vector<double>& x : env.test.features) {
      in_flight.push_back(service->submit_async(x));
    }
    std::size_t correct = 0;
    std::size_t refused = 0;
    for (std::size_t i = 0; i < in_flight.size(); ++i) {
      const StatusOr<Prediction> prediction = in_flight[i].get();
      if (!prediction.ok()) {
        // Admission control refusing work under overload is an expected
        // serving outcome, not a setup error — count it and move on.
        ++refused;
        continue;
      }
      if (prediction->label == env.test.labels[i]) ++correct;
    }
    if (refused > 0) {
      std::cerr << history.date_string(day) << ": " << refused
                << " requests refused by admission control\n";
    }

    const char* decision = "reused";
    if (report->decision.action == OnlineManager::Decision::Action::NewModel) {
      decision = "compressed new model";
    } else if (!report->failure.ok()) {
      decision = "FAILURE report (kept last model)";
    }
    // repository_snapshot() is the synchronized view — safe even if this
    // loop shared the service with live calibration threads.
    log.add_row({history.date_string(day), decision,
                 std::to_string(service->repository_snapshot().entries) +
                     " in repo",
                 fmt_pct(static_cast<double>(correct) /
                         static_cast<double>(env.test.size()))});
  }
  log.print(std::cout);

  const ServingStats stats = service->stats();
  std::cout << "\nserved " << stats.requests << " requests over 90 days in "
            << stats.batches << " compiled sweeps (" << stats.coalesced
            << " coalesced); " << stats.shed
            << " shed, " << stats.deadline_misses << " deadline misses\n"
            << stats.compressions << " online compressions, " << stats.reuses
            << " repository reuses, " << stats.failures
            << " failure reports, " << stats.swaps << " epoch swaps across "
            << service->shard_stats().size() << " shards\n";
  return 0;
}
