// drift_adapt: the paper's Sec. III-D loop on one drifting belem device
// whose calibration also steps at maintenance events. Setup pretrains the
// detector and builds the model repository from the 243-day offline window;
// each measured pass then replays the 146 online days through a fresh
// InferenceService: on_calibration (reuse a stored model, or compress a new
// one online and hot-swap), then submit_batch of the 48-sample test set.
// No request traffic runs beside it.

#include <algorithm>
#include <optional>

#include "common.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "models.hpp"
#include "qnn/eval_cache.hpp"
#include "repo/constructor.hpp"
#include "serve/inference_service.hpp"

namespace perfbench {
namespace {

using namespace qucad;
using Action = OnlineManager::Decision::Action;

constexpr int kSetupRepeats = 5;
constexpr int kOfflineStride = 3;
constexpr int kFirstDay = CalibrationHistory::kOfflineDays;
constexpr int kLastDay = CalibrationHistory::kTotalDays;

/// Everything one pass over the online window observed.
struct Pass {
  std::vector<Action> actions;
  std::vector<double> calibration_ms;  // on_calibration, per day
  std::vector<double> day_ms;          // on_calibration + submit_batch, per day
  std::vector<double> accuracy;        // per day
  std::vector<std::vector<int>> labels;  // per day, in test-set order
  std::uint64_t ok_samples = 0;
  std::uint64_t malformed = 0;
  double elapsed_s = 0.0;
  EvalCacheStats cache_before;
  EvalCacheStats cache_after;
  ServingStats stats;
  ModelRepository final_repository;

  double mean_accuracy() const {
    double sum = 0.0;
    for (const double a : accuracy) sum += a;
    return accuracy.empty() ? 0.0 : sum / static_cast<double>(accuracy.size());
  }
  int count(Action action) const {
    return static_cast<int>(std::count(actions.begin(), actions.end(), action));
  }
};

const char* calibration_span(Action action) {
  switch (action) {
    case Action::Reuse: return "serve.on_calibration_reuse";
    case Action::NewModel: return "serve.on_calibration_new";
    case Action::Failure: return "serve.on_calibration_failure";
  }
  return "serve.on_calibration";
}

Pass run_pass(const Environment& env, const ModelRepository& repository,
              const CalibrationHistory& history, std::uint64_t seed,
              Outcomes& outcomes, Tracer& tracer) {
  CompiledEvalCache::global().clear();
  // The research harness serves the matched model on Guidance-2 failure
  // days, and so does this service, so the two paths stay comparable.
  const ServiceConfig config = ServiceConfig::from_environment(env).with_failure_policy(
      ServiceConfig::FailurePolicy::kServeMatched);
  StatusOr<InferenceService> created =
      InferenceService::create(env, repository, history.day(kFirstDay), config);
  require(created.ok(), created.status().to_string());
  InferenceService& service = *created;

  const std::size_t n = env.test.size();
  Pass pass;
  pass.cache_before = CompiledEvalCache::global().stats();
  const auto start = SteadyClock::now();
  for (int day = kFirstDay; day < kLastDay; ++day) {
    // The seed fixes the order each day's samples are batched in; density
    // expectations do not depend on it.
    const std::vector<std::size_t> order = Rng(seed * 1000003ULL + static_cast<std::uint64_t>(day)).permutation(n);
    std::vector<std::vector<double>> batch;
    for (const std::size_t row : order) batch.push_back(env.test.features[row]);

    // The day span's self time is this loop's own bookkeeping.
    auto day_span = tracer.span("drift.day", static_cast<std::uint64_t>(day));
    const auto t0 = SteadyClock::now();
    const StatusOr<CalibrationReport> report = [&] {
      auto span = tracer.span("serve.on_calibration", static_cast<std::uint64_t>(day));
      StatusOr<CalibrationReport> r = service.on_calibration(history.day(day));
      if (r.ok()) span.rename(calibration_span(r->decision.action));
      return r;
    }();
    const auto t1 = SteadyClock::now();
    const StatusOr<std::vector<Prediction>> predictions = [&] {
      auto span = tracer.span("serve.submit_batch", static_cast<std::uint64_t>(day));
      return service.submit_batch(batch);
    }();
    const auto t2 = SteadyClock::now();

    outcomes.add(report.status());
    pass.actions.push_back(report.ok() ? report->decision.action : Action::Failure);
    pass.calibration_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    pass.day_ms.push_back(std::chrono::duration<double, std::milli>(t2 - t0).count());

    std::vector<int> labels(n, -1);
    std::size_t right = 0;
    for (std::size_t i = 0; i < n; ++i) {
      outcomes.add(predictions.status());
      if (!predictions.ok()) continue;
      const Prediction& p = (*predictions)[i];
      ++pass.ok_samples;
      if (!report.ok() || !well_formed(p, report->epoch, env.model.num_classes)) {
        ++pass.malformed;
      }
      labels[order[i]] = p.label;
      if (p.label == env.test.labels[order[i]]) ++right;
    }
    pass.accuracy.push_back(static_cast<double>(right) / static_cast<double>(n));
    pass.labels.push_back(std::move(labels));
  }
  pass.elapsed_s = seconds_since(start);
  pass.cache_after = CompiledEvalCache::global().stats();
  pass.stats = service.stats();
  pass.final_repository = service.manager().repository();
  return pass;
}

/// The research path on the same days: OnlineManager::process_day, then
/// noisy_evaluate_or of the selected model. Returns "" when its decisions
/// and every predicted label equal the pass's, else what differs.
std::string compare_with_research_path(const Environment& env,
                                       const ModelRepository& repository,
                                       const CalibrationHistory& history,
                                       const Pass& pass) {
  OnlineManager manager(env.model, env.transpiled, env.theta_pretrained, env.train,
                        repository, env.manager_options);
  for (int day = kFirstDay; day < kLastDay; ++day) {
    const std::size_t d = static_cast<std::size_t>(day - kFirstDay);
    const OnlineManager::Decision decision = manager.process_day(history.day(day));
    if (decision.action != pass.actions[d]) {
      return "decision differs on day " + std::to_string(day);
    }
    const StatusOr<NoisyEvalResult> evaluated = noisy_evaluate_or(
        env.model, env.transpiled, manager.repository().entry(decision.entry_index).theta,
        env.test, history.day(day), env.eval);
    if (!evaluated.ok()) return "research evaluation failed: " + evaluated.status().to_string();
    if (evaluated->predictions != pass.labels[d]) {
      return "predicted labels differ on day " + std::to_string(day);
    }
    if (evaluated->accuracy != pass.accuracy[d]) {
      return "accuracy differs on day " + std::to_string(day);
    }
  }
  return "";
}

}  // namespace

Result run_drift_adapt(const Args& args) {
  Result result;
  Tracer off(false);
  Tracer on(true);

  std::optional<fleet::DriftStream> stream;
  std::optional<Environment> env;
  std::optional<OfflineBuild> build;
  std::vector<double> prepare_s;
  std::vector<double> build_s;
  const auto teardown = [&] {
    build.reset();
    env.reset();
    stream.reset();
  };
  const auto setup = [&] {
    auto start = SteadyClock::now();
    stream.emplace(device_stream(/*maintenance=*/true));
    env.emplace(seismic_environment(*stream));
    prepare_s.push_back(seconds_since(start));
    start = SteadyClock::now();
    std::vector<Calibration> offline;
    for (int d = 0; d < kFirstDay; d += kOfflineStride) {
      offline.push_back(stream->history().day(d));
    }
    build.emplace(build_repository(env->model, env->transpiled, env->theta_pretrained,
                                   offline, env->train, env->profile,
                                   env->constructor_options));
    build_s.push_back(seconds_since(start));
  };
  const double setup_s = median_setup_seconds(kSetupRepeats, teardown, setup);
  const CalibrationHistory& history = stream->history();

  Outcomes outcomes;
  const auto verify_pass = [&](const Pass& pass, const Pass& first) {
    result.check(pass.malformed == 0, "malformed or wrong-epoch predictions");
    result.check(pass.actions == first.actions && pass.labels == first.labels,
                 "a repeated pass decided or classified differently");
  };

  result.note("loop", "sequential (calibration event, then the day's batch)");
  result.note("online_days", static_cast<double>(kLastDay - kFirstDay));
  result.note("test_samples", static_cast<double>(env->test.size()));
  result.note("offline_days", static_cast<double>((kFirstDay + kOfflineStride - 1) / kOfflineStride));
  result.note("repository_entries_offline", static_cast<double>(build->repository.size()));
  result.note("backend", "density_noisy");
  result.note("model", "seismic 4q belem, maintenance steps");
  result.note("setup_repeats", static_cast<double>(kSetupRepeats));

  if (!args.trace) {
    std::vector<Pass> passes;
    const auto start = SteadyClock::now();
    do {
      passes.push_back(run_pass(*env, build->repository, history, args.seed, outcomes, off));
      verify_pass(passes.back(), passes.front());
    } while (seconds_since(start) < args.seconds);
    const Pass& first = passes.front();
    const std::string research =
        compare_with_research_path(*env, build->repository, history, first);
    result.check(research.empty(), "research path: " + research);

    // Every pass repeats the same work, so each statistic is taken per pass
    // and reported as the median over passes.
    std::vector<double> p50_ms;
    std::vector<double> p90_ms;
    std::vector<double> p99_ms;
    std::vector<double> compress_ms;
    std::vector<double> days_per_s;
    std::vector<double> samples_per_s;
    for (const Pass& pass : passes) {
      p50_ms.push_back(percentile(pass.day_ms, 0.5));
      p90_ms.push_back(percentile(pass.day_ms, 0.9));
      p99_ms.push_back(percentile(pass.day_ms, 0.99));
      for (std::size_t d = 0; d < pass.actions.size(); ++d) {
        if (pass.actions[d] == Action::NewModel) compress_ms.push_back(pass.calibration_ms[d]);
      }
      days_per_s.push_back(static_cast<double>(pass.actions.size()) / pass.elapsed_s);
      samples_per_s.push_back(static_cast<double>(pass.ok_samples) / pass.elapsed_s);
    }
    const std::uint64_t attempted = outcomes.attempted();
    result.set("setup_s", setup_s);
    result.set("throughput_rps", median(samples_per_s));
    result.set("latency_p50_ms", median(p50_ms));
    result.set("latency_p90_ms", median(p90_ms));
    result.note("latency_p99_ms", median(p99_ms));
    result.set("success_rate", attempted == 0 ? 0.0
                                              : static_cast<double>(outcomes.count(StatusCode::kOk)) /
                                                    static_cast<double>(attempted));
    result.set("accuracy", first.mean_accuracy());
    result.set("peak_rss_mb", peak_rss_mib());
    result.note("passes", static_cast<double>(passes.size()));
    result.note("days_per_s", median(days_per_s));
    result.note("compress_p50_ms", median(compress_ms));
    result.note("compress_days", static_cast<double>(compress_ms.size()));
    result.note("day_latency_samples_per_pass", static_cast<double>(first.day_ms.size()));
    result.note("reuses", static_cast<double>(first.count(Action::Reuse)));
    result.note("new_models", static_cast<double>(first.count(Action::NewModel)));
    result.note("failures", static_cast<double>(first.count(Action::Failure)));
    outcomes.report(result);
    return result;
  }

  // Traced pass: passes alternating untraced (the overhead baseline) and
  // traced for the measured window, then direct probes of the layers the
  // loop calls into.
  std::vector<Pass> passes;
  std::vector<double> untraced_elapsed;
  std::vector<double> traced_elapsed;
  const auto start = SteadyClock::now();
  for (int k = 0; k < 4 || seconds_since(start) < args.seconds; ++k) {
    passes.push_back(run_pass(*env, build->repository, history, args.seed, outcomes,
                              k % 2 == 0 ? off : on));
    verify_pass(passes.back(), passes.front());
    (k % 2 == 0 ? untraced_elapsed : traced_elapsed).push_back(passes.back().elapsed_s);
  }
  const Pass& traced = passes[1];
  const double untraced_s = median(untraced_elapsed);
  const double traced_s = median(traced_elapsed);
  const std::string research =
      compare_with_research_path(*env, build->repository, history, passes.front());
  result.check(research.empty(), "research path: " + research);

  // Online compression called directly on the compress days' calibrations.
  std::vector<int> compress_days;
  for (std::size_t d = 0; d < traced.actions.size(); ++d) {
    if (traced.actions[d] == Action::NewModel) compress_days.push_back(kFirstDay + static_cast<int>(d));
  }
  for (const int day : compress_days) {
    auto span = on.span("compress.admm");
    (void)admm_compress(env->model, env->transpiled, env->theta_pretrained, env->train,
                        history.day(day), env->manager_options.admm);
  }

  // Epoch-swap compile, batch replay and per-sample density replay, on the
  // models the pass served.
  const ModelRepository& repository = traced.final_repository;
  for (int day = kFirstDay; day < kLastDay; day += 4) {
    const Calibration& calibration = history.day(day);
    const ModelRepository::Match match = repository.best_match(calibration.feature_vector());
    const std::vector<double>& theta = repository.entry(match.index).theta;
    BackendContext context = backend_context(*env, theta, calibration);
    context.use_cache = false;
    std::shared_ptr<const ExecutionBackend> backend;
    {
      auto span = on.span("backend.build");
      StatusOr<std::shared_ptr<const ExecutionBackend>> built =
          make_backend(env->eval.backend, context);
      require(built.ok(), built.status().to_string());
      backend = std::move(built).value();
    }
    {
      auto span = on.span("backend.logits_batch");
      (void)backend->run_logits_batch(env->test.features);
    }
    const std::shared_ptr<const NoisyExecutor> executor = build_noisy_executor(
        env->model, env->transpiled, theta, calibration, env->eval.noise);
    for (std::size_t i = 0; i < env->test.size(); i += 6) {
      auto span = on.span("sim.density.run_z");
      (void)executor->run_z(env->test.features[i]);
    }
  }
  std::vector<std::vector<double>> features;
  for (int day = kFirstDay; day < kLastDay; ++day) {
    features.push_back(history.day(day).feature_vector());
  }
  const double match_us = mean_us(20 * static_cast<int>(features.size()), [&](int r) {
    (void)repository.best_match(features[static_cast<std::size_t>(r) % features.size()]);
  });

  const std::map<std::string, SpanSummary> spans = on.summarize();
  const auto p50 = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.p50_ms;
  };
  const auto total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_self_ms;
  };
  // Self times along the loop's blocking path, per traced pass: the
  // calibration events and batches, then the loop's own bookkeeping.
  const double passes_traced = static_cast<double>(traced_elapsed.size());
  const double layers_ms = (total("serve.on_calibration_reuse") +
                            total("serve.on_calibration_new") +
                            total("serve.on_calibration_failure") +
                            total("serve.on_calibration") + total("serve.submit_batch")) /
                           passes_traced;
  const double bookkeeping_ms = total("drift.day") / passes_traced;
  const std::uint64_t lookups =
      (traced.cache_after.hits + traced.cache_after.misses) -
      (traced.cache_before.hits + traced.cache_before.misses);
  const int decisions = static_cast<int>(traced.actions.size());

  result.set("serve.on_calibration_reuse_ms", p50("serve.on_calibration_reuse"));
  result.set("serve.on_calibration_new_ms", p50("serve.on_calibration_new"));
  result.set("serve.submit_batch_ms", p50("serve.submit_batch"));
  result.set("serve.batch_size", traced.stats.batches == 0
                                     ? 0.0
                                     : static_cast<double>(traced.stats.requests) /
                                           static_cast<double>(traced.stats.batches));
  result.set("serve.days_per_s", static_cast<double>(decisions) / untraced_s);
  result.set("compress.admm_ms", p50("compress.admm"));
  result.set("backend.build_ms", p50("backend.build"));
  result.set("backend.logits_batch_ms", p50("backend.logits_batch"));
  result.set("sim.density.run_z_ms", p50("sim.density.run_z"));
  result.set("repo.match_us", match_us);
  result.set("repo.reuse_rate", static_cast<double>(traced.count(Action::Reuse)) / decisions);
  result.set("repo.new_models", traced.count(Action::NewModel));
  result.set("repo.failures", traced.count(Action::Failure));
  result.set("repo.build_repository_s", median(build_s));
  result.set("repo.build_cache_hits", static_cast<double>(build->diagnostics.eval_cache_hits));
  result.set("repo.build_cache_misses", static_cast<double>(build->diagnostics.eval_cache_misses));
  result.set("core.prepare_environment_s", median(prepare_s));
  result.set("qnn.eval_cache_hit_rate",
             lookups == 0 ? 0.0
                          : static_cast<double>(traced.cache_after.hits - traced.cache_before.hits) /
                                static_cast<double>(lookups));
  result.set("trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0);
  result.set("trace.coverage", layers_ms / (untraced_s * 1e3));
  result.set("trace.spans", static_cast<double>(on.size()));
  result.note("setup_s", setup_s);
  result.note("decisions", static_cast<double>(decisions));
  result.note("eval_cache_lookups", static_cast<double>(lookups));
  result.note("accuracy", traced.mean_accuracy());
  result.note("pass_bookkeeping_ms", bookkeeping_ms);
  write_trace(result, on, args);
  outcomes.report(result);
  return result;
}

}  // namespace perfbench
