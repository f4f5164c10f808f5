// serve_wire: the deployed qucad_serve path. A closed loop of kConnections
// WireClient connections, each sending its next predict as soon as the
// previous one answers, against an in-process WireServer in front of an
// InferenceService serving the pretrained 4-qubit belem seismic detector on
// the exact density backend. One shard per connection: a request queues
// only when the router sends it to a shard that is still sweeping. The
// requests are fresh seeded sensor traces, each sent once.

#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>

#include "common.hpp"
#include "common/require.hpp"
#include "io/wire.hpp"
#include "models.hpp"
#include "qnn/eval_cache.hpp"
#include "serve/inference_service.hpp"

namespace perfbench {
namespace {

using namespace qucad;

constexpr int kConnections = 3;
constexpr std::size_t kShards = 3;
constexpr int kSetupRepeats = 11;
// Traffic is sized for this many requests per second of window, well above
// the measured rate, so no input is sent twice; `inputs_reused` in the
// metadata counts any that were.
constexpr double kTrafficPerSecond = 2500.0;
constexpr std::size_t kCheckStride = 64;
constexpr int kWarmupPerConnection = 16;
constexpr int kShots = 8192;
constexpr std::size_t kShareRows = 32;

using Call = std::function<StatusOr<Prediction>(
    int thread, std::span<const double> x, std::uint64_t request)>;

/// One closed-loop phase, plus the logits of every OK prediction on a
/// check entry as (traffic index, logits).
struct LoopResult : Served {
  std::vector<std::pair<std::size_t, std::vector<double>>> checked;
};

/// Where each connection is in the traffic. Connection t starts at
/// t/threads of the way through and walks forward; phases continue where
/// the previous one stopped, so no phase repeats another's inputs.
struct Cursors {
  std::vector<std::size_t> start;
  std::vector<std::size_t> next;

  Cursors(int threads, std::size_t size) {
    for (int t = 0; t < threads; ++t) {
      start.push_back(static_cast<std::size_t>(t) * size / static_cast<std::size_t>(threads));
    }
    next = start;
  }
  /// Requests that ran past the connection's share of the traffic and so
  /// repeated an input another connection owns.
  std::size_t reused(std::size_t size) const {
    const std::size_t share = size / start.size();
    std::size_t total = 0;
    for (std::size_t t = 0; t < start.size(); ++t) {
      const std::size_t sent = next[t] - start[t];
      if (sent > share) total += sent - share;
    }
    return total;
  }
};

LoopResult closed_loop(int threads, double seconds, const Traffic& traffic,
                       Cursors& cursors, std::size_t check_offset, std::uint64_t epoch,
                       int num_classes, Outcomes& outcomes, const Call& call) {
  std::vector<LoopResult> per_thread(static_cast<std::size_t>(threads));
  const auto start = SteadyClock::now();
  const auto deadline =
      start + std::chrono::duration_cast<SteadyClock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      LoopResult& mine = per_thread[static_cast<std::size_t>(t)];
      std::size_t& cursor = cursors.next[static_cast<std::size_t>(t)];
      while (SteadyClock::now() < deadline) {
        const std::size_t i = cursor++ % traffic.size();
        const std::uint64_t request = (static_cast<std::uint64_t>(t) << 40) | i;
        const auto sent = SteadyClock::now();
        const StatusOr<Prediction> p = call(t, traffic.features(i), request);
        const auto done = SteadyClock::now();
        mine.completions.push_back(
            Completion{std::chrono::duration<double>(done - start).count(),
                       std::chrono::duration<double, std::milli>(done - sent).count(),
                       p.ok()});
        outcomes.add(p.status());
        if (!p.ok()) continue;  // counted; the loop keeps going
        if (p->label == traffic.labels[i]) ++mine.right_label;
        if (!well_formed(*p, epoch, num_classes)) ++mine.malformed;
        if (i % kCheckStride == check_offset) mine.checked.emplace_back(i, p->logits);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  LoopResult merged;
  for (LoopResult& r : per_thread) {
    merged.append(r);
    for (auto& c : r.checked) merged.checked.push_back(std::move(c));
  }
  return merged;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// How many of `logits` differ, bit for bit, from submit_batch of the same
/// `rows`: density expectations do not depend on the batch a request rode
/// in. -1 when submit_batch fails.
long mismatches(InferenceService& service, const std::vector<std::vector<double>>& rows,
                const std::vector<std::vector<double>>& logits) {
  const StatusOr<std::vector<Prediction>> reference = service.submit_batch(rows);
  if (!reference.ok()) return -1;
  long differ = 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (!bitwise_equal(logits[k], (*reference)[k].logits)) ++differ;
  }
  return differ;
}

}  // namespace

Result run_serve_wire(const Args& args) {
  Result result;
  Tracer off(false);
  Tracer on(true);
  Tracer* tracer = &off;

  const fleet::DriftStream stream = device_stream(/*maintenance=*/false);
  const Calibration& calibration =
      stream.history().day(CalibrationHistory::kOfflineDays);
  const Traffic traffic = make_traffic(
      args.seed, static_cast<std::size_t>(std::ceil(args.seconds * kTrafficPerSecond)));
  const std::size_t check_offset = static_cast<std::size_t>(args.seed % kCheckStride);

  std::optional<Environment> env;
  std::optional<InferenceService> service;
  std::optional<WireServer> server;
  std::vector<WireClient> clients;
  std::vector<double> prepare_s;

  const auto teardown = [&] {
    clients.clear();
    server.reset();
    service.reset();
    env.reset();
  };
  const auto setup = [&] {
    const auto start = SteadyClock::now();
    env.emplace(seismic_environment(stream));
    prepare_s.push_back(seconds_since(start));

    StatusOr<InferenceService> created = InferenceService::create(
        *env, {}, calibration, ServiceConfig::from_environment(*env).with_num_shards(kShards));
    require(created.ok(), created.status().to_string());
    service.emplace(std::move(created).value());
    StatusOr<WireServer> started = WireServer::start(*service);
    require(started.ok(), started.status().to_string());
    server.emplace(std::move(started).value());
    for (int c = 0; c < kConnections; ++c) {
      StatusOr<WireClient> client = WireClient::connect("127.0.0.1", server->port());
      require(client.ok(), client.status().to_string());
      for (int r = 0; r < kWarmupPerConnection; ++r) {
        const StatusOr<Prediction> p =
            client->predict(env->test.features[static_cast<std::size_t>(r)]);
        require(p.ok(), p.status().to_string());
      }
      clients.push_back(std::move(client).value());
    }
  };
  const double setup_s = median_setup_seconds(kSetupRepeats, teardown, setup);

  const std::uint64_t epoch = service->active_epoch();
  const int num_classes = env->model.num_classes;

  const Call wire = [&](int t, std::span<const double> x, std::uint64_t request) {
    auto span = tracer->span("io.wire.predict", request);
    return clients[static_cast<std::size_t>(t)].predict(x);
  };
  const Call submit = [&](int, std::span<const double> x, std::uint64_t request) {
    auto span = tracer->span("serve.submit", request);
    return service->submit(std::vector<double>(x.begin(), x.end()));
  };

  Outcomes outcomes;
  Cursors cursors(kConnections, traffic.size());
  const auto verify = [&](const LoopResult& loop, const char* phase) {
    result.check(loop.malformed == 0,
                 std::string(phase) + ": malformed or wrong-epoch predictions");
    result.check(!loop.checked.empty(), std::string(phase) + ": no check entries served");
    std::vector<std::vector<double>> rows;
    std::vector<std::vector<double>> logits;
    for (const auto& [i, z] : loop.checked) {
      const std::span<const double> x = traffic.features(i);
      rows.emplace_back(x.begin(), x.end());
      logits.push_back(z);
    }
    if (rows.empty()) return;
    const long differ = mismatches(*service, rows, logits);
    result.check(differ == 0, std::string(phase) + ": " + std::to_string(differ) +
                                  " logits differ from submit_batch");
  };
  const auto run_loop = [&](double seconds, const Call& call) {
    return closed_loop(kConnections, seconds, traffic, cursors, check_offset, epoch,
                       num_classes, outcomes, call);
  };

  result.note("loop", "closed");
  result.note("connections", static_cast<double>(kConnections));
  result.note("shards", static_cast<double>(kShards));
  result.note("backend", "density_noisy");
  result.note("model", "seismic 4q belem");
  result.note("setup_repeats", static_cast<double>(kSetupRepeats));
  result.note("traffic_inputs", static_cast<double>(traffic.size()));

  if (!args.trace) {
    const LoopResult loop = run_loop(args.seconds, wire);
    verify(loop, "wire");
    // Accuracy of the deployed service on the held-out test set, asked
    // through the wire after the window; the same answers as submit_batch.
    const std::vector<std::vector<double>>& test = env->test.features;
    std::vector<std::vector<double>> logits;
    std::size_t right = 0;
    for (std::size_t r = 0; r < test.size(); ++r) {
      const StatusOr<Prediction> p = clients[0].predict(test[r]);
      outcomes.add(p.status());
      logits.push_back(p.ok() ? p->logits : std::vector<double>{});
      if (p.ok() && p->label == env->test.labels[r]) ++right;
    }
    const long differ = mismatches(*service, test, logits);
    result.check(differ == 0, "test set: " + std::to_string(differ) +
                                  " wire logits differ from submit_batch");
    set_serving_metrics(result, loop, setup_s, args.seconds,
                        static_cast<double>(right) / static_cast<double>(test.size()));
    result.note("inputs_reused", static_cast<double>(cursors.reused(traffic.size())));
    outcomes.report(result);
    return result;
  }

  // Traced pass: wire phases alternating untraced (the overhead baseline)
  // and traced, then further requests through InferenceService::submit at
  // the same concurrency, then direct probes of the layers underneath.
  const double slice = args.seconds / 6.0;
  Served baseline;
  Served traced;
  ServingStats before;
  ServingStats after;
  for (int k = 0; k < 4; ++k) {
    tracer = k % 2 == 0 ? &off : &on;
    if (k == 1) before = service->stats();
    const LoopResult loop = run_loop(slice, wire);
    if (k == 1) after = service->stats();
    verify(loop, k % 2 == 0 ? "wire (untraced phase)" : "wire (traced phase)");
    (k % 2 == 0 ? baseline : traced).append(loop);
  }
  tracer = &on;
  verify(run_loop(2.0 * slice, submit), "submit");

  const double batch_size = mean_batch(before, after);
  const std::size_t batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(batch_size)));

  // The active epoch's backend, rebuilt for direct calls, on traffic rows.
  BackendContext context = backend_context(*env, env->theta_pretrained, calibration);
  StatusOr<std::shared_ptr<const ExecutionBackend>> backend =
      make_backend(env->eval.backend, context);
  require(backend.ok(), backend.status().to_string());
  constexpr int kBatchRepeats = 400;
  const std::vector<std::vector<double>> probe =
      traffic.rows(0, std::max<std::size_t>(kBatchRepeats * batch, 60 * kShareRows));
  const auto probe_rows = [&](std::size_t at, std::size_t count) {
    return std::span<const std::vector<double>>(probe.data() + at, count);
  };
  traced_repeat(on, "backend.logits_batch", kBatchRepeats, [&](int r) {
    (void)(*backend)->run_logits_batch(probe_rows(static_cast<std::size_t>(r) * batch, batch));
  });
  const std::shared_ptr<const NoisyExecutor> executor = build_noisy_executor(
      env->model, env->transpiled, env->theta_pretrained, calibration, env->eval.noise);
  traced_repeat(on, "sim.density.run_z", kBatchRepeats, [&](int r) {
    (void)executor->run_z(probe[static_cast<std::size_t>(r)]);
  });
  // The sampler the kSampled backend adds over a pure statevector replay,
  // on the same rows: the layer a shot-sampled deployment spends its time in.
  const auto sweep_rows = [&](const ExecutionBackend& b, int r) {
    (void)b.run_logits_batch(probe_rows(static_cast<std::size_t>(r) * kShareRows, kShareRows));
  };
  StatusOr<std::shared_ptr<const ExecutionBackend>> sampled = make_backend(
      BackendConfig().with_kind(BackendKind::kSampled).with_shots(kShots), context);
  StatusOr<std::shared_ptr<const ExecutionBackend>> pure =
      make_backend(BackendConfig().with_kind(BackendKind::kPureStatevector), context);
  require(sampled.ok() && pure.ok(), "cannot build the sampler probe backends");
  traced_repeat(on, "backend.sampled.logits_batch", 60, [&](int r) { sweep_rows(**sampled, r); });
  traced_repeat(on, "backend.pure.logits_batch", 60, [&](int r) { sweep_rows(**pure, r); });
  context.use_cache = false;  // an epoch swap compiles a new calibration
  traced_repeat(on, "backend.build", 20, [&](int) {
    (void)make_backend(env->eval.backend, context);
  });
  const StatusOr<Prediction> sample = service->submit(probe[0]);
  require(sample.ok(), sample.status().to_string());
  // The four predict codec functions on the workload's payloads.
  const double codec_us = mean_us(20000, [&](int r) {
    const std::vector<double>& x = probe[static_cast<std::size_t>(r) % probe.size()];
    std::vector<double> decoded;
    (void)decode_predict_request(encode_predict_request(x), decoded);
    (void)decode_predict_response(encode_predict_response(*sample));
  });

  const std::map<std::string, SpanSummary> spans = on.summarize();
  const double predict_ms = spans.at("io.wire.predict").p50_ms;
  const double submit_ms = spans.at("serve.submit").p50_ms;
  const double logits_ms = spans.at("backend.logits_batch").p50_ms;
  const double sampled_ms = spans.at("backend.sampled.logits_batch").p50_ms;
  const double pure_ms = spans.at("backend.pure.logits_batch").p50_ms;
  const double untraced_p50 = percentile(baseline.latencies_ms(), 0.5);
  const double traced_p50 = percentile(traced.latencies_ms(), 0.5);
  const ServingStats stats = service->stats();

  result.set("io.wire.predict_ms", predict_ms);
  result.set("serve.submit_ms", submit_ms);
  result.set("io.self_ms", predict_ms - submit_ms);
  result.set("serve.batch_size", batch_size);
  result.set("backend.logits_batch_ms", logits_ms);
  result.set("serve.wait_ms", submit_ms - logits_ms);
  result.set("sim.density.run_z_ms", spans.at("sim.density.run_z").p50_ms);
  result.set("backend.sampled.logits_batch_ms", sampled_ms);
  result.set("backend.pure.logits_batch_ms", pure_ms);
  result.set("backend.sampling_share", 1.0 - pure_ms / sampled_ms);
  result.set("backend.build_ms", spans.at("backend.build").p50_ms);
  result.set("io.codec_us", codec_us);
  result.set("serve.shed", static_cast<double>(stats.shed));
  result.set("serve.expired", static_cast<double>(stats.deadline_misses));
  result.set("core.prepare_environment_s", median(prepare_s));
  result.set("trace.overhead_pct", (traced_p50 - untraced_p50) / untraced_p50 * 100.0);
  // io self + serve wait + backend replay telescope to the predict span.
  result.set("trace.coverage", predict_ms / untraced_p50);
  result.set("trace.spans", static_cast<double>(on.size()));
  result.note("setup_s", setup_s);
  result.note("untraced_latency_p50_ms", untraced_p50);
  result.note("traced_latency_p50_ms", traced_p50);
  result.note("probe_batch", static_cast<double>(batch));
  result.note("inputs_reused", static_cast<double>(cursors.reused(traffic.size())));
  write_trace(result, on, args);
  outcomes.report(result);
  return result;
}

}  // namespace perfbench
