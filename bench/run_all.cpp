// Self-timed perf driver: runs the kernel and noisy-evaluation benchmarks
// and emits machine-readable BENCH_*.json records so the perf trajectory of
// the repo can be tracked across PRs without google-benchmark tooling.
//
// Usage: run_all [--group <name>] [output_dir]
//   output_dir defaults to the current directory; --group reruns one record
//   group alone (kernels, compiled_eval, train, simd, serving, backends,
//   wire, fleet) and writes only its BENCH_<name>.json.
//
// Each BENCH_<group>.json file holds:
//   {"schema": "qucad-bench-v1", "group": ..., "engine_isa": ...,
//    "hw_threads": ..., "compiler": ..., "build_type": ..., "records": [
//      {"name", "params", "iters", "seconds", "throughput", "unit"}, ...]}
// engine_isa is the replay clone the CPU resolves (sim/isa_clones.hpp).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fleet/harness.hpp"
#include "io/wire.hpp"
#include "data/mnist_synth.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/eval_cache.hpp"
#include "qnn/evaluator.hpp"
#include "qnn/gradients.hpp"
#include "qnn/model.hpp"
#include "qnn/trainer.hpp"
#include "serve/inference_service.hpp"
#include "sim/adjoint.hpp"
#include "sim/isa_clones.hpp"
#include "sim/statevector.hpp"
#include "transpile/transpiler.hpp"

namespace qucad::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Record {
  std::string name;
  std::string params;   // free-form "k=v,k=v" descriptor
  std::int64_t iters = 0;
  double seconds = 0.0;
  double throughput = 0.0;  // work items per second (see unit)
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_group(const std::string& dir, const std::string& group,
                 const std::vector<Record>& records) {
  const std::string path = dir + "/BENCH_" + group + ".json";
  std::ofstream os(path);
  require(os.good(), "cannot open " + path);
  os << "{\n  \"schema\": \"qucad-bench-v1\",\n  \"group\": \"" << group
     << "\",\n  \"engine_isa\": \"" << engine_isa()
     << "\",\n  \"hw_threads\": " << std::thread::hardware_concurrency()
     << ",\n  \"compiler\": \"" << json_escape(QUCAD_BENCH_COMPILER)
     << "\",\n  \"build_type\": \"" << json_escape(QUCAD_BENCH_BUILD_TYPE)
     << "\",\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    os << "    {\"name\": \"" << json_escape(r.name) << "\", \"params\": \""
       << json_escape(r.params) << "\", \"iters\": " << r.iters
       << ", \"seconds\": " << r.seconds << ", \"throughput\": " << r.throughput
       << ", \"unit\": \"" << json_escape(r.unit) << "\"}"
       << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  require(os.good(), "write failed for " + path);
  std::cout << "wrote " << path << "\n";
}

/// Runs `body` repeatedly until ~min_seconds of wall time accumulate and
/// returns a throughput record (items/sec with `items_per_iter` items per
/// call). One warmup call is excluded from timing.
template <typename Body>
Record time_loop(const std::string& name, const std::string& params,
                 double items_per_iter, const std::string& unit, Body&& body,
                 double min_seconds = 0.25) {
  body();  // warmup
  Record r;
  r.name = name;
  r.params = params;
  r.unit = unit;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < min_seconds) {
    body();
    ++r.iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  r.seconds = elapsed;
  r.throughput = static_cast<double>(r.iters) * items_per_iter / elapsed;
  return r;
}

/// One timed window of a record: runs its body for ~`seconds` (a
/// time_loop call) and returns the record.
using TimedWindow = std::function<Record(double seconds)>;

/// Times the sides of a ratio record against each other: `rounds` rounds
/// of one ~window_seconds window per side, the sides in turn, each side
/// keeping its fastest window. Load from elsewhere on the machine then
/// lands on every side alike instead of on whichever side ran while it
/// lasted, and a window it slows is dropped rather than averaged in.
std::vector<Record> time_interleaved(const std::vector<TimedWindow>& sides,
                                     int rounds, double window_seconds) {
  std::vector<Record> best(sides.size());
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < sides.size(); ++i) {
      const Record r = sides[i](window_seconds);
      if (r.throughput > best[i].throughput) best[i] = r;
    }
  }
  return best;
}

/// The rounds and window length of the engine ratio records
/// (compiled_speedup, simd_noisy_speedup) and the pool-parallel
/// batch_forward and ragged noisy_batch_forward records: 0.8 s per side,
/// in windows short enough that a slow spell of the host spoils few of
/// them.
constexpr int kRatioRounds = 16;
constexpr double kRatioWindowSeconds = 0.05;

std::vector<Record> kernel_benches() {
  std::vector<Record> records;
  for (int qubits : {4, 6, 8}) {
    Circuit c = angle_encoder(qubits, qubits);
    c.append(build_paper_ansatz(qubits, 2));
    const auto theta = bench_theta(c.num_trainable());
    const std::vector<double> x(static_cast<std::size_t>(qubits), 0.7);
    records.push_back(time_loop(
        "statevector_forward", "qubits=" + std::to_string(qubits), 1.0,
        "circuits/sec", [&] {
          StateVector sv(qubits);
          sv.run(c, theta, x);
          volatile double sink = sv.expectation_z(0);
          (void)sink;
        }));
  }
  for (int qubits : {4, 6}) {
    Circuit c = angle_encoder(qubits, qubits);
    c.append(build_paper_ansatz(qubits, 2));
    const auto theta = bench_theta(c.num_trainable());
    const std::vector<double> x(static_cast<std::size_t>(qubits), 0.7);
    std::vector<double> weights(static_cast<std::size_t>(qubits), 0.0);
    weights[0] = 1.0;
    records.push_back(time_loop(
        "adjoint_gradient", "qubits=" + std::to_string(qubits), 1.0,
        "gradients/sec", [&] {
          const auto result = adjoint_gradient(c, theta, x, weights);
          volatile double sink = result.gradients[0];
          (void)sink;
        }));
  }
  {
    const CalibrationHistory history(FluctuationScenario::belem(), 10, 2021);
    const QnnModel model = build_paper_model(4, 4, 2, 2);
    records.push_back(time_loop("transpile_model", "device=belem", 1.0,
                                "transpiles/sec", [&] {
                                  const TranspiledModel t = transpile_model(
                                      model.circuit, model.readout_qubits,
                                      CouplingMap::belem(), &history.day(0));
                                  volatile int sink = t.routed.swap_count;
                                  (void)sink;
                                }));
  }
  {
    const BenchWorkload w = make_workload(4, 2, 2, /*theta_seed=*/1);
    records.push_back(time_loop("lower_model", "qubits=4,device=belem", 1.0,
                                "lowerings/sec", [&] {
                                  const PhysicalCircuit phys =
                                      lower_model(w.transpiled, w.theta);
                                  volatile std::size_t sink = phys.cx_count();
                                  (void)sink;
                                }));
  }
  {
    Circuit c = angle_encoder(4, 4);
    c.append(build_paper_ansatz(4, 1));
    const auto theta = bench_theta(c.num_trainable());
    const std::vector<double> x(4, 0.7);
    const std::vector<double> weights{1.0, 0.0, 0.0, 0.0};
    records.push_back(time_loop(
        "parameter_shift_gradient", "qubits=4", 1.0, "gradients/sec", [&] {
          const auto grads = parameter_shift_gradient(c, theta, x, weights);
          volatile double sink = grads[0];
          (void)sink;
        }));
  }
  records.push_back(time_loop(
      "calibration_history",
      "device=belem,days=" + std::to_string(CalibrationHistory::kTotalDays),
      1.0, "histories/sec", [] {
        const CalibrationHistory history(FluctuationScenario::belem(),
                                         CalibrationHistory::kTotalDays, 2021);
        volatile double sink = history.day(100).sx_error(0);
        (void)sink;
      }));
  return records;
}

/// The compiled-engine record group: per-sample replay throughput of the
/// fused op-stream vs the legacy gate-by-gate reference on the same
/// fig-scale workload, plus the end-to-end cached noisy_evaluate rate. The
/// "compiled_speedup" record's throughput field is the dimensionless
/// compiled/reference ratio — hardware-independent, which is what the CI
/// regression gate checks against the checked-in baseline. The
/// "density_executors_per_mib" record is the workload executor's resident
/// footprint as executors per MiB, and "density_programs_per_kop" its
/// program's length as programs per 1000 ops (a lost fusion lengthens it):
/// both deterministic, so their gates are tight.
std::vector<Record> compiled_eval_benches() {
  std::vector<Record> records;
  const BenchWorkload w = make_workload();
  const Dataset data = make_mnist4(64, 24);

  const std::shared_ptr<const CompiledExecutor> executor =
      build_noisy_executor(w.model, w.transpiled, w.theta, w.calib(), {});
  const PhysicalCircuit circuit = lower_noisy_circuit(w.model, w.transpiled,
                                                      w.theta);
  const NoiseModel noise(w.calib());
  const std::string params = "qubits=4,device=belem";

  Record footprint;
  footprint.name = "density_executors_per_mib";
  footprint.params = params;
  footprint.iters = static_cast<std::int64_t>(executor->footprint_bytes());
  footprint.seconds = 0.0;
  footprint.throughput = 1024.0 * 1024.0 /
                         static_cast<double>(executor->footprint_bytes());
  footprint.unit = "executors/MiB (iters = bytes per executor)";
  records.push_back(footprint);

  Record length;
  length.name = "density_programs_per_kop";
  length.params = params;
  length.iters = static_cast<std::int64_t>(executor->program().ops().size());
  length.seconds = 0.0;
  length.throughput =
      1000.0 / static_cast<double>(executor->program().ops().size());
  length.unit = "programs/kop (iters = ops per program)";
  records.push_back(length);

  std::size_t cursor = 0;
  const std::vector<Record> timed = time_interleaved(
      {[&](double seconds) {
        return time_loop(
            "run_z_reference", params, 1.0, "samples/sec",
            [&] {
              const auto z =
                  run_z_reference(circuit, noise, data.features[cursor]);
              cursor = (cursor + 1) % data.size();
              volatile double sink = z[0];
              (void)sink;
            },
            seconds);
      },
       [&](double seconds) {
         return time_loop(
             "run_z_compiled", params, 1.0, "samples/sec",
             [&] {
               const auto z = executor->run_z(data.features[cursor]);
               cursor = (cursor + 1) % data.size();
               volatile double sink = z[0];
               (void)sink;
             },
             seconds);
       }},
      kRatioRounds, kRatioWindowSeconds);
  const Record& reference = timed[0];
  const Record& compiled = timed[1];
  records.push_back(reference);
  records.push_back(compiled);

  Record speedup;
  speedup.name = "compiled_speedup";
  speedup.params = params;
  speedup.iters = 1;
  speedup.seconds = 0.0;
  speedup.throughput = compiled.throughput / reference.throughput;
  speedup.unit = "x (compiled / reference)";
  records.push_back(speedup);

  // End-to-end evaluator path with the executor cache warm: what repository
  // keep-best loops and the longitudinal harness actually pay per call.
  // Warm the cache explicitly, then snapshot stats around the timed loop so
  // the hit-rate record is self-contained (independent of other bench
  // groups' cache traffic and of how many iterations the timer takes):
  // every timed call must hit.
  noisy_evaluate(w.model, w.transpiled, w.theta, data, w.calib());
  const EvalCacheStats before = CompiledEvalCache::global().stats();
  records.push_back(time_loop(
      "noisy_evaluate_cached",
      params + ",samples=" + std::to_string(data.size()),
      static_cast<double>(data.size()), "samples/sec", [&] {
        const auto result =
            noisy_evaluate(w.model, w.transpiled, w.theta, data, w.calib());
        volatile double sink = result.accuracy;
        (void)sink;
      }));
  const EvalCacheStats after = CompiledEvalCache::global().stats();

  const std::size_t hits = after.hits - before.hits;
  const std::size_t misses = after.misses - before.misses;
  Record cache;
  cache.name = "eval_cache_hit_rate";
  // Params must be stable run to run: check_regression.py keys records by
  // (name, params). The hit/miss split is carried by iters (= hits+misses)
  // and the hit-fraction throughput.
  cache.params = params;
  cache.iters = static_cast<std::int64_t>(hits + misses);
  cache.seconds = 0.0;
  cache.throughput = hits + misses == 0
                         ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  cache.unit = "hit fraction";
  records.push_back(cache);
  return records;
}

/// The statevector-training record group: per-sample gradient throughput of
/// the compiled symbolic-theta engine vs the gate-by-gate logical-circuit
/// adjoint on the same model, plus end-to-end train_circuit epochs under
/// each engine. Both batch-gradient sides run on one single-thread pool, so
/// the "train_speedup" record's throughput field — the dimensionless
/// compiled/reference ratio — measures the engines and not how the
/// runner's cores split 32 samples against 4 lane blocks; that is what the
/// CI regression gate checks against the checked-in baseline.
std::vector<Record> train_benches() {
  std::vector<Record> records;
  const QnnModel model = build_paper_model(4, 4, 4, 2);
  const auto theta = bench_theta(model.num_params(), 3);
  const Dataset data = make_mnist4(32, 24);
  std::vector<std::size_t> idx(data.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const std::string params = "qubits=4,blocks=2,batch=" +
                             std::to_string(data.size());

  ThreadPool one_thread(1);
  const Record reference = time_loop(
      "batch_grad_reference", params, static_cast<double>(data.size()),
      "gradients/sec", [&] {
        const BatchGrad bg =
            batch_loss_grad(model.circuit, model.readout_qubits, theta, data,
                            idx, 5.0, &one_thread);
        volatile double sink = bg.grad[0];
        (void)sink;
      });
  records.push_back(reference);

  const auto executor =
      build_pure_executor(model.circuit, model.readout_qubits);
  const Record compiled = time_loop(
      "batch_grad_compiled", params, static_cast<double>(data.size()),
      "gradients/sec", [&] {
        const BatchGrad bg =
            batch_loss_grad(*executor, theta, data, idx, 5.0, &one_thread);
        volatile double sink = bg.grad[0];
        (void)sink;
      });
  records.push_back(compiled);

  Record speedup;
  speedup.name = "train_speedup";
  speedup.params = params;
  speedup.iters = 1;
  speedup.seconds = 0.0;
  speedup.throughput = compiled.throughput / reference.throughput;
  speedup.unit = "x (compiled / reference)";
  records.push_back(speedup);

  // End-to-end fine-tune-shaped epochs (Adam + shuffling + batching) under
  // the compiled engine — what compress/fine_tune and the online adaptation
  // loop actually pay per epoch.
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 16;
  records.push_back(time_loop(
      "train_epoch_compiled", params, static_cast<double>(data.size()),
      "samples/sec", [&] {
        std::vector<double> w = theta;
        const TrainResult r = train_model(model, w, data, config);
        volatile double sink = r.final_train_accuracy;
        (void)sink;
      }));
  return records;
}

/// The SoA lane-replay record group: the compiled engines' one lane
/// template at its two widths on the same model, theta, and sample rows —
/// forward (CompiledExecutor::run_z_batch) and gradient (batch_loss_grad) with
/// full blocks at L = kBlockLanes ("engine=lanes") vs every sample replayed
/// alone at L = 1 ("engine=scalar", the single-sample calls run_z /
/// batch_loss_grad of one row). Both sides spread over the same worker
/// pool, so the ratio isolates the block win (one op-stream walk per
/// kBlockLanes samples + vectorized lane kernels) from thread-level
/// parallelism. "simd_batch_speedup" / "simd_grad_speedup" carry the
/// dimensionless L = 8 / L = 1 ratios at batch 256 — hardware-independent,
/// gated against the checked-in baseline in CI (>= 2x asserted on
/// multi-core runners). "simd_noisy_speedup" is the same ratio for the
/// density engine (CompiledExecutor::run_z_batch vs run_z) at batch 64 on the
/// belem workload; the density lanes also run two small batches on a
/// 4-thread pool, one on each side of parallel_for_lanes' padding choice:
/// 12 rows (one block plus a 4-row tail, 5 replays: the tail pads) and 4
/// rows (4 replays: four width-1 rows at once).
std::vector<Record> simd_benches() {
  std::vector<Record> records;
  const QnnModel model = build_paper_model(4, 4, 4, 2);
  const auto theta = bench_theta(model.num_params(), 3);
  const auto executor =
      build_pure_executor(model.circuit, model.readout_qubits);
  const Dataset data = make_mnist4(256, 24);
  ThreadPool& pool = ThreadPool::global();

  double forward_scalar_256 = 0.0;
  double forward_lanes_256 = 0.0;
  double grad_scalar_256 = 0.0;
  double grad_lanes_256 = 0.0;
  for (const std::size_t batch : {std::size_t{32}, std::size_t{256}}) {
    const std::span<const std::vector<double>> sub(data.features.data(), batch);
    std::vector<std::size_t> idx(batch);
    for (std::size_t i = 0; i < batch; ++i) idx[i] = i;
    auto params_of = [&](bool lanes) {
      return std::string("engine=") + (lanes ? "lanes" : "scalar") +
             ",qubits=4,batch=" + std::to_string(batch);
    };
    // The forward records are pool-parallel, so one slow spell of the host
    // can halve a single window: each side keeps its fastest of several
    // short windows instead.
    auto forward_window = [&](bool lanes, double seconds) {
      return time_loop(
          "batch_forward", params_of(lanes), static_cast<double>(batch),
          "samples/sec",
          [&] {
            std::vector<std::vector<double>> zs;
            if (lanes) {
              zs = executor->run_z_batch(sub, theta);
            } else {
              zs.resize(batch);
              pool.parallel_for(batch, [&](std::size_t i) {
                zs[i] = executor->run_z(sub[i], theta);
              });
            }
            volatile double sink = zs[0][0];
            (void)sink;
          },
          seconds);
    };
    const std::vector<Record> forwards = time_interleaved(
        {[&](double seconds) { return forward_window(false, seconds); },
         [&](double seconds) { return forward_window(true, seconds); }},
        kRatioRounds, kRatioWindowSeconds);
    for (const bool lanes : {false, true}) {
      const std::string params = params_of(lanes);
      const Record& forward = forwards[lanes ? 1 : 0];
      records.push_back(forward);
      const Record grad = time_loop(
          "batch_grad", params, static_cast<double>(batch), "gradients/sec",
          [&] {
            double first = 0.0;
            if (lanes) {
              first = batch_loss_grad(*executor, theta, data, idx, 5.0).grad[0];
            } else {
              std::vector<double> g0(batch);
              pool.parallel_for(batch, [&](std::size_t b) {
                g0[b] = batch_loss_grad(*executor, theta, data,
                                        std::span(idx).subspan(b, 1), 5.0)
                            .grad[0];
              });
              first = g0[0];
            }
            volatile double sink = first;
            (void)sink;
          });
      records.push_back(grad);
      if (batch == 256) {
        (lanes ? forward_lanes_256 : forward_scalar_256) = forward.throughput;
        (lanes ? grad_lanes_256 : grad_scalar_256) = grad.throughput;
      }
    }
  }

  for (const auto& [name, lanes, scalar] :
       {std::tuple<const char*, double, double>{
            "simd_batch_speedup", forward_lanes_256, forward_scalar_256},
        std::tuple<const char*, double, double>{
            "simd_grad_speedup", grad_lanes_256, grad_scalar_256}}) {
    Record speedup;
    speedup.name = name;
    speedup.params = "qubits=4,batch=256";
    speedup.iters = 1;
    speedup.seconds = 0.0;
    speedup.throughput = lanes / scalar;
    speedup.unit = "x (lanes / scalar)";
    records.push_back(speedup);
  }

  // Density-engine lane replay: CompiledExecutor::run_z_batch vs per-sample
  // run_z over the same rows, exact expectations (shots = 0) — the shape
  // of noisy_evaluate and the compression keep_best guard. Smaller batch
  // than the pure group because each sample is a full density evolution.
  {
    const BenchWorkload w = make_workload();
    const std::shared_ptr<const CompiledExecutor> noisy =
        build_noisy_executor(w.model, w.transpiled, w.theta, w.calib(), {});
    constexpr std::size_t kNoisyBatch = 64;
    const std::span<const std::vector<double>> sub(data.features.data(),
                                                   kNoisyBatch);
    auto noisy_window = [&](bool lanes, double seconds) {
      const std::string params = std::string("engine=") +
                                 (lanes ? "lanes" : "scalar") +
                                 ",qubits=4,device=belem,batch=" +
                                 std::to_string(kNoisyBatch);
      return time_loop(
          "noisy_batch_forward", params, static_cast<double>(kNoisyBatch),
          "samples/sec",
          [&] {
            std::vector<std::vector<double>> zs;
            if (lanes) {
              zs = noisy->run_z_batch(sub);
            } else {
              zs.resize(kNoisyBatch);
              pool.parallel_for(kNoisyBatch, [&](std::size_t i) {
                zs[i] = noisy->run_z(sub[i]);
              });
            }
            volatile double sink = zs[0][0];
            (void)sink;
          },
          seconds);
    };
    const std::vector<Record> timed = time_interleaved(
        {[&](double seconds) { return noisy_window(false, seconds); },
         [&](double seconds) { return noisy_window(true, seconds); }},
        kRatioRounds, kRatioWindowSeconds);
    const Record& scalar = timed[0];
    const Record& lanes = timed[1];
    records.push_back(scalar);
    records.push_back(lanes);
    // Ragged batches on a pool of fixed width, so each lands on the same
    // side of the padding choice on every host. Like batch_forward, each
    // keeps its fastest of several short windows.
    ThreadPool four(4);
    auto ragged_window = [&](std::size_t batch, double seconds) {
      return time_loop(
          "noisy_batch_forward",
          "engine=lanes,qubits=4,device=belem,batch=" + std::to_string(batch) +
              ",pool=4",
          static_cast<double>(batch), "samples/sec",
          [&] {
            const auto zs =
                noisy->run_z_batch(sub.first(batch), {}, 0, 99, &four);
            volatile double sink = zs[0][0];
            (void)sink;
          },
          seconds);
    };
    const std::vector<Record> ragged = time_interleaved(
        {[&](double seconds) { return ragged_window(12, seconds); },
         [&](double seconds) { return ragged_window(4, seconds); }},
        kRatioRounds, kRatioWindowSeconds);
    records.insert(records.end(), ragged.begin(), ragged.end());
    Record speedup;
    speedup.name = "simd_noisy_speedup";
    speedup.params = "qubits=4,device=belem,batch=64";
    speedup.iters = 1;
    speedup.seconds = 0.0;
    speedup.throughput = lanes.throughput / scalar.throughput;
    speedup.unit = "x (lanes / scalar)";
    records.push_back(speedup);
  }
  return records;
}

/// Concurrent-client measurement: `clients` threads each push `per_client`
/// requests through InferenceService::submit as fast as the service answers,
/// recording per-request wall latency.
struct HammerResult {
  double seconds = 0.0;
  std::int64_t requests = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

HammerResult hammer_submit(qucad::InferenceService& service,
                           std::span<const std::vector<double>> pool,
                           int clients, int per_client) {
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<qucad::Status> failures(static_cast<std::size_t>(clients));
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& lat = latencies[static_cast<std::size_t>(c)];
      lat.reserve(static_cast<std::size_t>(per_client));
      for (int r = 0; r < per_client; ++r) {
        const std::vector<double>& x =
            pool[static_cast<std::size_t>(c * per_client + r) % pool.size()];
        const auto t0 = Clock::now();
        const auto prediction = service.submit(x);
        if (!prediction.ok()) {
          // Throwing here would escape the thread (std::terminate); stash
          // the status and fail after join, through run_all's handler.
          failures[static_cast<std::size_t>(c)] = prediction.status();
          return;
        }
        lat.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const qucad::Status& status : failures) {
    if (!status.ok()) {
      qucad::require(false, "serving bench: submit failed: " + status.to_string());
    }
  }

  HammerResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  std::vector<double> merged;
  for (const auto& lat : latencies) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  std::sort(merged.begin(), merged.end());
  result.requests = static_cast<std::int64_t>(merged.size());
  if (!merged.empty()) {
    result.p50 = merged[merged.size() / 2];
    result.p99 = merged[(merged.size() * 99) / 100];
  }
  return result;
}

/// Async load generator for the sharded admission-controlled service:
/// `clients` threads each fire `per_client` submit_async requests in bursts
/// of `burst` and gather the futures. Latency is submission -> future
/// resolution for EVERY outcome — a shed or expired request that resolves in
/// microseconds is exactly the admission-control property the saturation
/// records gate (the alternative, unbounded queueing, would stretch every
/// response). Served / shed / expired are counted separately; any other
/// error fails the bench.
struct AsyncHammerResult {
  double seconds = 0.0;
  std::int64_t served = 0;
  std::int64_t shed = 0;     // kResourceExhausted at admission
  std::int64_t expired = 0;  // kDeadlineExceeded while queued
  double p50 = 0.0;          // response time over all outcomes
  double p99 = 0.0;
};

AsyncHammerResult hammer_async(qucad::InferenceService& service,
                               std::span<const std::vector<double>> pool,
                               int clients, int per_client, int burst) {
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<qucad::Status> failures(static_cast<std::size_t>(clients));
  std::atomic<std::int64_t> served{0};
  std::atomic<std::int64_t> shed{0};
  std::atomic<std::int64_t> expired{0};

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& lat = latencies[static_cast<std::size_t>(c)];
      lat.reserve(static_cast<std::size_t>(per_client));
      std::vector<std::pair<Clock::time_point,
                            std::future<qucad::StatusOr<qucad::Prediction>>>>
          in_flight;
      in_flight.reserve(static_cast<std::size_t>(burst));
      for (int r = 0; r < per_client; r += burst) {
        in_flight.clear();
        const int n = std::min(burst, per_client - r);
        for (int b = 0; b < n; ++b) {
          const std::vector<double>& x =
              pool[static_cast<std::size_t>(c * per_client + r + b) %
                   pool.size()];
          in_flight.emplace_back(Clock::now(), service.submit_async(x));
        }
        for (auto& [t0, future] : in_flight) {
          const qucad::StatusOr<qucad::Prediction> result = future.get();
          lat.push_back(
              std::chrono::duration<double>(Clock::now() - t0).count());
          if (result.ok()) {
            served.fetch_add(1, std::memory_order_relaxed);
          } else if (result.status().code() ==
                     qucad::StatusCode::kResourceExhausted) {
            shed.fetch_add(1, std::memory_order_relaxed);
          } else if (result.status().code() ==
                     qucad::StatusCode::kDeadlineExceeded) {
            expired.fetch_add(1, std::memory_order_relaxed);
          } else {
            failures[static_cast<std::size_t>(c)] = result.status();
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const qucad::Status& status : failures) {
    if (!status.ok()) {
      qucad::require(false,
                     "serving bench: submit_async failed: " + status.to_string());
    }
  }

  AsyncHammerResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  result.served = served.load();
  result.shed = shed.load();
  result.expired = expired.load();
  std::vector<double> merged;
  for (const auto& lat : latencies) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  std::sort(merged.begin(), merged.end());
  if (!merged.empty()) {
    result.p50 = merged[merged.size() / 2];
    result.p99 = merged[(merged.size() * 99) / 100];
  }
  return result;
}

/// The serving-layer record group: the micro-batched InferenceService
/// against the naive pre-serving deployment (a sequential loop calling
/// noisy_evaluate once per arriving request), plus concurrent-client
/// throughput and tail latency. "serving_speedup" is the dimensionless
/// batched/naive ratio at 8 in-flight requests; the batched sweep spreads
/// the batch over the worker pool, so the ratio is ~1x on a 1-core
/// container and >= 2x on any multi-core machine (the CI runners that gate
/// it) — see docs/BENCHMARKS.md.
std::vector<Record> serving_benches() {
  std::vector<Record> records;
  BenchWorkload w = make_workload();
  const Calibration& calib = w.calib();
  Environment env;
  env.model = w.model;
  env.theta_pretrained = w.theta;
  env.train = make_mnist4(64, 24);
  env.transpiled = w.transpiled;

  StatusOr<InferenceService> service =
      InferenceService::create(env, {}, calib);
  require(service.ok(), service.status().to_string());

  const std::vector<std::vector<double>>& requests = env.train.features;
  const std::string params = "qubits=4,device=belem";

  // Naive deployment: each request becomes its own one-sample
  // noisy_evaluate call (dataset construction, cache lookup, result structs
  // per request; no batching, no pool parallelism across requests).
  std::size_t cursor = 0;
  const Record naive = time_loop(
      "serve_naive_loop", params + ",clients=8", 8.0, "samples/sec", [&] {
        for (int r = 0; r < 8; ++r) {
          Dataset single;
          single.features = {requests[cursor]};
          single.labels = {0};
          single.num_classes = env.model.num_classes;
          cursor = (cursor + 1) % requests.size();
          const NoisyEvalResult result = noisy_evaluate(
              env.model, env.transpiled, env.theta_pretrained, single, calib);
          volatile double sink = result.accuracy;
          (void)sink;
        }
      });
  records.push_back(naive);

  // The same 8 requests as one compiled sweep through the service.
  cursor = 0;
  const std::size_t last_batch_start = requests.size() - 8;
  const Record batched = time_loop(
      "serve_submit_batch", params + ",clients=8", 8.0, "samples/sec", [&] {
        const std::span<const std::vector<double>> batch(
            requests.data() + cursor, 8);
        cursor = cursor + 8 > last_batch_start ? 0 : cursor + 8;
        const auto predictions = service->submit_batch(batch);
        volatile double sink = (*predictions)[0].logits[0];
        (void)sink;
      });
  records.push_back(batched);

  Record speedup;
  speedup.name = "serving_speedup";
  speedup.params = params + ",clients=8";
  speedup.iters = 1;
  speedup.seconds = 0.0;
  speedup.throughput = batched.throughput / naive.throughput;
  speedup.unit = "x (batched / naive loop)";
  records.push_back(speedup);

  // Live concurrent clients through submit(): dispatcher handoff, shared
  // sweeps for requests that queue during one, and epoch snapshotting
  // included.
  for (const int clients : {1, 8, 32}) {
    const int per_client = clients >= 32 ? 10 : 40;
    const HammerResult h =
        hammer_submit(*service, requests, clients, per_client);
    Record throughput;
    throughput.name = "serve_submit";
    throughput.params = params + ",clients=" + std::to_string(clients);
    throughput.iters = h.requests;
    throughput.seconds = h.seconds;
    throughput.throughput = static_cast<double>(h.requests) / h.seconds;
    throughput.unit = "requests/sec";
    records.push_back(throughput);

    if (clients == 8) {
      // Tail latency, recorded as inverse latency so "higher is better"
      // holds for the regression gate; the seconds field carries the raw
      // latency.
      for (const auto& [name, value] :
           {std::pair<const char*, double>{"serve_latency_p50", h.p50},
            std::pair<const char*, double>{"serve_latency_p99", h.p99}}) {
        Record latency;
        latency.name = name;
        latency.params = params + ",clients=8";
        latency.iters = h.requests;
        latency.seconds = value;
        latency.throughput = value > 0.0 ? 1.0 / value : 0.0;
        latency.unit = "1/sec (inverse latency)";
        records.push_back(latency);
      }
    }
  }

  // --- sharded async saturation sweep -------------------------------------
  // The production shape: 4 shards, bounded 32-deep queues, a 500ms
  // deadline budget, async submission in bursts. At low client counts the
  // records measure routed micro-batched throughput; at 64 clients the
  // p50/p99 records gate tail latency; at 256 clients the service is
  // deliberately oversubscribed (2048 near-simultaneous requests against
  // 128 queue slots) and the gate flips: serve_shed_rate asserts admission
  // control ENGAGES (sheds with kResourceExhausted instead of queueing
  // unboundedly) and serve_async_p99 asserts every response — served, shed
  // or expired — still resolves inside a bounded envelope.
  {
    const ServiceConfig async_config =
        ServiceConfig::from_environment(env)
            .with_num_shards(4)
            .with_queue_capacity(32)
            .with_deadline_budget(std::chrono::milliseconds(500));
    StatusOr<InferenceService> sharded =
        InferenceService::create(env, {}, calib, async_config);
    require(sharded.ok(), sharded.status().to_string());
    const std::string sharded_params = params + ",shards=4";

    for (const int clients : {1, 8, 64, 256}) {
      const int per_client = clients == 1 ? 64 : clients == 8 ? 24 : 8;
      const AsyncHammerResult h =
          hammer_async(*sharded, requests, clients, per_client, /*burst=*/4);
      const std::string cparams =
          sharded_params + ",clients=" + std::to_string(clients);
      const std::int64_t total = h.served + h.shed + h.expired;

      Record throughput;
      throughput.name = "serve_async_submit";
      throughput.params = cparams;
      throughput.iters = h.served;
      throughput.seconds = h.seconds;
      throughput.throughput = static_cast<double>(h.served) / h.seconds;
      throughput.unit = "served requests/sec";
      records.push_back(throughput);

      if (clients == 64 || clients == 256) {
        for (const auto& [name, value] :
             {std::pair<const char*, double>{"serve_async_p50", h.p50},
              std::pair<const char*, double>{"serve_async_p99", h.p99}}) {
          Record latency;
          latency.name = name;
          latency.params = cparams;
          latency.iters = total;
          latency.seconds = value;
          latency.throughput = value > 0.0 ? 1.0 / value : 0.0;
          latency.unit = "1/sec (inverse response time)";
          records.push_back(latency);
        }
      }
      if (clients == 256) {
        Record shed_rate;
        shed_rate.name = "serve_shed_rate";
        shed_rate.params = cparams;
        shed_rate.iters = total;
        shed_rate.seconds = h.seconds;
        shed_rate.throughput =
            total > 0 ? static_cast<double>(h.shed + h.expired) /
                            static_cast<double>(total)
                      : 0.0;
        shed_rate.unit = "refused fraction (shed + expired)";
        records.push_back(shed_rate);
      }
    }
  }
  return records;
}

/// The execution-backend record group: per-backend classification
/// throughput through the uniform ExecutionBackend interface at batch
/// 1/32/256 on a 6-qubit jakarta-routed model, the density backend with
/// 1024 shots at batch 32, a shots sweep of the sampled backend, and two
/// dimensionless ratio records (both sides measured in the same run):
/// "sampled_vs_density_speedup" — how much cheaper hardware-like
/// finite-shot logits are when sampled from the compiled statevector
/// instead of evolved through the exact density matrix (gated >= 5x at 6
/// qubits in CI: density cost grows as 4^n, statevector sampling as 2^n) —
/// and "sampled_shots_flatness", throughput at 8192 shots over throughput
/// at 128 (gated >= 0.67 in CI: the SlotReadout kernel's cost does not
/// depend on the shot count, so 64x the shots stays within 1.5x of flat).
std::vector<Record> backend_benches() {
  std::vector<Record> records;
  const BenchWorkload w = make_workload(/*qubits=*/6);

  // Random encoding angles; the feature pool is larger than the largest
  // batch so sweeps do not reuse one hot sample.
  Rng rng(123);
  std::vector<std::vector<double>> features(
      256, std::vector<double>(static_cast<std::size_t>(w.model.num_inputs())));
  for (auto& x : features) {
    for (double& v : x) v = rng.uniform(0.0, 3.14159265358979323846);
  }

  const int sampled_shots = 1024;
  struct KindSpec {
    const char* label;
    BackendConfig config;
  };
  const KindSpec specs[] = {
      {"density_noisy", BackendConfig{}},
      {"pure_statevector",
       BackendConfig().with_kind(BackendKind::kPureStatevector)},
      {"sampled_statevector", BackendConfig()
                                  .with_kind(BackendKind::kSampled)
                                  .with_shots(sampled_shots)},
  };

  double density_batch32 = 0.0;
  double sampled_batch32 = 0.0;
  auto logits_loop = [&](const ExecutionBackend& backend, std::size_t batch) {
    const std::span<const std::vector<double>> sub(features.data(), batch);
    return [&backend, sub] {
      const auto zs = backend.run_logits_batch(sub);
      volatile double sink = zs[0][0];
      (void)sink;
    };
  };
  // Each backend_logits record keeps its fastest of a few short windows,
  // interleaved over one backend's batch sizes: a slow spell of the shared
  // host then spoils a window rather than the record.
  constexpr int kLogitsRounds = 4;
  constexpr double kLogitsWindowSeconds = 0.1;
  auto logits_window = [&](const ExecutionBackend& backend,
                           const std::string& params,
                           std::size_t batch) -> TimedWindow {
    return [&logits_loop, &backend, params, batch](double seconds) {
      return time_loop("backend_logits", params, static_cast<double>(batch),
                       "samples/sec", logits_loop(backend, batch), seconds);
    };
  };
  for (const KindSpec& spec : specs) {
    const std::shared_ptr<const ExecutionBackend> backend =
        make_workload_backend(w, spec.config);
    std::vector<TimedWindow> batches;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{32},
                                    std::size_t{256}}) {
      batches.push_back(logits_window(
          *backend,
          std::string("backend=") + spec.label +
              ",qubits=6,batch=" + std::to_string(batch),
          batch));
    }
    const std::vector<Record> timed =
        time_interleaved(batches, kLogitsRounds, kLogitsWindowSeconds);
    if (spec.config.kind == BackendKind::kDensityNoisy) {
      density_batch32 = timed[1].throughput;
    }
    if (spec.config.kind == BackendKind::kSampled) {
      sampled_batch32 = timed[1].throughput;
    }
    records.insert(records.end(), timed.begin(), timed.end());
  }

  // Density plus shots: the exact engine's state read out through the same
  // SlotReadout kernel as kSampled.
  {
    const std::shared_ptr<const ExecutionBackend> backend =
        make_workload_backend(w, BackendConfig().with_shots(sampled_shots));
    records.push_back(
        time_interleaved({logits_window(*backend,
                                        "backend=density_noisy,qubits=6,"
                                        "batch=32,shots=" +
                                            std::to_string(sampled_shots),
                                        32)},
                         kLogitsRounds, kLogitsWindowSeconds)[0]);
  }

  // Shot-budget sweep of the sampled backend: the per-sample cost should
  // stay flat, since the readout kernel's draw does not loop over shots.
  // Three interleaved rounds, best of three per budget, so machine load
  // that shifts between budgets does not skew the flatness ratio.
  std::vector<TimedWindow> budgets;
  for (const int shots : {128, 1024, 8192}) {
    budgets.push_back([&w, &logits_loop, shots](double seconds) {
      const std::shared_ptr<const ExecutionBackend> backend =
          make_workload_backend(w, BackendConfig()
                                       .with_kind(BackendKind::kSampled)
                                       .with_shots(shots));
      return time_loop("sampled_shots",
                       "qubits=6,batch=32,shots=" + std::to_string(shots),
                       32.0, "samples/sec", logits_loop(*backend, 32),
                       seconds);
    });
  }
  const std::vector<Record> best = time_interleaved(budgets, 3, 0.25);
  records.insert(records.end(), best.begin(), best.end());

  Record flatness;
  flatness.name = "sampled_shots_flatness";
  flatness.params = "qubits=6,batch=32,shots=8192/128";
  flatness.iters = 1;
  flatness.throughput = best[2].throughput / best[0].throughput;
  flatness.unit = "x (8192 shots / 128 shots)";
  records.push_back(flatness);

  Record speedup;
  speedup.name = "sampled_vs_density_speedup";
  speedup.params =
      "qubits=6,batch=32,shots=" + std::to_string(sampled_shots);
  speedup.iters = 1;
  speedup.seconds = 0.0;
  speedup.throughput = sampled_batch32 / density_batch32;
  speedup.unit = "x (sampled / density)";
  records.push_back(speedup);
  return records;
}

// --- fleet simulator ------------------------------------------------------

/// One-repository-many-devices scaling: a full FleetHarness run per fleet
/// size (4/16/64 heterogeneous belem devices over the same day window),
/// reporting online serving throughput in device-days/sec, per-device-day
/// wall-time p50/p99 (as inverse latency so "higher is better" holds for
/// the regression gate), and the repository reuse rate. The reuse rate is
/// a deterministic function of (environment, fleet, options) under the
/// exact density backend, so its baseline is pinned tight and a dedicated
/// CI step asserts the large-fleet floor.
std::vector<Record> fleet_benches() {
  std::vector<Record> records;

  PipelineConfig config;
  config.max_train_samples = 64;
  config.max_test_samples = 24;
  config.profile_samples = 12;
  config.pretrain.epochs = 4;
  config.constructor_options.kmeans.k = 2;
  config.constructor_options.accuracy_requirement = 0.35;
  config.admm.iterations = 1;
  config.admm.epochs_per_iteration = 1;
  config.admm.finetune_epochs = 2;
  config.admm.validation_samples = 16;
  config.nat.epochs = 1;
  config.constructor_options.admm = config.admm;
  config.manager_options.admm = config.admm;
  const CalibrationHistory day0(FluctuationScenario::belem(), 1, 2021);
  const Environment env = prepare_environment(
      make_seismic(240, 11), CouplingMap::belem(), day0.day(0), config);

  for (const int devices : {4, 16, 64}) {
    fleet::FleetConfig fleet_config =
        fleet::FleetConfig::heterogeneous(devices, 5, 8);
    fleet::FleetOptions options;
    options.offline_days = 4;
    options.online_days = 3;
    options.offline_stride = 2;
    options.max_eval_samples = 16;

    StatusOr<fleet::FleetHarness> harness =
        fleet::FleetHarness::create(env, fleet_config, options);
    require(harness.ok(), harness.status().to_string());

    const auto start = Clock::now();
    StatusOr<fleet::FleetResult> result = harness->run();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    require(result.ok(), result.status().to_string());

    const std::string params = "devices=" + std::to_string(devices) +
                               ",days=3,workload=seismic";
    std::vector<double> day_seconds;
    double serving_seconds = 0.0;
    for (const MethodResult& device : result->devices) {
      for (const double s : device.day_seconds) {
        day_seconds.push_back(s);
        serving_seconds += s;
      }
    }
    const auto device_days = static_cast<std::int64_t>(day_seconds.size());

    Record throughput;
    throughput.name = "fleet_throughput";
    throughput.params = params;
    throughput.iters = device_days;
    throughput.seconds = elapsed;  // whole run, offline build included
    throughput.throughput = serving_seconds > 0.0
                                ? static_cast<double>(device_days) /
                                      serving_seconds
                                : 0.0;
    throughput.unit = "device-days/sec (online window)";
    records.push_back(throughput);

    std::sort(day_seconds.begin(), day_seconds.end());
    const auto rank = [&](double p) {
      const auto r = static_cast<std::size_t>(
          p * static_cast<double>(day_seconds.size() - 1) + 0.5);
      return day_seconds[std::min(r, day_seconds.size() - 1)];
    };
    for (const auto& [name, p] :
         {std::pair<const char*, double>{"fleet_day_p50", 0.5},
          std::pair<const char*, double>{"fleet_day_p99", 0.99}}) {
      Record latency;
      latency.name = name;
      latency.params = params;
      latency.iters = device_days;
      latency.seconds = rank(p);
      latency.throughput = rank(p) > 0.0 ? 1.0 / rank(p) : 0.0;
      latency.unit = "1/sec (inverse device-day latency)";
      records.push_back(latency);
    }

    Record reuse;
    reuse.name = "fleet_reuse_rate";
    reuse.params = params;
    reuse.iters = result->decisions();
    reuse.seconds = elapsed;
    reuse.throughput = result->reuse_rate();
    reuse.unit = "fraction of decisions answered from the repository";
    records.push_back(reuse);
  }
  return records;
}

/// The wire-protocol record group: a multi-connection load generator
/// against a WireServer on a loopback ephemeral port. Each connection is a
/// thread with its own WireClient issuing synchronous predicts, so every
/// request pays the full deployment path — frame encode, TCP round-trip,
/// server decode, a blocking submit through the shard dispatchers, and the
/// response trip back. Records throughput plus request-latency p50/p99 at
/// 1/8/32 connections (latencies as inverse seconds so "higher is better"
/// holds for the regression gate; the raw latency rides in `seconds`).
std::vector<Record> wire_benches() {
  std::vector<Record> records;
  BenchWorkload w = make_workload();
  Environment env;
  env.model = w.model;
  env.theta_pretrained = w.theta;
  env.train = make_mnist4(64, 24);
  env.transpiled = w.transpiled;

  StatusOr<InferenceService> service =
      InferenceService::create(env, {}, w.calib());
  require(service.ok(), service.status().to_string());
  StatusOr<WireServer> server = WireServer::start(*service);
  require(server.ok(), server.status().to_string());

  const std::vector<std::vector<double>>& requests = env.train.features;
  const std::string params = "qubits=4,device=belem";

  // One warmup round-trip so the first epoch's compile cost is not timed.
  {
    StatusOr<WireClient> warm = WireClient::connect("127.0.0.1",
                                                    server->port());
    require(warm.ok(), warm.status().to_string());
    const auto p = warm->predict(requests[0]);
    require(p.ok(), p.status().to_string());
  }

  for (const int connections : {1, 8, 32}) {
    const int per_connection = connections >= 32 ? 8
                               : connections == 8 ? 24
                                                  : 100;
    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(connections));
    std::vector<Status> failures(static_cast<std::size_t>(connections));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(connections));
    const auto start = Clock::now();
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        StatusOr<WireClient> client =
            WireClient::connect("127.0.0.1", server->port());
        if (!client.ok()) {
          failures[static_cast<std::size_t>(c)] = client.status();
          return;
        }
        for (int r = 0; r < per_connection; ++r) {
          const auto& x = requests[static_cast<std::size_t>(c * 31 + r) %
                                   requests.size()];
          const auto sent = Clock::now();
          const StatusOr<Prediction> result = client->predict(x);
          if (!result.ok()) {
            failures[static_cast<std::size_t>(c)] = result.status();
            return;
          }
          latencies[static_cast<std::size_t>(c)].push_back(
              std::chrono::duration<double>(Clock::now() - sent).count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    for (const Status& status : failures) {
      require(status.ok(), "wire bench: predict failed: " + status.to_string());
    }

    std::vector<double> merged;
    for (const auto& lat : latencies) {
      merged.insert(merged.end(), lat.begin(), lat.end());
    }
    std::sort(merged.begin(), merged.end());
    const std::int64_t total = static_cast<std::int64_t>(merged.size());
    const std::string cparams =
        params + ",conns=" + std::to_string(connections);

    Record throughput;
    throughput.name = "wire_predict";
    throughput.params = cparams;
    throughput.iters = total;
    throughput.seconds = seconds;
    throughput.throughput = static_cast<double>(total) / seconds;
    throughput.unit = "requests/sec";
    records.push_back(throughput);

    const double p50 = merged[merged.size() / 2];
    const double p99 = merged[(merged.size() * 99) / 100];
    for (const auto& [name, value] :
         {std::pair<const char*, double>{"wire_latency_p50", p50},
          std::pair<const char*, double>{"wire_latency_p99", p99}}) {
      Record latency;
      latency.name = name;
      latency.params = cparams;
      latency.iters = total;
      latency.seconds = value;
      latency.throughput = value > 0.0 ? 1.0 / value : 0.0;
      latency.unit = "1/sec (inverse latency)";
      records.push_back(latency);
    }
  }
  server->stop();
  return records;
}

}  // namespace
}  // namespace qucad::bench

int main(int argc, char** argv) {
  using namespace qucad::bench;
  const std::pair<std::string, std::vector<Record> (*)()> groups[] = {
      {"kernels", kernel_benches},
      {"compiled_eval", compiled_eval_benches},
      {"train", train_benches},      {"simd", simd_benches},
      {"serving", serving_benches},  {"backends", backend_benches},
      {"wire", wire_benches},        {"fleet", fleet_benches},
  };
  std::string dir = ".";
  std::string only;  // empty = every group
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg != "--group") {
      dir = arg;
      continue;
    }
    only = i + 1 < argc ? argv[++i] : "";
    const bool known = std::any_of(std::begin(groups), std::end(groups),
                                   [&](const auto& g) { return g.first == only; });
    if (!known) {
      std::cerr << "run_all: --group needs one of:";
      for (const auto& g : groups) std::cerr << " " << g.first;
      std::cerr << "\n";
      return 2;
    }
  }
  try {
    // Fail fast on an unwritable output dir before burning bench time.
    {
      const std::string probe_path =
          dir + "/BENCH_" + (only.empty() ? "kernels" : only) + ".json";
      std::ofstream probe(probe_path);
      qucad::require(probe.good(), "cannot open " + probe_path);
    }
    for (const auto& [name, benches] : groups) {
      if (only.empty() || only == name) write_group(dir, name, benches());
    }
  } catch (const std::exception& e) {
    std::cerr << "run_all: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
