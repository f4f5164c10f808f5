// Microbenchmarks (google-benchmark) for the simulation and transpilation
// kernels that dominate experiment runtime.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/model.hpp"
#include "sim/adjoint.hpp"
#include "sim/density_matrix.hpp"
#include "transpile/transpiler.hpp"

namespace {

using namespace qucad;
using bench::bench_theta;
using bench::make_workload;

Circuit make_benchmark_circuit(int qubits, int blocks) {
  Circuit c = angle_encoder(qubits, qubits);
  c.append(build_paper_ansatz(qubits, blocks));
  return c;
}

void BM_StateVectorForward(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const Circuit c = make_benchmark_circuit(qubits, 2);
  const auto theta = bench_theta(c.num_trainable());
  const std::vector<double> x(static_cast<std::size_t>(qubits), 0.7);
  for (auto _ : state) {
    StateVector sv(qubits);
    sv.run(c, theta, x);
    benchmark::DoNotOptimize(sv.expectation_z(0));
  }
}
BENCHMARK(BM_StateVectorForward)->Arg(4)->Arg(5)->Arg(7);

void BM_AdjointGradient(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const Circuit c = make_benchmark_circuit(qubits, 2);
  const auto theta = bench_theta(c.num_trainable());
  const std::vector<double> x(static_cast<std::size_t>(qubits), 0.7);
  std::vector<double> weights(static_cast<std::size_t>(qubits), 0.0);
  weights[0] = 1.0;
  for (auto _ : state) {
    const auto result = adjoint_gradient(c, theta, x, weights);
    benchmark::DoNotOptimize(result.gradients[0]);
  }
}
BENCHMARK(BM_AdjointGradient)->Arg(4)->Arg(5);

void BM_ParameterShiftGradient(benchmark::State& state) {
  const Circuit c = make_benchmark_circuit(4, 1);
  const auto theta = bench_theta(c.num_trainable());
  const std::vector<double> x(4, 0.7);
  const std::vector<double> weights{1.0, 0.0, 0.0, 0.0};
  for (auto _ : state) {
    const auto grads = parameter_shift_gradient(c, theta, x, weights);
    benchmark::DoNotOptimize(grads[0]);
  }
}
BENCHMARK(BM_ParameterShiftGradient);

void BM_NoisyDensityMatrixRun(benchmark::State& state) {
  // Shared bench workload (model + routing + theta + calibration) instead
  // of a per-benchmark lowering block; the executor here is deliberately
  // built directly because the kernel under test is the raw compiled
  // density replay, not the backend dispatch around it.
  const bench::BenchWorkload w = make_workload(4, 2, 2, /*theta_seed=*/1);
  const PhysicalCircuit phys = lower_model(w.transpiled, w.theta);
  const NoiseModel nm(w.calib());
  const CompiledExecutor executor(phys, nm);
  const std::vector<double> x(4, 0.7);
  for (auto _ : state) {
    const auto z = executor.run_z(x);
    benchmark::DoNotOptimize(z[0]);
  }
}
BENCHMARK(BM_NoisyDensityMatrixRun);

void BM_TranspileModel(benchmark::State& state) {
  const bench::BenchWorkload w = make_workload(4, 2, 2, /*theta_seed=*/1);
  for (auto _ : state) {
    const TranspiledModel transpiled =
        transpile_model(w.model.circuit, w.model.readout_qubits,
                        CouplingMap::belem(), &w.calib());
    benchmark::DoNotOptimize(transpiled.routed.swap_count);
  }
}
BENCHMARK(BM_TranspileModel);

void BM_LowerToBasis(benchmark::State& state) {
  const bench::BenchWorkload w = make_workload(4, 2, 2, /*theta_seed=*/1);
  for (auto _ : state) {
    const PhysicalCircuit phys = lower_model(w.transpiled, w.theta);
    benchmark::DoNotOptimize(phys.cx_count());
  }
}
BENCHMARK(BM_LowerToBasis);

void BM_CalibrationHistoryGeneration(benchmark::State& state) {
  for (auto _ : state) {
    const CalibrationHistory history(FluctuationScenario::belem(),
                                     CalibrationHistory::kTotalDays, 2021);
    benchmark::DoNotOptimize(history.day(100).sx_error(0));
  }
}
BENCHMARK(BM_CalibrationHistoryGeneration);

}  // namespace

BENCHMARK_MAIN();
