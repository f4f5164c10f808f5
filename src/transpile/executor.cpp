#include "transpile/executor.hpp"

#include <cmath>

#include "common/heap_bytes.hpp"
#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "linalg/gates.hpp"
#include "noise/channels.hpp"
#include "sim/compiled_adjoint.hpp"

namespace qucad {

namespace {

std::array<cplx, 4> rz_array(double angle) {
  return {std::exp(cplx{0.0, -angle / 2.0}), 0.0, 0.0,
          std::exp(cplx{0.0, angle / 2.0})};
}

/// The circuit's readout slots, each checked against [0, num_qubits) before
/// anything indexes a per-qubit table with it.
const std::vector<int>& checked_readout_slots(const PhysicalCircuit& circuit) {
  for (int pq : circuit.readout_physical()) {
    require(pq >= 0 && pq < circuit.num_qubits(),
            "readout slot qubit out of range");
  }
  return circuit.readout_physical();
}

}  // namespace

NoisyExecutor::NoisyExecutor(const PhysicalCircuit& circuit,
                             const NoiseModel& noise)
    : slots_(checked_readout_slots(circuit)) {
  require(noise.num_qubits() == 0 ||
              noise.num_qubits() == circuit.num_qubits(),
          "noise model qubit count mismatch");
  program_ = CompiledProgram::compile(circuit, noise);
  // Confusion only matters on measured qubits: slot k carries the error of
  // the physical qubit hosting class k.
  std::vector<ReadoutError> slot_errors;
  if (noise.num_qubits() > 0) {
    for (int pq : slots_) {
      slot_errors.push_back(noise.readout()[static_cast<std::size_t>(pq)]);
    }
  }
  readout_ = SlotReadout(circuit.num_qubits(), slots_, std::move(slot_errors));
}

std::vector<double> NoisyExecutor::run_z(std::span<const double> x, int shots,
                                         std::uint64_t seed) const {
  const std::vector<std::vector<double>> one{{x.begin(), x.end()}};
  return run_z_batch(one, shots, seed)[0];
}

std::vector<std::vector<double>> NoisyExecutor::run_z_batch(
    std::span<const std::vector<double>> xs, int shots, std::uint64_t seed,
    ThreadPool* pool) const {
  // Validate the whole batch at the API boundary: a ragged row must fail
  // here, on the calling thread, not deep inside a worker's replay.
  for (const std::vector<double>& x : xs) program_.require_inputs(x);
  std::vector<std::vector<double>> zs(xs.size());
  const bool full_blocks =
      program_.num_qubits() <= BatchedDensityMatrix<kBlockLanes>::kMaxQubits;
  parallel_for_lanes(
      pool ? *pool : ThreadPool::global(), xs.size(), full_blocks,
      [&](auto width, std::size_t first, std::size_t live) {
        constexpr std::size_t L = decltype(width)::value;
        auto& dm = lane_scratch<BatchedDensityMatrix<L>>(program_.num_qubits());
        program_.run_lanes(dm, lane_rows<L>(xs, first, live));
        thread_local std::vector<double> probs;
        for (std::size_t l = 0; l < live; ++l) {
          dm.lane_probabilities(l, probs);
          // Sample i draws from Rng(seed + i), i the GLOBAL sample index,
          // whichever block it lands in.
          zs[first + l] = readout_.z(probs, shots, seed + first + l);
        }
      });
  return zs;
}

std::size_t NoisyExecutor::footprint_bytes() const {
  return sizeof(*this) + program_.heap_bytes() + readout_.heap_bytes() +
         heap_bytes(slots_);
}

PureExecutor::PureExecutor(const PhysicalCircuit& circuit)
    : program_(CompiledProgram::compile(circuit, NoiseModel())),
      readout_(circuit.num_qubits(), circuit.readout_physical(), {}),
      slots_(circuit.readout_physical()) {}

std::size_t PureExecutor::footprint_bytes() const {
  return sizeof(*this) + program_.heap_bytes() + readout_.heap_bytes() +
         heap_bytes(slots_);
}

template <std::size_t L>
void PureExecutor::run_z_lanes(const LaneInputs<L>& xs,
                               std::span<const double> theta,
                               std::span<std::vector<double>> zs,
                               const SlotReadout* readout, int shots,
                               std::uint64_t first_seed) const {
  auto& sv = lane_scratch<BatchedStateVector<L>>(program_.num_qubits());
  program_.run_pure_lanes(sv, xs, theta);
  const SlotReadout& out = readout != nullptr ? *readout : readout_;
  thread_local std::vector<double> probs;
  for (std::size_t l = 0; l < zs.size(); ++l) {
    sv.lane_probabilities(l, probs);
    zs[l] = out.z(probs, shots, first_seed + l);
  }
}

template void PureExecutor::run_z_lanes(const LaneInputs<1>&,
                                        std::span<const double>,
                                        std::span<std::vector<double>>,
                                        const SlotReadout*, int,
                                        std::uint64_t) const;
template void PureExecutor::run_z_lanes(const LaneInputs<kBlockLanes>&,
                                        std::span<const double>,
                                        std::span<std::vector<double>>,
                                        const SlotReadout*, int,
                                        std::uint64_t) const;

std::vector<double> PureExecutor::run_z(std::span<const double> x,
                                        std::span<const double> theta) const {
  program_.require_inputs(x);
  std::vector<double> z;
  run_z_lanes<1>({x.data()}, theta, {&z, 1});
  return z;
}

std::vector<std::vector<double>> PureExecutor::run_z_batch(
    std::span<const std::vector<double>> xs, std::span<const double> theta,
    ThreadPool* pool, const SlotReadout* readout, int shots,
    std::uint64_t seed) const {
  // Validate the whole batch at the API boundary (calling thread), so a
  // ragged row never fails inside a worker's replay.
  for (const std::vector<double>& x : xs) program_.require_inputs(x);
  std::vector<std::vector<double>> zs(xs.size());
  parallel_for_lanes(pool ? *pool : ThreadPool::global(), xs.size(), true,
                     [&](auto width, std::size_t first, std::size_t live) {
                       constexpr std::size_t L = decltype(width)::value;
                       run_z_lanes<L>(lane_rows<L>(xs, first, live), theta,
                                      std::span(zs).subspan(first, live),
                                      readout, shots, seed + first);
                     });
  return zs;
}

AdjointResult PureExecutor::adjoint(std::span<const double> theta,
                                    std::span<const double> x,
                                    const ObservableWeightFn& weight_fn) const {
  program_.require_inputs(x);
  LaneAdjointResult lanes = compiled_adjoint_gradient_lanes<1>(
      program_, theta, {x.data()},
      [&](std::size_t, const std::vector<double>& z) { return weight_fn(z); });
  return {std::move(lanes.z_expectations[0]), std::move(lanes.gradients[0])};
}

DensityMatrix run_density(const PhysicalCircuit& circuit,
                          const NoiseModel& noise, std::span<const double> x) {
  DensityMatrix dm(circuit.num_qubits());
  const bool noisy = noise.num_qubits() > 0;

  auto apply_pulse_noise = [&](int q) {
    const PulseNoise& pn = noise.pulse_noise(q);
    dm.apply_depolarizing1(q, pn.depolarizing_p);
    if (!pn.thermal.empty()) {
      dm.apply_thermal1(q, pn.thermal.gamma, pn.thermal.lambda);
    }
  };

  for (const PhysOp& op : circuit.ops()) {
    switch (op.kind) {
      case PhysOpKind::RZ: {
        const auto rz = rz_array(op.resolve_angle(x));
        dm.apply_diag1(op.q0, rz[0], rz[3]);
        break;
      }
      case PhysOpKind::SX:
        dm.apply1(op.q0, sx_as_array2());
        if (noisy) apply_pulse_noise(op.q0);
        break;
      case PhysOpKind::X:
        dm.apply1(op.q0, x_as_array2());
        if (noisy) apply_pulse_noise(op.q0);
        break;
      case PhysOpKind::CX: {
        dm.apply2(op.q0, op.q1, cx_as_array4());
        if (noisy) {
          const int a = std::min(op.q0, op.q1);
          const int b = std::max(op.q0, op.q1);
          const CxNoise& cn = noise.cx_noise(a, b);
          dm.apply_depolarizing2(a, b, cn.depolarizing_p);
          if (!cn.thermal_first.empty()) {
            dm.apply_thermal1(a, cn.thermal_first.gamma, cn.thermal_first.lambda);
          }
          if (!cn.thermal_second.empty()) {
            dm.apply_thermal1(b, cn.thermal_second.gamma,
                              cn.thermal_second.lambda);
          }
        }
        break;
      }
    }
  }
  return dm;
}

std::vector<double> run_z_reference(const PhysicalCircuit& circuit,
                                    const NoiseModel& noise,
                                    std::span<const double> x) {
  const std::vector<int>& slots = checked_readout_slots(circuit);
  std::vector<double> probs =
      run_density(circuit, noise, x).diagonal_probabilities();
  if (noise.num_qubits() > 0) {
    // Confusion on the measured qubits only, over the full 2^n vector.
    std::vector<ReadoutError> errors(noise.readout().size());
    for (int pq : slots) {
      errors[static_cast<std::size_t>(pq)] =
          noise.readout()[static_cast<std::size_t>(pq)];
    }
    probs = apply_readout_error(std::move(probs), errors);
  }
  std::vector<double> z(slots.size(), 0.0);
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const std::size_t mq = std::size_t{1} << slots[k];
    for (std::size_t i = 0; i < probs.size(); ++i) {
      z[k] += (i & mq) ? -probs[i] : probs[i];
    }
  }
  return z;
}

StateVector run_physical_pure(const PhysicalCircuit& circuit,
                              std::span<const double> x,
                              std::span<const double> theta) {
  StateVector sv(circuit.num_qubits());
  for (const PhysOp& op : circuit.ops()) {
    switch (op.kind) {
      case PhysOpKind::RZ:
        sv.apply1(op.q0, rz_array(op.resolve_angle(x, theta)));
        break;
      case PhysOpKind::SX:
        sv.apply1(op.q0, sx_as_array2());
        break;
      case PhysOpKind::X:
        sv.apply1(op.q0, x_as_array2());
        break;
      case PhysOpKind::CX:
        sv.apply2(op.q0, op.q1, cx_as_array4());
        break;
    }
  }
  return sv;
}

}  // namespace qucad
