#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "noise/noise_model.hpp"
#include "noise/slot_readout.hpp"
#include "sim/adjoint.hpp"
#include "sim/compiled_ops.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "transpile/physical.hpp"

namespace qucad {

class ThreadPool;

/// Executes a lowered physical circuit. With a noise model attached, every
/// physical pulse is followed by its calibrated channel (exact density-
/// matrix evolution, matching what Qiskit Aer converges to at infinite
/// shots); RZ is virtual and noiseless; measurement applies the classical
/// readout confusion through the SlotReadout kernel (noise/slot_readout.hpp),
/// which also draws finite-shot estimates.
///
/// Construction compiles the circuit + noise model once into a fused op
/// stream (sim/compiled_ops.hpp); run_z / run_z_batch replay that program
/// on SoA lane states (sim/batched_state.hpp) — width 1 for a single
/// sample. The gate-by-gate walk is kept as the free functions
/// run_density / run_z_reference below — the ground truth the compiled path
/// is tested against.
///
/// This is the concrete engine behind the kDensityNoisy ExecutionBackend
/// (backend/backend.hpp) — consumers select it (or any other regime)
/// through BackendRegistry rather than constructing executors directly;
/// only engine-level code and equivalence tests hold a NoisyExecutor by
/// hand.
///
/// All run methods are const and safe to call concurrently.
class NoisyExecutor {
 public:
  /// Compiles `circuit` against `noise` and keeps neither.
  NoisyExecutor(const PhysicalCircuit& circuit, const NoiseModel& noise);

  /// `<Z>` of each readout slot, ordered by position in readout_slots() —
  /// NOT indexed by qubit id. Exact for shots <= 0; otherwise the estimate
  /// from `shots` outcomes drawn from Rng(seed): run_z_batch on the one
  /// sample, so bitwise its sample 0.
  std::vector<double> run_z(std::span<const double> x, int shots = 0,
                            std::uint64_t seed = 99) const;

  /// Batched run_z over many samples, spread over `pool` (nullptr = the
  /// process-global pool) with per-thread density-matrix scratch reuse.
  /// shots <= 0 gives exact expectations; otherwise sample i draws `shots`
  /// outcomes from Rng(seed + i), i its index in `xs`.
  /// Every row is validated against the program's input arity up front, on
  /// the calling thread — a ragged batch fails here, not inside a worker.
  ///
  /// Samples replay in blocks of kBlockLanes (one walk of the op stream per
  /// block), the ragged tail at width 1 or, when the pool is short of
  /// threads, as one padded block (parallel_for_lanes); a sample's result
  /// does not depend on which. Circuits wider than
  /// `BatchedDensityMatrix<kBlockLanes>::kMaxQubits` replay every sample at
  /// width 1 (block scratch is dim^2 * kBlockLanes entries).
  std::vector<std::vector<double>> run_z_batch(
      std::span<const std::vector<double>> xs, int shots = 0,
      std::uint64_t seed = 99, ThreadPool* pool = nullptr) const;

  const CompiledProgram& program() const { return program_; }
  /// Entry k is the physical qubit read as class k.
  const std::vector<int>& readout_slots() const { return slots_; }

  /// Resident bytes of this executor: the object plus everything it holds
  /// on the heap (the compiled program, the readout and the slot list).
  std::size_t footprint_bytes() const;

 private:
  CompiledProgram program_;
  /// The readout slots with their calibrated confusion.
  SlotReadout readout_;
  std::vector<int> slots_;
};

/// Noise-free compiled statevector engine: the training-path counterpart of
/// NoisyExecutor. Construction compiles the physical circuit once — with
/// both data-dependent AND trainable RZ angles kept symbolic when the
/// circuit was lowered by lower_model_symbolic — so one compiled program is
/// replayed across every (sample, theta) pair of a training run instead of
/// re-walking the gate list per evaluation.
///
/// One ExecutionBackend fronts this engine for both statevector kinds
/// (backend/statevector_backend.hpp): kPureStatevector exposes its exact
/// expectations, and kSampled replays the same compiled program once per
/// sample and reads the final state out through its own SlotReadout
/// (readout confusion + finite shots).
///
/// Readout contract (same as NoisyExecutor): run_z output is ordered by
/// position in readout_slots() — slot k is class k — never
/// indexed by qubit id. adjoint() follows the sim/adjoint.hpp contract
/// instead: z_expectations has one entry PER QUBIT, because the observable
/// weight hook needs the full vector.
///
/// All run methods are const and safe to call concurrently; each replays
/// into per-thread scratch (lane_scratch).
class PureExecutor {
 public:
  /// Compiles `circuit` and does not keep it.
  explicit PureExecutor(const PhysicalCircuit& circuit);

  /// `<Z>` of each readout slot for one (sample, theta) replay, ordered by
  /// position in readout_slots().
  std::vector<double> run_z(std::span<const double> x,
                            std::span<const double> theta = {}) const;

  /// run_z over the L samples of `xs` (each checked with
  /// CompiledProgram::require_inputs). The first zs.size() (1..L) lanes
  /// are live: lane l's slot values are written to `zs[l]`. The lanes past
  /// them are padding and are not read out. Read out through `readout`
  /// (nullptr = this executor's confusion-free slots): exact for
  /// shots <= 0, otherwise lane l draws from Rng(first_seed + l).
  template <std::size_t L>
  void run_z_lanes(const LaneInputs<L>& xs, std::span<const double> theta,
                   std::span<std::vector<double>> zs,
                   const SlotReadout* readout = nullptr, int shots = 0,
                   std::uint64_t first_seed = 0) const;

  /// Batched run_z spread over `pool` (nullptr = the process-global pool):
  /// blocks of kBlockLanes samples replay at that width, the ragged tail at
  /// width 1 or, when the pool is short of threads, as one padded block
  /// (parallel_for_lanes). Every row is validated against the program's
  /// input arity up front, on the calling thread. `readout` / `shots` / `seed`
  /// as in run_z_lanes, sample i drawing from Rng(seed + i).
  std::vector<std::vector<double>> run_z_batch(
      std::span<const std::vector<double>> xs,
      std::span<const double> theta = {}, ThreadPool* pool = nullptr,
      const SlotReadout* readout = nullptr, int shots = 0,
      std::uint64_t seed = 0) const;

  /// Compiled adjoint pass for one sample — compiled_adjoint_gradient_lanes
  /// at width 1 (see sim/compiled_adjoint.hpp). z_expectations has one
  /// entry per qubit.
  AdjointResult adjoint(std::span<const double> theta,
                        std::span<const double> x,
                        const ObservableWeightFn& weight_fn) const;

  int num_trainable() const { return program_.num_trainable(); }
  const CompiledProgram& program() const { return program_; }
  const std::vector<int>& readout_slots() const { return slots_; }

  /// Resident bytes of this executor, as NoisyExecutor::footprint_bytes.
  std::size_t footprint_bytes() const;

 private:
  CompiledProgram program_;
  SlotReadout readout_;  ///< the readout slots, no confusion
  std::vector<int> slots_;
};

/// Final density matrix (before readout error) of `circuit` under `noise`
/// via the gate-by-gate walk. Reference path for the compiled engine's
/// equivalence tests.
DensityMatrix run_density(const PhysicalCircuit& circuit,
                          const NoiseModel& noise, std::span<const double> x);

/// Exact NoisyExecutor(circuit, noise).run_z(x) recomputed through
/// run_density and the full-vector apply_readout_error — the uncompiled
/// reference.
std::vector<double> run_z_reference(const PhysicalCircuit& circuit,
                                    const NoiseModel& noise,
                                    std::span<const double> x);

/// Noise-free reference: runs the physical circuit gate by gate on a state
/// vector (`theta` binds the trainable angles a symbolic lowering left).
/// Ground truth for the compiled engine's equivalence tests (physical vs
/// logical semantics, compiled vs reference replay).
StateVector run_physical_pure(const PhysicalCircuit& circuit,
                              std::span<const double> x,
                              std::span<const double> theta = {});

}  // namespace qucad
