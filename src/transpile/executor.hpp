#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "noise/noise_model.hpp"
#include "noise/slot_readout.hpp"
#include "sim/compiled_ops.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "transpile/physical.hpp"

namespace qucad {

class ThreadPool;

/// The one compiled engine. Construction compiles a lowered physical circuit
/// (with the calibrated channels of `noise` folded in, or none for a
/// default NoiseModel) once into a fused op stream (sim/compiled_ops.hpp);
/// every run replays that program L samples at a time on SoA lane states
/// (sim/batched_state.hpp). The lane state follows the program: a program
/// with error channels replays on a BatchedDensityMatrix (exact density-
/// matrix evolution, matching what Qiskit Aer converges to at infinite
/// shots), a channel-free one on a BatchedStateVector. RZ is virtual and
/// noiseless; measurement ends in the SlotReadout kernel
/// (noise/slot_readout.hpp), which applies the slots' calibrated readout
/// confusion and draws finite-shot estimates.
///
/// Both QuCAD regimes run here: every calibration day scores a model on
/// its noisy density program (theta bound at lowering), and training
/// replays one noiseless program with input AND trainable RZ angles kept
/// symbolic (lower_pure_circuit) across every (sample, theta) pair.
///
/// The gate-by-gate walks are kept as the free functions run_density /
/// run_z_reference / run_physical_pure below — the ground truth the
/// compiled path is tested against.
///
/// Consumers select an execution regime through BackendRegistry
/// (backend/registry.hpp), whose one CompiledBackend adapter fronts this
/// engine for every built-in kind; only engine-level code and equivalence
/// tests hold an executor by hand.
///
/// Readout contract: run_z output is ordered by position in
/// readout_slots() — slot k is class k — never indexed by qubit id.
///
/// All run methods are const and safe to call concurrently; each replays
/// into per-thread scratch (lane_scratch).
class CompiledExecutor {
 public:
  /// Compiles `circuit` against `noise` and keeps neither.
  explicit CompiledExecutor(const PhysicalCircuit& circuit,
                            const NoiseModel& noise = NoiseModel());

  /// `<Z>` of each readout slot for one sample: exact for shots <= 0,
  /// otherwise the estimate from `shots` outcomes drawn from Rng(seed).
  /// Bitwise sample 0 of run_z_batch. `theta` binds the trainable slots a
  /// symbolic lowering left (empty when theta was bound before lowering).
  std::vector<double> run_z(std::span<const double> x,
                            std::span<const double> theta = {}, int shots = 0,
                            std::uint64_t seed = 99) const;

  /// run_z over the L samples of `xs` (each checked with
  /// CompiledProgram::require_inputs). The first zs.size() (1..L) lanes
  /// are live: lane l's slot values are written to `zs[l]`. The lanes past
  /// them are padding and are not read out. Read out through `readout`
  /// (nullptr = this executor's slots): exact for shots <= 0, otherwise
  /// lane l draws from Rng(first_seed + l).
  template <std::size_t L>
  void run_z_lanes(const LaneInputs<L>& xs, std::span<const double> theta,
                   std::span<std::vector<double>> zs,
                   const SlotReadout* readout = nullptr, int shots = 0,
                   std::uint64_t first_seed = 0) const;

  /// Batched run_z spread over `pool` (nullptr = the process-global pool).
  /// Every row is validated against the program's input arity up front, on
  /// the calling thread — a ragged batch fails here, not inside a worker.
  /// Sample i draws from Rng(seed + i), i its index in `xs`; `readout` as
  /// in run_z_lanes.
  ///
  /// Samples replay in blocks of kBlockLanes (one walk of the op stream per
  /// block), the ragged tail at width 1 or, when the pool is short of
  /// threads, as one padded block (parallel_for_lanes); a sample's result
  /// does not depend on which. Density programs wider than
  /// `BatchedDensityMatrix<kBlockLanes>::kMaxQubits` replay every sample at
  /// width 1 (block scratch is dim^2 * kBlockLanes entries).
  std::vector<std::vector<double>> run_z_batch(
      std::span<const std::vector<double>> xs,
      std::span<const double> theta = {}, int shots = 0,
      std::uint64_t seed = 99, ThreadPool* pool = nullptr,
      const SlotReadout* readout = nullptr) const;

  int num_trainable() const { return program_.num_trainable(); }
  const CompiledProgram& program() const { return program_; }
  /// Entry k is the physical qubit read as class k.
  const std::vector<int>& readout_slots() const { return slots_; }

  /// Resident bytes of this executor: the object plus everything it holds
  /// on the heap (the compiled program, the readout and the slot list).
  std::size_t footprint_bytes() const;

 private:
  CompiledProgram program_;
  /// The readout slots with their calibrated confusion (none when noiseless).
  SlotReadout readout_;
  std::vector<int> slots_;
};

/// The name the workload benchmark sources (perfbench/) still use; it goes
/// when they are renamed.
using NoisyExecutor = CompiledExecutor;

/// Final density matrix (before readout error) of `circuit` under `noise`
/// via the gate-by-gate walk. Reference path for the compiled engine's
/// equivalence tests.
DensityMatrix run_density(const PhysicalCircuit& circuit,
                          const NoiseModel& noise, std::span<const double> x);

/// Exact CompiledExecutor(circuit, noise).run_z(x) recomputed through
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
