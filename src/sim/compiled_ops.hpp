#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "noise/noise_model.hpp"
#include "sim/batched_state.hpp"
#include "transpile/physical.hpp"

namespace qucad {

/// \file
/// The shared compiled-program abstraction: a PhysicalCircuit (optionally
/// with a NoiseModel folded in) lowered ONCE into a flat, replayable op
/// stream. One engine replays it L samples at a time (CompiledExecutor,
/// transpile/executor.hpp, on the lane states of sim/batched_state.hpp): on
/// a density matrix when the program has error channels (one replay per
/// evaluation sample), on a statevector otherwise (one replay per
/// (sample, theta) pair during training, where
/// compiled_adjoint_gradient_lanes also sweeps it backward).
/// Symbolic slots are the reason a single program can be shared: RZ angles
/// affine in an input-encoding slot stay symbolic across samples, and RZ
/// angles affine in a trainable slot stay symbolic across optimizer steps.

/// Precomputed single-qubit error site: a depolarizing channel followed by
/// thermal relaxation, in Bloch form. On each 2x2 block aI + xX + yY + zZ
/// of the target-qubit subspace it keeps a, scales x and y by `off` and maps
/// z -> c z + t a. Depolarizing and thermal relaxation scale x and y alike
/// and act on z alone, so the site commutes with every rotation about z;
/// CompiledProgram::compile folds it into its segment's BlochMap.
struct FusedChannel1 {
  double off = 1.0;  // x, y scale (the coherences)
  double c = 1.0;    // z scale
  double t = 0.0;    // z gains t * a (relaxation towards |0>)

  bool is_identity() const { return off == 1.0 && c == 1.0 && t == 0.0; }
};

/// Op vocabulary of a compiled program. The lowering pass turns a
/// PhysicalCircuit + NoiseModel into a flat stream of these so that every
/// replay skips re-lowering, noise-model lookups, and redundant passes over
/// the state.
enum class COpKind : std::uint8_t {
  Unitary1,  ///< fused 2x2 unitary on q0 (a whole RZ/SX/X chain segment)
             ///< that no error site ends: noiseless pulses and programs
  Diag1,     ///< literal diagonal unitary on q0 (pure virtual-Z chain)
  SymDiag1,  ///< symbolic RZ: angle affine in one input or trainable slot
  SymUni1,   ///< symbolic RZ times a fused prefix: diag(angle) * u, one pass
  CRot2,     ///< CX * (I (x) u2 * diag(angle) * u) * CX, one two-qubit pass
  Cx,        ///< noiseless CX on (q0 = control, q1 = target), a relabel
  Channel1,  ///< a noisy single-qubit segment on q0 as one Bloch map
  Channel2,  ///< CX on (q0 = control, q1 = target) + its fused error site
};

/// The header of one compiled operation: its kind, its qubits and `arg`,
/// an index into the program pool its kind reads (CompiledProgram's
/// accessors resolve it):
///   - Unitary1 -> unitary(op), Diag1 -> diagonal(op), Channel1 ->
///     bloch_map(op), interned pools;
///   - SymDiag1 / SymUni1 / CRot2 -> slot(op), plus prefix(op) (SymUni1,
///     from the interned unitary pool) or crot(op) (CRot2), which the
///     slot's `factor` indexes;
///   - Channel2 -> channel2(op), an interned table holding each distinct
///     coefficient set once;
///   - Cx -> nothing (arg is 0).
/// q1 is a qubit for the two-qubit kinds only (Cx, CRot2, Channel2).
struct CompiledOp {
  COpKind kind = COpKind::Diag1;
  std::uint8_t q0 = 0;
  std::uint8_t q1 = 0;
  std::uint32_t arg = 0;
};
static_assert(sizeof(CompiledOp) == 8, "compiled op headers stay 8 bytes");

/// The symbolic angle of a SymDiag1 / SymUni1 / CRot2 op:
///   scale * x[input_index] + angle_offset      (input_index >= 0), or
///   scale * theta[theta_index] + angle_offset  (theta_index >= 0);
/// at most one of input_index / theta_index is >= 0 (the lowering never
/// mixes parameter spaces inside a single RZ). A CRot2 with no symbolic
/// interior has neither and resolves to the literal angle_offset (0 by
/// construction).
///
/// SymUni1 is the symbolic-sandwich fusion: the single-qubit chain pending
/// in front of a symbolic RZ is absorbed as its prefix `u`, and the whole op
/// applies
///   diag(e^{-i a/2}, e^{+i a/2}) * u
/// in ONE pass over the state. Absorption is only ever of PRECEDING ops, so
/// the RZ generator (Z on q0) still sits at the top of the op — the adjoint
/// engine's gradient hook is unchanged.
struct SymSlot {
  double angle_offset = 0.0;
  double scale = 1.0;
  std::int32_t input_index = -1;  ///< symbolic input slot, -1 = none
  std::int32_t theta_index = -1;  ///< symbolic trainable slot, -1 = none
  /// SymUni1: index of the prefix `u` among the 2x2 unitaries; CRot2: index
  /// of its factor pair. Unused by SymDiag1.
  std::uint32_t factor = 0;
};

/// The two factors of a CRot2 op, the controlled-rotation sandwich the basis
/// lowering emits for CRX/CRY/CRZ: CX(q0,q1), a single-qubit chain on the
/// target q1 containing at most one symbolic RZ, CX(q0,q1) — fused into one
/// two-qubit pass
///   CX * (I (x) M(a)) * CX,   M(a) = u2 * diag(e^{-i a/2}, e^{+i a/2}) * u
/// (block-diagonal: M on the control-0 subspace, X M X on control-1). Error
/// channels inside the pattern abort the fusion, so a noisy CX stays its
/// Channel2 site.
struct CRotFactors {
  std::array<cplx, 4> u{};   ///< pre-rotation factor
  std::array<cplx, 4> u2{};  ///< post-rotation factor
};

/// Compilation statistics, mainly for tests and perf records.
struct CompileStats {
  std::size_t source_ops = 0;     ///< PhysOps in the input circuit
  std::size_t compiled_ops = 0;   ///< ops in the emitted stream
  std::size_t fused_unitaries = 0;
  std::size_t fused_cx_sandwiches = 0;  ///< CRot2 ops emitted
  std::size_t channels = 0;
  std::size_t dropped_trailing = 0;
};

/// A PhysicalCircuit + NoiseModel lowered once into a replayable op stream.
///
/// Invariants:
///  - Immutable after compile(); all replay methods are const and safe to
///    call concurrently. Each replay writes only the caller's scratch lane
///    state, so per-thread scratch reuse — the run_z_batch /
///    batch_loss_grad threading pattern — needs no locking.
///  - Symbolic slots survive compilation: input-symbolic RZ angles are
///    resolved against `x` and trainable-symbolic RZ angles against `theta`
///    at replay time, so one program serves every (sample, theta) pair.
///  - num_trainable() / num_inputs() are computed from the SOURCE circuit,
///    not the surviving ops: a trainable RZ elided as a trailing diagonal
///    still counts (its gradient is exactly zero, not absent).
///  - Every program holder (executors, the eval cache, serving epochs) pays
///    for its op storage, so it is compact: 8-byte CompiledOp headers
///    indexing one pool per payload type, each pool holding only what the
///    surviving ops reference, and the unitary, diagonal, Bloch-map and CX
///    channel pools holding each distinct coefficient set once.
class CompiledProgram {
 public:
  CompiledProgram() = default;

  /// Lowers `circuit` with the calibrated channels of `noise` folded in.
  /// Pass a default NoiseModel (num_qubits() == 0) for a noiseless program —
  /// required for the statevector replay paths.
  ///
  /// The lowering fuses adjacent single-qubit ops (between two-qubit ops
  /// and symbolic RZs) into one 2x2 while no noisy pulse is among them, and
  /// otherwise folds the whole segment (its noisy pulses, their error sites
  /// and the literal rotations between and around them) into one BlochMap,
  /// emitted as one Channel1 op when the segment ends: at the qubit's next
  /// two-qubit op, at a symbolic RZ on it, or at the end of the program. It
  /// emits each noisy CX together with its error site as one Channel2 op,
  /// fuses noiseless CX-sandwich controlled rotations into single CRot2 ops,
  /// and drops trailing diagonal ops (virtual Z, literal or symbolic) that
  /// can no longer affect Z-basis measurement. The drop preserves diagonal probabilities, every `<Z>` and
  /// every `d<Z>/dtheta` exactly (a trailing RZ commutes with the
  /// observable, so its gradient is identically zero), but not off-diagonal
  /// entries of a final density matrix or the phases of a final
  /// statevector; a circuit that ends in a non-diagonal pulse on every qubit
  /// keeps its full final state.
  static CompiledProgram compile(const PhysicalCircuit& circuit,
                                 const NoiseModel& noise);

  int num_qubits() const { return num_qubits_; }
  /// 1 + the largest trainable slot referenced by the source circuit.
  int num_trainable() const { return num_trainable_; }
  /// 1 + the largest input-encoding slot referenced by the source circuit.
  int num_inputs() const { return num_inputs_; }
  /// True when the program contains error-channel ops; such a program can
  /// only be replayed on a density matrix.
  bool has_channels() const { return stats_.channels > 0; }
  const std::vector<CompiledOp>& ops() const { return ops_; }
  const CompileStats& stats() const { return stats_; }

  /// The pool entries an op header refers to; see CompiledOp for which
  /// accessor each kind reads.
  const std::array<cplx, 4>& unitary(const CompiledOp& op) const {
    return unitaries_[op.arg];
  }
  const std::array<cplx, 2>& diagonal(const CompiledOp& op) const {
    return diagonals_[op.arg];
  }
  const SymSlot& slot(const CompiledOp& op) const { return slots_[op.arg]; }
  const std::array<cplx, 4>& prefix(const CompiledOp& op) const {
    return unitaries_[slot(op).factor];
  }
  const CRotFactors& crot(const CompiledOp& op) const {
    return crot_factors_[slot(op).factor];
  }
  const BlochMap& bloch_map(const CompiledOp& op) const {
    return bloch_maps_[op.arg];
  }
  const FusedChannel2& channel2(const CompiledOp& op) const {
    return channel2_table_[op.arg];
  }
  /// The interned pools: one entry per distinct coefficient set, however
  /// many sites share it. A circuit's repeated chains share their unitaries,
  /// diagonals and Bloch maps; the CX channel table holds in practice one
  /// entry per coupled edge.
  std::span<const std::array<cplx, 4>> unitary_table() const {
    return unitaries_;
  }
  std::span<const std::array<cplx, 2>> diagonal_table() const {
    return diagonals_;
  }
  std::span<const BlochMap> bloch_map_table() const { return bloch_maps_; }
  std::span<const FusedChannel2> channel2_table() const {
    return channel2_table_;
  }

  /// Heap bytes the op stream holds: the op headers plus every pool.
  std::size_t heap_bytes() const;

  /// Throws PreconditionError unless `x` holds at least num_inputs()
  /// entries — the check every replay entry point runs on each feature row
  /// up front, on the calling thread, before handing raw lane pointers on.
  void require_inputs(std::span<const double> x) const;

  /// Replays the program (channels included) over the L samples of `bdm`.
  /// `xs[lane]` points at that lane's feature vector, which the caller must
  /// have checked with require_inputs(). theta (pass an empty span when the
  /// program has no trainable slots, i.e. theta was bound before lowering)
  /// and every error channel are lane-uniform; only input-symbolic RZ angles
  /// diverge per lane. `bdm` is reset first, so caller-owned scratch can be
  /// reused across samples without reallocation. The replay runs the widest
  /// ISA clone the CPU supports (sim/isa_clones.hpp), with bitwise the same
  /// result on every clone; it is defined in sim/batched_state.cpp, next to
  /// the kernels the clones inline.
  template <std::size_t L>
  void run_lanes(BatchedDensityMatrix<L>& bdm, const LaneInputs<L>& xs,
                 std::span<const double> theta = {}) const;

  /// Replays a noiseless program (has_channels() == false) over the L
  /// samples of `bsv` — the compiled forward pass of the statevector
  /// engines. Same input and reset contract as run_lanes(). The final
  /// state matches the gate-by-gate reference up to a global phase and
  /// elided trailing virtual-Z rotations; probabilities and every `<Z>`
  /// match exactly.
  ///
  /// When `resolved` is non-null it is resized to ops().size() * L and entry
  /// `idx * L + lane` receives lane's angle-resolved 2x2 of symbolic op idx
  /// (SymDiag1 diagonal in [0]/[3], SymUni1 full matrix, CRot2 interior
  /// matrix) — the adjoint's reverse sweep daggers these instead of
  /// re-resolving every op.
  template <std::size_t L>
  void run_pure_lanes(
      BatchedStateVector<L>& bsv, const LaneInputs<L>& xs,
      std::span<const double> theta = {},
      std::vector<std::array<cplx, 4>>* resolved = nullptr) const;

  /// The adjoint's reverse sweep over a noiseless program: walks the ops
  /// backward, un-applying each from both `ket` (left by run_pure_lanes)
  /// and `lam` with the same BatchedStateVector kernels the forward replay
  /// applies it with, the symbolic ones through their daggered `resolved`
  /// matrices (run_pure_lanes' record). Before un-applying an op with a
  /// trainable slot it adds `slot.scale * Im(<lam| G |ket>)` to
  /// `gradients[lane][theta_index]`, G the op's RZ generator (Z on q0,
  /// conjugated through the post-factor for CRot2). `gradients` holds one
  /// vector of at least num_trainable() entries per lane. Cloned per ISA
  /// beside run_pure_lanes, with bitwise the same result on every clone.
  template <std::size_t L>
  void reverse_pure_lanes(BatchedStateVector<L>& ket,
                          BatchedStateVector<L>& lam,
                          const std::vector<std::array<cplx, 4>>& resolved,
                          std::vector<std::vector<double>>& gradients) const;

 private:
  /// The literal 2x2 of a non-symbolic single-qubit op.
  std::array<cplx, 4> literal_matrix(const CompiledOp& op) const;
  /// One CX-sandwich fusion pass; true when something fused.
  bool fuse_cx_sandwiches();
  /// Drops the diagonal ops no later op on their qubit can observe.
  void drop_trailing_diagonals();
  /// Rebuilds the pools with only the entries the surviving ops reference,
  /// in op order and with equal unitaries and diagonals interned, and trims
  /// every vector to its size.
  void repack();

  int num_qubits_ = 0;
  int num_trainable_ = 0;
  int num_inputs_ = 0;
  std::vector<CompiledOp> ops_;
  /// Unitary1, SymUni1 prefixes.
  std::vector<std::array<cplx, 4>> unitaries_;
  std::vector<std::array<cplx, 2>> diagonals_;  ///< Diag1
  std::vector<SymSlot> slots_;  ///< SymDiag1, SymUni1, CRot2
  std::vector<CRotFactors> crot_factors_;
  std::vector<BlochMap> bloch_maps_;  ///< Channel1
  std::vector<FusedChannel2> channel2_table_;
  CompileStats stats_;
};

/// Resolved angle of a symbolic slot against (x, theta).
double resolve_sym_angle(const SymSlot& slot, std::span<const double> x,
                         std::span<const double> theta);

/// RZ(angle) diagonal (e^{-i angle/2}, e^{+i angle/2}) via one sincos —
/// cheaper than two complex exponentials in the replay hot loops.
inline std::array<cplx, 2> rz_diag(double angle) {
  const double c = std::cos(angle / 2.0);
  const double s = std::sin(angle / 2.0);
  return {cplx{c, -s}, cplx{c, s}};
}

/// The full 2x2 of a SymUni1 op at a resolved angle: diag(angle) * prefix.
std::array<cplx, 4> sym_uni_matrix(const std::array<cplx, 4>& prefix,
                                   double angle);

/// The interior 2x2 of a CRot2 op at a resolved angle:
/// M = f.u2 * diag(angle) * f.u (applied on the target between the CXs).
std::array<cplx, 4> crot_inner_matrix(const CRotFactors& f, double angle);

/// Folds one pulse error site (depolarizing then thermal relaxation, the
/// order run_density applies) into its Bloch-form coefficients, which
/// pulse_site_map composes with the pulse.
FusedChannel1 fuse_pulse_channel(const PulseNoise& noise);

/// The Bloch map of pulse `u` followed by its error site `ch`:
/// diag(off, off, c) R(U) with shift (0, 0, t), R(U) the real rotation U
/// applies to the Pauli vector (a global phase of U cancels).
BlochMap pulse_site_map(const std::array<cplx, 4>& u, const FusedChannel1& ch);

/// The coefficients of one CX error site (two-qubit depolarizing, then
/// thermal on min(q), then thermal on max(q)); the Channel2 kernel composes
/// them with the CX in closed form.
FusedChannel2 fuse_cx_channel(const CxNoise& noise);

}  // namespace qucad
