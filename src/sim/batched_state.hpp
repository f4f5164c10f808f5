#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hpp"
#include "linalg/matrix.hpp"

namespace qucad {

/// \file
/// SoA lane states: the one state representation the compiled engines
/// replay on. `BatchedStateVector<L>` and `BatchedDensityMatrix<L>` hold L
/// samples in structure-of-arrays layout — separate real and imaginary
/// planes indexed `[entry][sample_lane]` — so every compiled op applies
/// across all lanes with unit-stride inner loops that the compiler
/// vectorizes (`#pragma omp simd`; build with -fopenmp-simd, no OpenMP
/// runtime needed).
///
/// Two widths are instantiated from the same kernels: L = kBlockLanes for
/// full batch blocks, and L = 1 for everything else — the ragged tail of a
/// batch, single-sample calls, and density circuits wider than
/// `BatchedDensityMatrix<kBlockLanes>::kMaxQubits`. Batch entry points pick
/// the width from the batch size and qubit count (parallel_for_lanes).
///
/// Lane-uniform vs lane-divergent ops: within one replayed block, theta is
/// shared by every lane, so literal unitaries/diagonals, CX permutations,
/// error channels and theta-symbolic RZ angles resolve to ONE matrix
/// broadcast across lanes. Only input-symbolic RZ angles (the data
/// encoders) diverge per lane, which is why the kernels take per-lane
/// matrices (`_lanes`) and the uniform entry points broadcast.
///
/// Arithmetic contract: each lane evolves through plain mul/add complex
/// arithmetic in the expression order of the matching std::complex code,
/// with no reassociation or FMA contraction, and no lane reads another. A
/// sample's result is therefore bitwise the same at either width, in any
/// lane position and on any ISA clone of the replay (sim/isa_clones.hpp) —
/// which the sampled backend's per-sample shot streams rely on.

/// Lanes of a full batch block: 8 doubles = one cache line per plane row,
/// wide enough for AVX2 (4 doubles) and AVX-512 (8) vectors.
inline constexpr std::size_t kBlockLanes = 8;

/// Feature rows of the L samples of one block: `xs[lane]` points at that
/// lane's features.
template <std::size_t L>
using LaneInputs = std::array<const double*, L>;

/// The lane inputs of rows [first, first + L).
template <std::size_t L>
LaneInputs<L> lane_rows(std::span<const std::vector<double>> rows,
                        std::size_t first) {
  LaneInputs<L> xs;
  for (std::size_t l = 0; l < L; ++l) xs[l] = rows[first + l].data();
  return xs;
}

/// Precomputed single-qubit error site: a depolarizing channel followed by
/// thermal relaxation, folded into one linear map per 2x2 block of the
/// target-qubit subspace. The populations mix through a real 2x2 matrix and
/// the coherences scale by a single real factor, so the whole composite
/// applies in one pass over rho (see BatchedDensityMatrix::apply_channel1).
struct FusedChannel1 {
  double d00_00 = 1.0;  // rho00 <- d00_00*rho00 + d00_11*rho11
  double d00_11 = 0.0;
  double d11_00 = 0.0;  // rho11 <- d11_00*rho00 + d11_11*rho11
  double d11_11 = 1.0;
  double off = 1.0;     // rho01, rho10 scale

  bool is_identity() const {
    return d00_00 == 1.0 && d00_11 == 0.0 && d11_00 == 0.0 && d11_11 == 1.0 &&
           off == 1.0;
  }
};

/// Precomputed CX error site: two-qubit depolarizing plus per-qubit thermal
/// relaxation on both operands, applied in one gathered pass per 4x4 block
/// (see BatchedDensityMatrix::apply_channel2). `a` refers to the lower
/// qubit index of the pair, `b` to the higher, matching NoiseModel::cx_noise
/// storage.
struct FusedChannel2 {
  double keep = 1.0;       // 1 - p of the two-qubit depolarizing term
  double quarter_p = 0.0;  // p / 4 redistribution weight
  double gamma_a = 0.0, keep_a = 1.0, s_a = 1.0;  // thermal on min(q)
  double gamma_b = 0.0, keep_b = 1.0, s_b = 1.0;  // thermal on max(q)

  bool is_identity() const {
    return keep == 1.0 && quarter_p == 0.0 && gamma_a == 0.0 && s_a == 1.0 &&
           gamma_b == 0.0 && s_b == 1.0;
  }
};

/// L statevectors evolved in lockstep. Same qubit/index conventions as
/// StateVector (qubit 0 = least significant bit of the amplitude index);
/// storage is `re[amp * L + lane]` plus the matching `im` plane.
template <std::size_t L>
class BatchedStateVector {
 public:
  static constexpr std::size_t kLanes = L;

  explicit BatchedStateVector(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  /// Amplitudes per lane (2^num_qubits).
  std::size_t dim() const { return dim_; }

  /// Raw SoA planes, `[amp * L + lane]` — for the adjoint's fused ket/lam
  /// kernels.
  double* re() { return re_.data(); }
  double* im() { return im_.data(); }
  const double* re() const { return re_.data(); }
  const double* im() const { return im_.data(); }

  /// Resets every lane to |0...0>.
  void reset();

  /// Applies one 2x2 matrix (row-major) to qubit q of every lane.
  void apply1(int q, const std::array<cplx, 4>& m);

  /// Per-lane 2x2 matrices: ms[lane] applies to that lane only.
  void apply1_lanes(int q, const std::array<cplx, 4>* ms);

  /// Applies diag(d0, d1) to qubit q of every lane.
  void apply_diag1(int q, cplx d0, cplx d1);

  /// Per-lane diagonals diag(ms[lane][0], ms[lane][3]).
  void apply_diag1_lanes(int q, const std::array<cplx, 4>* ms);

  /// Per-lane CRot2 block pass: ms[lane] on the control-0 target pair,
  /// X ms[lane] X on the control-1 pair.
  void apply_crot_lanes(int control, int target, const std::array<cplx, 4>* ms);

  /// CX as an amplitude-row swap, every lane.
  void apply_cx(int control, int target);

  /// `<Z_q>` for every qubit per lane, written to `out[q * L + lane]` (the
  /// adjoint weight-hook layout).
  void all_z(double* out) const;

  /// One lane's computational-basis probabilities |amplitude|^2, resized
  /// and written to `probs` (the readout kernel's input).
  void lane_probabilities(std::size_t lane, std::vector<double>& probs) const;

 private:
  int num_qubits_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> re_;
  std::vector<double> im_;
};

/// L density matrices evolved in lockstep — the noisy engine's counterpart
/// of BatchedStateVector. Storage is SoA over the row-major entries:
/// `re[(r * dim + c) * L + lane]` plus the matching `im` plane. The kernels
/// follow DensityMatrix's pass structure (left multiply then right multiply
/// for unitaries), so the gate-by-gate oracle agrees at 1e-10. Error
/// channels and theta-symbolic angles are lane-uniform by construction
/// (noise does not depend on the input row).
template <std::size_t L>
class BatchedDensityMatrix {
 public:
  static constexpr std::size_t kLanes = L;
  /// Scratch is dim^2 * L complex entries: 8 MiB at 8 qubits for a full
  /// block; width 1 reaches DensityMatrix's 10-qubit cap (16 MiB).
  static constexpr int kMaxQubits = L == 1 ? 10 : 8;

  explicit BatchedDensityMatrix(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  /// Rows (= columns) per lane: 2^num_qubits.
  std::size_t dim() const { return dim_; }

  /// Raw SoA planes, `[(r * dim + c) * L + lane]`.
  const double* re() const { return re_.data(); }
  const double* im() const { return im_.data(); }

  /// Resets every lane to |0...0><0...0|.
  void reset();

  /// rho -> U rho U^dag on qubit q, one 2x2 for every lane.
  void apply1(int q, const std::array<cplx, 4>& u);

  /// Per-lane 2x2 matrices.
  void apply1_lanes(int q, const std::array<cplx, 4>* us);

  /// rho -> U rho U^dag for diagonal U = diag(d0, d1), every lane.
  void apply_diag1(int q, cplx d0, cplx d1);

  /// Per-lane diagonals diag(ms[lane][0], ms[lane][3]).
  void apply_diag1_lanes(int q, const std::array<cplx, 4>* ms);

  /// rho -> U rho U^dag for per-lane two-qubit Us (row-major 4x4, local
  /// index 2*bit(q0) + bit(q1)).
  void apply2_lanes(int q0, int q1, const std::array<cplx, 16>* us);

  /// Per-lane CRot2 block pass (see BatchedStateVector::apply_crot_lanes),
  /// as the block-diagonal 4x4 conjugation.
  void apply_crot_lanes(int control, int target, const std::array<cplx, 4>* ms);

  /// rho -> CX rho CX^dag as the index-pair relabeling, every lane.
  void apply_cx(int control, int target);

  /// Fused single-qubit error site, every lane.
  void apply_channel1(int q, const FusedChannel1& ch);

  /// Fused CX error site, every lane.
  void apply_channel2(int qa, int qb, const FusedChannel2& ch);

  /// One lane's computational-basis probabilities (the diagonal of its rho),
  /// resized and written to `probs`.
  void lane_probabilities(std::size_t lane, std::vector<double>& probs) const;

 private:
  int num_qubits_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> re_;
  std::vector<double> im_;
};

extern template class BatchedStateVector<1>;
extern template class BatchedStateVector<kBlockLanes>;
extern template class BatchedDensityMatrix<1>;
extern template class BatchedDensityMatrix<kBlockLanes>;

/// This thread's scratch `State` for `num_qubits` qubits, rebuilt only when
/// the width changes — replays stay allocation-free across samples and
/// batches. The reference is valid until this thread next asks for the
/// same State type.
template <typename State>
State& lane_scratch(int num_qubits) {
  thread_local std::unique_ptr<State> scratch;
  if (!scratch || scratch->num_qubits() != num_qubits) {
    scratch = std::make_unique<State>(num_qubits);
  }
  return *scratch;
}

/// Runs `replay(width, first)` over `n` samples, spread over `pool`: each
/// full block of kBlockLanes samples at width kBlockLanes (when
/// `full_blocks` is set), every other sample alone at width 1. `width` is a
/// `std::integral_constant<std::size_t, L>`; `first` is the block's first
/// sample index.
template <typename Replay>
void parallel_for_lanes(ThreadPool& pool, std::size_t n, bool full_blocks,
                        Replay&& replay) {
  const std::size_t blocks = full_blocks ? n / kBlockLanes : 0;
  const std::size_t tail_start = blocks * kBlockLanes;
  pool.parallel_for(blocks + (n - tail_start), [&](std::size_t t) {
    if (t < blocks) {
      replay(std::integral_constant<std::size_t, kBlockLanes>{},
             t * kBlockLanes);
    } else {
      replay(std::integral_constant<std::size_t, 1>{}, tail_start + t - blocks);
    }
  });
}

}  // namespace qucad
