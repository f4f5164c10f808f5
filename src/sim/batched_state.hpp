#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/require.hpp"
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
/// There is one set of unitary kernels, BatchedStateVector's: a
/// BatchedDensityMatrix on n qubits IS a BatchedStateVector on 2n (rows on
/// the upper n register qubits, columns on the lower n), and applies a
/// unitary as one statevector pass on its row qubits and one with the
/// conjugate matrix on its column qubits. Only the error sites (each
/// applies its pulse or CX inside its channel pass), the one-pass diagonal
/// and the CX relabel are density kernels. The adjoint's reverse sweep (CompiledProgram::reverse_pure_lanes) un-applies each op
/// from its ket and its lam with the same kernels, fed the daggered
/// matrices.
///
/// Two widths are instantiated from the same kernels: L = kBlockLanes for
/// batch blocks, and L = 1 for everything else — the rows of a ragged tail
/// the pool can run alongside the blocks, single-sample calls, and density
/// circuits wider than `BatchedDensityMatrix<kBlockLanes>::kMaxQubits`. A
/// tail of two or more rows that would queue behind other replays runs as
/// one padded block instead: its padding lanes repeat a live row
/// (lane_row) and nobody reads them back. Batch entry points pick the
/// widths from the batch size, the pool's width and the qubit count
/// (parallel_for_lanes).
///
/// Both planes start on a kPlaneAlign (cache-line) boundary, so each
/// kBlockLanes-wide plane row is exactly one cache line and no vector load
/// or store of a block kernel splits across two lines, whatever address the
/// heap would otherwise have handed out.
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

/// Byte alignment of every SoA plane: one cache line.
inline constexpr std::size_t kPlaneAlign = 64;

/// Allocator that starts every allocation on a kPlaneAlign boundary.
template <typename T>
struct PlaneAllocator {
  using value_type = T;

  PlaneAllocator() = default;
  template <typename U>
  PlaneAllocator(const PlaneAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kPlaneAlign}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kPlaneAlign});
  }

  bool operator==(const PlaneAllocator&) const = default;
};

/// One real or imaginary SoA plane.
using LanePlane = std::vector<double, PlaneAllocator<double>>;

/// Feature rows of the L samples of one block: `xs[lane]` points at that
/// lane's features.
template <std::size_t L>
using LaneInputs = std::array<const double*, L>;

/// The sample that lane `lane` of a block holding the `live` samples
/// [first, first + live) replays: its own, or for a padding lane past
/// `live`, the last live one.
inline std::size_t lane_row(std::size_t first, std::size_t lane,
                            std::size_t live) {
  return first + std::min(lane, live - 1);
}

/// The lane inputs of the `live` rows [first, first + live), padding lanes
/// as lane_row.
template <std::size_t L>
LaneInputs<L> lane_rows(std::span<const std::vector<double>> rows,
                        std::size_t first, std::size_t live) {
  LaneInputs<L> xs;
  for (std::size_t l = 0; l < L; ++l) {
    xs[l] = rows[lane_row(first, l, live)].data();
  }
  return xs;
}

/// Precomputed single-qubit error site: a depolarizing channel followed by
/// thermal relaxation, in Bloch form. On each 2x2 block aI + xX + yY + zZ
/// of the target-qubit subspace it keeps a, scales x and y by `off` and maps
/// z -> c z + t a; BatchedDensityMatrix::apply_channel1 applies it together
/// with the pulse before it in one pass over rho.
struct FusedChannel1 {
  double off = 1.0;  // x, y scale (the coherences)
  double c = 1.0;    // z scale
  double t = 0.0;    // z gains t * a (relaxation towards |0>)

  bool is_identity() const { return off == 1.0 && c == 1.0 && t == 0.0; }
};

/// Precomputed CX error site: two-qubit depolarizing plus per-qubit thermal
/// relaxation on both operands, which BatchedDensityMatrix::apply_channel2
/// applies together with the CX as one closed-form pass per 4x4 block. `a`
/// refers to the lower qubit index of the pair, `b` to the higher, matching
/// NoiseModel::cx_noise storage.
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

  /// Raw SoA planes, `[amp * L + lane]` — for the reverse sweep's gradient
  /// overlaps, the adjoint's lam init and BatchedDensityMatrix's own
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

  /// CX as an amplitude-row swap, every lane. Defined in this header so
  /// that every ISA clone of a replay can inline it (sim/isa_clones.hpp).
  inline void apply_cx(int control, int target);

  /// `<Z_q>` for every qubit per lane, written to `out[q * L + lane]` (the
  /// adjoint weight-hook layout).
  void all_z(double* out) const;

  /// One lane's computational-basis probabilities |amplitude|^2, resized
  /// and written to `probs` (the readout kernel's input).
  void lane_probabilities(std::size_t lane, std::vector<double>& probs) const;

 private:
  int num_qubits_ = 0;
  std::size_t dim_ = 0;
  LanePlane re_;
  LanePlane im_;
};

/// L density matrices evolved in lockstep — the noisy engine's counterpart
/// of BatchedStateVector, stored as one: a row-major rho on n qubits is a
/// BatchedStateVector<L> on 2n qubits whose amplitude `r * dim + c` holds
/// entry (r, c), so the planes read `re[(r * dim + c) * L + lane]`. Row
/// qubit q is register qubit q + n and column qubit q is register qubit q,
/// and rho -> U rho U^dag is the statevector kernel with U on q + n (the
/// oracle's left multiply) followed by the same kernel with conj(U) on q
/// (its right multiply by U^dag): apply1, apply1_lanes, apply_crot_lanes
/// and apply_cx are exactly that, and match the DensityMatrix oracle
/// bitwise. What a statevector cannot express keeps a density kernel of its
/// own: the one-pass diagonal (it scales by |d|^2 and d0 conj(d1) as the
/// oracle does) and the two error sites. The noisy pulse site applies its
/// pulse as a real rotation of each 2x2 block's Pauli vector inside its
/// channel map, one pass where the two unitary passes and a channel pass
/// took three; the noisy CX site reads the CX relabel through the loads of
/// its channel pass. Error sites and
/// theta-symbolic angles are lane-uniform by construction (noise does not
/// depend on the input row).
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
  const double* re() const { return reg_.re(); }
  const double* im() const { return reg_.im(); }

  /// Resets every lane to |0...0><0...0|.
  void reset() { reg_.reset(); }

  /// rho -> U rho U^dag on qubit q, one 2x2 for every lane.
  void apply1(int q, const std::array<cplx, 4>& u);

  /// Per-lane 2x2 matrices.
  void apply1_lanes(int q, const std::array<cplx, 4>* us);

  /// rho -> U rho U^dag for diagonal U = diag(d0, d1), every lane.
  void apply_diag1(int q, cplx d0, cplx d1);

  /// Per-lane diagonals diag(ms[lane][0], ms[lane][3]).
  void apply_diag1_lanes(int q, const std::array<cplx, 4>* ms);

  /// Per-lane CRot2 block pass (see BatchedStateVector::apply_crot_lanes):
  /// rho -> U rho U^dag for the block-diagonal U.
  void apply_crot_lanes(int control, int target, const std::array<cplx, 4>* ms);

  /// rho -> CX rho CX^dag, every lane: the statevector row swap on both
  /// halves of the vectorized register.
  void apply_cx(int control, int target);

  /// A pulse U on qubit q followed by its fused error site, every lane: one
  /// pass that maps each 2x2 block aI + xX + yY + zZ of qubit q through
  /// (x, y, z) -> diag(off, off, c) R(U) (x, y, z) + (0, 0, t a), R(U) the
  /// real rotation U applies to the Pauli vector (the oracle's unitary,
  /// depolarizing and thermal steps to ~1e-16, not bitwise).
  void apply_channel1(int q, const std::array<cplx, 4>& u,
                      const FusedChannel1& ch);

  /// CX followed by its fused error site, every lane: one pass that loads
  /// each 4x4 block over the pair through the CX relabel and writes it back
  /// through the channel's closed-form real map (the oracle's CX,
  /// depolarizing and two thermal steps to ~1e-16, not bitwise).
  void apply_channel2(int control, int target, const FusedChannel2& ch);

  /// One lane's computational-basis probabilities (the diagonal of its rho),
  /// resized and written to `probs`.
  void lane_probabilities(std::size_t lane, std::vector<double>& probs) const;

 private:
  /// rho on 2 * num_qubits_ register qubits, rows above columns.
  BatchedStateVector<L> reg_;
  int num_qubits_ = 0;
  std::size_t dim_ = 0;
};

template <std::size_t L>
inline void BatchedStateVector<L>::apply_cx(int control, int target) {
  require(control >= 0 && control < num_qubits_ && target >= 0 &&
              target < num_qubits_ && control != target,
          "invalid qubit pair");
  const std::size_t mc = std::size_t{1} << control;
  const std::size_t mt = std::size_t{1} << target;
  for (std::size_t i = 0; i < dim_; ++i) {
    if (!(i & mc) || (i & mt)) continue;
    double* ra = re_.data() + i * kLanes;
    double* ia = im_.data() + i * kLanes;
    double* rb = re_.data() + (i | mt) * kLanes;
    double* ib = im_.data() + (i | mt) * kLanes;
#pragma omp simd
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double tr = ra[l], ti = ia[l];
      ra[l] = rb[l];
      ia[l] = ib[l];
      rb[l] = tr;
      ib[l] = ti;
    }
  }
}

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

/// Runs `replay(width, first, live)` over `n` samples, spread over `pool`.
/// With `full_blocks` set, each run of kBlockLanes samples replays as one
/// block at width kBlockLanes; every other sample (each sample when
/// `full_blocks` is unset) replays alone at width 1 — except that a ragged
/// tail of two or more rows replays as one padded block when the replays
/// outnumber the pool's threads. While every replay has a thread the
/// width-1 rows run beside the blocks and add no wall time, where one
/// padded block would take longer than any of them; once they queue, one
/// block replaces two or more width-1 replays and costs less than they do.
/// A lone tail row never pads: its block would replay kBlockLanes lanes to
/// read back one. `width` is a `std::integral_constant<std::size_t, L>`,
/// `first` the block's first sample index and `live` the number of its
/// lanes that carry samples [first, first + live). The lanes past `live`
/// are padding: the replay fills them as lane_row says and must read back
/// only the live lanes.
template <typename Replay>
void parallel_for_lanes(ThreadPool& pool, std::size_t n, bool full_blocks,
                        Replay&& replay) {
  std::size_t blocks = full_blocks ? n / kBlockLanes : 0;
  std::size_t singles = n - blocks * kBlockLanes;
  if (full_blocks && singles > 1 && blocks + singles > pool.size()) {
    ++blocks;
    singles = 0;
  }
  const std::size_t tail_start = n - singles;
  pool.parallel_for(blocks + singles, [&](std::size_t t) {
    if (t < blocks) {
      const std::size_t first = t * kBlockLanes;
      replay(std::integral_constant<std::size_t, kBlockLanes>{}, first,
             std::min(kBlockLanes, n - first));
    } else {
      replay(std::integral_constant<std::size_t, 1>{}, tail_start + t - blocks,
             std::size_t{1});
    }
  });
}

}  // namespace qucad
