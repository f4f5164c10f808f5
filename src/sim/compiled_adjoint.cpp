#include "sim/compiled_adjoint.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/require.hpp"
#include "sim/isa_clones.hpp"

namespace qucad {

namespace {

std::array<cplx, 4> dagger2(const std::array<cplx, 4>& m) {
  return {std::conj(m[0]), std::conj(m[2]), std::conj(m[1]), std::conj(m[3])};
}

/// A = u2 Z u2^dagger: the Z generator of the interior RZ conjugated through
/// the CRot2 post-rotation factor. Hermitian with A10 = conj(A01).
std::array<cplx, 4> conjugated_z_generator(const std::array<cplx, 4>& p) {
  const cplx a00 = p[0] * std::conj(p[0]) - p[1] * std::conj(p[1]);
  const cplx a01 = p[0] * std::conj(p[2]) - p[1] * std::conj(p[3]);
  const cplx a11 = p[2] * std::conj(p[2]) - p[3] * std::conj(p[3]);
  return {a00, a01, std::conj(a01), a11};
}

// The reverse sweep walks ket and lam in lockstep through the same inverse
// ops, so every kernel below transforms BOTH states in a single loop — one
// pass of loop/index overhead instead of two — and folds the per-lane
// gradient overlap into the same pass (it reads the pre-transform values,
// which the loop already has in registers). Per-lane matrices are
// transposed into lane-major rows so the inner loops stay unit-stride; to
// keep each kernel a single loop, callers without an overlap pass a scratch
// accumulator whose contents are discarded.

template <std::size_t L>
struct LaneMats {
  double r[4][L];
  double i[4][L];
};

template <std::size_t L>
LaneMats<L> transpose_mats(const std::array<cplx, 4>* ms) {
  LaneMats<L> t;
  for (std::size_t l = 0; l < L; ++l) {
    for (std::size_t e = 0; e < 4; ++e) {
      t.r[e][l] = ms[l][e].real();
      t.i[e][l] = ms[l][e].imag();
    }
  }
  return t;
}

template <std::size_t L>
void lanes_unapply2_both(BatchedStateVector<L>& ket, BatchedStateVector<L>& lam,
                         int q, const LaneMats<L>& m, double* acc) {
  const std::size_t stride = std::size_t{1} << q;
  const std::size_t dim = ket.dim();
  double* kr = ket.re();
  double* ki = ket.im();
  double* lr = lam.re();
  double* li = lam.im();
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      const std::size_t i0 = (base + off) * L;
      const std::size_t i1 = i0 + stride * L;
#pragma omp simd
      for (std::size_t l = 0; l < L; ++l) {
        const double k0r = kr[i0 + l], k0i = ki[i0 + l];
        const double k1r = kr[i1 + l], k1i = ki[i1 + l];
        const double l0r = lr[i0 + l], l0i = li[i0 + l];
        const double l1r = lr[i1 + l], l1i = li[i1 + l];
        // Im(conj(l) * k), Z sign flip on the bit-1 half.
        acc[l] += (l0r * k0i - l0i * k0r) - (l1r * k1i - l1i * k1r);
        kr[i0 + l] = (m.r[0][l] * k0r - m.i[0][l] * k0i) +
                     (m.r[1][l] * k1r - m.i[1][l] * k1i);
        ki[i0 + l] = (m.r[0][l] * k0i + m.i[0][l] * k0r) +
                     (m.r[1][l] * k1i + m.i[1][l] * k1r);
        kr[i1 + l] = (m.r[2][l] * k0r - m.i[2][l] * k0i) +
                     (m.r[3][l] * k1r - m.i[3][l] * k1i);
        ki[i1 + l] = (m.r[2][l] * k0i + m.i[2][l] * k0r) +
                     (m.r[3][l] * k1i + m.i[3][l] * k1r);
        lr[i0 + l] = (m.r[0][l] * l0r - m.i[0][l] * l0i) +
                     (m.r[1][l] * l1r - m.i[1][l] * l1i);
        li[i0 + l] = (m.r[0][l] * l0i + m.i[0][l] * l0r) +
                     (m.r[1][l] * l1i + m.i[1][l] * l1r);
        lr[i1 + l] = (m.r[2][l] * l0r - m.i[2][l] * l0i) +
                     (m.r[3][l] * l1r - m.i[3][l] * l1i);
        li[i1 + l] = (m.r[2][l] * l0i + m.i[2][l] * l0r) +
                     (m.r[3][l] * l1i + m.i[3][l] * l1r);
      }
    }
  }
}

template <std::size_t L>
void lanes_undiag_both(BatchedStateVector<L>& ket, BatchedStateVector<L>& lam,
                       int q, const double (&d0r)[L], const double (&d0i)[L],
                       const double (&d1r)[L], const double (&d1i)[L],
                       double* acc) {
  const std::size_t mq = std::size_t{1} << q;
  const std::size_t dim = ket.dim();
  double* kr = ket.re();
  double* ki = ket.im();
  double* lr = lam.re();
  double* li = lam.im();
  for (std::size_t i = 0; i < dim; ++i) {
    const bool hi = (i & mq) != 0;
    const double* dr = hi ? d1r : d0r;
    const double* di = hi ? d1i : d0i;
    const double sign = hi ? -1.0 : 1.0;
    const std::size_t row = i * L;
#pragma omp simd
    for (std::size_t l = 0; l < L; ++l) {
      const double akr = kr[row + l], aki = ki[row + l];
      const double alr = lr[row + l], ali = li[row + l];
      acc[l] += sign * (alr * aki - ali * akr);
      kr[row + l] = akr * dr[l] - aki * di[l];
      ki[row + l] = akr * di[l] + aki * dr[l];
      lr[row + l] = alr * dr[l] - ali * di[l];
      li[row + l] = alr * di[l] + ali * dr[l];
    }
  }
}

/// Lane uncrot; when `a_mat` is non-null also accumulates the per-lane
/// generator overlap Im(<lam| CX (I (x) A) CX |ket>) into acc.
template <std::size_t L>
void lanes_uncrot_both(BatchedStateVector<L>& ket, BatchedStateVector<L>& lam,
                       int control, int target, const LaneMats<L>& m,
                       const std::array<cplx, 4>* a_mat, double* acc) {
  const std::size_t mc = std::size_t{1} << control;
  const std::size_t mt = std::size_t{1} << target;
  const std::size_t dim = ket.dim();
  double* kr = ket.re();
  double* ki = ket.im();
  double* lr = lam.re();
  double* li = lam.im();
  for (std::size_t i = 0; i < dim; ++i) {
    if ((i & mc) || (i & mt)) continue;
    const std::size_t i00 = i * L;
    const std::size_t i01 = (i | mt) * L;
    const std::size_t i10 = (i | mc) * L;
    const std::size_t i11 = (i | mc | mt) * L;
    for (std::size_t l = 0; l < L; ++l) {
      const cplx k00{kr[i00 + l], ki[i00 + l]};
      const cplx k01{kr[i01 + l], ki[i01 + l]};
      const cplx k10{kr[i10 + l], ki[i10 + l]};
      const cplx k11{kr[i11 + l], ki[i11 + l]};
      const cplx l00{lr[i00 + l], li[i00 + l]};
      const cplx l01{lr[i01 + l], li[i01 + l]};
      const cplx l10{lr[i10 + l], li[i10 + l]};
      const cplx l11{lr[i11 + l], li[i11 + l]};
      if (a_mat != nullptr) {
        const std::array<cplx, 4>& a = *a_mat;
        // Control-0 pair sees A; control-1 pair sees X A X.
        const cplx g0 = std::conj(l00) * (a[0] * k00 + a[1] * k01) +
                        std::conj(l01) * (a[2] * k00 + a[3] * k01);
        const cplx g1 = std::conj(l10) * (a[3] * k10 + a[2] * k11) +
                        std::conj(l11) * (a[1] * k10 + a[0] * k11);
        acc[l] += g0.imag() + g1.imag();
      }
      const cplx m0{m.r[0][l], m.i[0][l]};
      const cplx m1{m.r[1][l], m.i[1][l]};
      const cplx m2{m.r[2][l], m.i[2][l]};
      const cplx m3{m.r[3][l], m.i[3][l]};
      auto store = [&](std::size_t at, cplx v) {
        kr[at + l] = v.real();
        ki[at + l] = v.imag();
      };
      store(i00, m0 * k00 + m1 * k01);
      store(i01, m2 * k00 + m3 * k01);
      store(i10, m3 * k10 + m2 * k11);
      store(i11, m1 * k10 + m0 * k11);
      auto store_l = [&](std::size_t at, cplx v) {
        lr[at + l] = v.real();
        li[at + l] = v.imag();
      };
      store_l(i00, m0 * l00 + m1 * l01);
      store_l(i01, m2 * l00 + m3 * l01);
      store_l(i10, m3 * l10 + m2 * l11);
      store_l(i11, m1 * l10 + m0 * l11);
    }
  }
}

template <std::size_t L>
void lanes_uncx_both(BatchedStateVector<L>& ket, BatchedStateVector<L>& lam,
                     int control, int target) {
  ket.apply_cx(control, target);
  lam.apply_cx(control, target);
}

/// Reverse sweep: maintains ket = |psi_k>, lam = U_{k+1}^dag..U_N^dag O|psi>
/// per lane, adding each trainable op's contribution to gradients[lane]. For
/// a symbolic op with a trainable slot, dU/dtheta = theta_scale * (-i Z/2) U
/// (the RZ generator sits at the top of the op even for SymUni1, whose
/// absorbed prefix precedes the RZ), so the contribution is
/// theta_scale * Im(<lam| Z |psi_after>) — computed inside the same loop
/// that un-applies the op from both states.
template <std::size_t L>
void reverse_sweep_lanes(const CompiledProgram& program,
                         const std::vector<std::array<cplx, 4>>& resolved,
                         BatchedStateVector<L>& ket, BatchedStateVector<L>& lam,
                         std::vector<std::vector<double>>& gradients) {
  const std::vector<CompiledOp>& ops = program.ops();
  std::array<std::array<cplx, 4>, L> mds;
  double acc[L];
  double scratch[L] = {};  // discarded overlap for non-trainable ops
  auto add_grads = [&](const SymSlot& slot) {
    auto t = static_cast<std::size_t>(slot.theta_index);
    for (std::size_t l = 0; l < L; ++l) {
      gradients[l][t] += slot.scale * acc[l];
    }
  };
  for (std::size_t idx = ops.size(); idx-- > 0;) {
    const CompiledOp& op = ops[idx];
    const std::array<cplx, 4>* res = resolved.data() + idx * L;
    switch (op.kind) {
      case COpKind::Unitary1: {
        mds.fill(dagger2(program.unitary(op)));
        lanes_unapply2_both(ket, lam, op.q0,
                            transpose_mats<L>(mds.data()), scratch);
        break;
      }
      case COpKind::Diag1:
      case COpKind::SymDiag1: {
        double d0r[L], d0i[L], d1r[L], d1i[L];
        for (std::size_t l = 0; l < L; ++l) {
          const cplx d0 = op.kind == COpKind::Diag1
                              ? std::conj(program.diagonal(op)[0])
                              : std::conj(res[l][0]);
          const cplx d1 = op.kind == COpKind::Diag1
                              ? std::conj(program.diagonal(op)[1])
                              : std::conj(res[l][3]);
          d0r[l] = d0.real();
          d0i[l] = d0.imag();
          d1r[l] = d1.real();
          d1i[l] = d1.imag();
        }
        if (op.kind == COpKind::SymDiag1 && program.slot(op).theta_index >= 0) {
          std::fill(acc, acc + L, 0.0);
          lanes_undiag_both(ket, lam, op.q0, d0r, d0i, d1r, d1i, acc);
          add_grads(program.slot(op));
        } else {
          lanes_undiag_both(ket, lam, op.q0, d0r, d0i, d1r, d1i, scratch);
        }
        break;
      }
      case COpKind::SymUni1: {
        for (std::size_t l = 0; l < L; ++l) mds[l] = dagger2(res[l]);
        if (program.slot(op).theta_index >= 0) {
          std::fill(acc, acc + L, 0.0);
          lanes_unapply2_both(ket, lam, op.q0,
                              transpose_mats<L>(mds.data()), acc);
          add_grads(program.slot(op));
        } else {
          lanes_unapply2_both(ket, lam, op.q0,
                              transpose_mats<L>(mds.data()), scratch);
        }
        break;
      }
      case COpKind::CRot2: {
        for (std::size_t l = 0; l < L; ++l) mds[l] = dagger2(res[l]);
        if (program.slot(op).theta_index >= 0) {
          const std::array<cplx, 4> a_mat =
              conjugated_z_generator(program.crot(op).u2);
          std::fill(acc, acc + L, 0.0);
          lanes_uncrot_both(ket, lam, op.q0, op.q1,
                            transpose_mats<L>(mds.data()), &a_mat, acc);
          add_grads(program.slot(op));
        } else {
          lanes_uncrot_both(ket, lam, op.q0, op.q1,
                            transpose_mats<L>(mds.data()), nullptr, scratch);
        }
        break;
      }
      case COpKind::Cx:
        lanes_uncx_both(ket, lam, op.q0, op.q1);
        break;
      case COpKind::Channel1:
      case COpKind::Channel2:
        require(false, "cannot un-apply a channel op");
        break;
    }
  }
}

// The reverse sweep's entry points: one non-template function per lane
// width, cloned per ISA level with the kernels above flattened in (see
// sim/isa_clones.hpp), like the forward replay's.

QUCAD_ISA_CLONES void reverse_sweep(
    const CompiledProgram& program,
    const std::vector<std::array<cplx, 4>>& resolved,
    BatchedStateVector<1>& ket, BatchedStateVector<1>& lam,
    std::vector<std::vector<double>>& gradients) {
  reverse_sweep_lanes(program, resolved, ket, lam, gradients);
}

QUCAD_ISA_CLONES void reverse_sweep(
    const CompiledProgram& program,
    const std::vector<std::array<cplx, 4>>& resolved,
    BatchedStateVector<kBlockLanes>& ket, BatchedStateVector<kBlockLanes>& lam,
    std::vector<std::vector<double>>& gradients) {
  reverse_sweep_lanes(program, resolved, ket, lam, gradients);
}

}  // namespace

template <std::size_t L>
LaneAdjointResult compiled_adjoint_gradient_lanes(
    const CompiledProgram& program, std::span<const double> theta,
    const LaneInputs<L>& xs, const LaneObservableWeightFn& weight_fn) {
  require(!program.has_channels(),
          "compiled adjoint requires a noiseless program");
  const int n = program.num_qubits();

  // Per-thread scratch, recycled across calls: the forward lanes |psi>, the
  // adjoint lanes, and the angle-resolved symbolic matrices recorded by the
  // forward replay and daggered by the reverse sweep.
  struct Workspace {
    std::unique_ptr<BatchedStateVector<L>> ket, lam;
    std::vector<std::array<cplx, 4>> resolved;
  };
  thread_local Workspace ws;
  if (!ws.ket || ws.ket->num_qubits() != n) {
    ws.ket = std::make_unique<BatchedStateVector<L>>(n);
    ws.lam = std::make_unique<BatchedStateVector<L>>(n);
  }

  program.run_pure_lanes(*ws.ket, xs, theta, &ws.resolved);

  LaneAdjointResult result;
  result.z_expectations.resize(L);
  std::vector<double> z_all(static_cast<std::size_t>(n) * L);
  ws.ket->all_z(z_all.data());
  for (std::size_t l = 0; l < L; ++l) {
    result.z_expectations[l].resize(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q) {
      result.z_expectations[l][static_cast<std::size_t>(q)] =
          z_all[static_cast<std::size_t>(q) * L + l];
    }
  }

  // Per-lane weights, transposed to wq[q * L + lane] for the lam init.
  std::vector<double> wq(static_cast<std::size_t>(n) * L);
  for (std::size_t l = 0; l < L; ++l) {
    const std::vector<double> w = weight_fn(l, result.z_expectations[l]);
    require(w.size() == static_cast<std::size_t>(n),
            "observable weight vector must have one entry per qubit");
    for (int q = 0; q < n; ++q) {
      wq[static_cast<std::size_t>(q) * L + l] =
          w[static_cast<std::size_t>(q)];
    }
  }

  const std::size_t num_params = std::max(
      static_cast<std::size_t>(program.num_trainable()), theta.size());
  result.gradients.assign(L, std::vector<double>(num_params, 0.0));
  if (program.num_trainable() == 0) return result;

  // lam = O_eff |psi> per lane, O_eff = sum_q w_q Z_q (diagonal).
  {
    double* kr = ws.ket->re();
    double* ki = ws.ket->im();
    double* lr = ws.lam->re();
    double* li = ws.lam->im();
    for (std::size_t i = 0; i < ws.ket->dim(); ++i) {
      double wsum[L] = {};
      for (int q = 0; q < n; ++q) {
        const double z = (i >> q) & 1 ? -1.0 : 1.0;
        const double* wrow = wq.data() + static_cast<std::size_t>(q) * L;
#pragma omp simd
        for (std::size_t l = 0; l < L; ++l) wsum[l] += z * wrow[l];
      }
      const std::size_t row = i * L;
#pragma omp simd
      for (std::size_t l = 0; l < L; ++l) {
        lr[row + l] = wsum[l] * kr[row + l];
        li[row + l] = wsum[l] * ki[row + l];
      }
    }
  }

  reverse_sweep(program, ws.resolved, *ws.ket, *ws.lam,
                result.gradients);
  return result;
}

template LaneAdjointResult compiled_adjoint_gradient_lanes(
    const CompiledProgram&, std::span<const double>, const LaneInputs<1>&,
    const LaneObservableWeightFn&);
template LaneAdjointResult compiled_adjoint_gradient_lanes(
    const CompiledProgram&, std::span<const double>,
    const LaneInputs<kBlockLanes>&, const LaneObservableWeightFn&);

}  // namespace qucad
