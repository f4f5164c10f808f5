#include "sim/batched_state.hpp"

#include <type_traits>

#include "common/require.hpp"
#include "sim/compiled_ops.hpp"
#include "sim/isa_clones.hpp"

namespace qucad {

// Every kernel below expands the complex arithmetic over the SoA planes in
// the operation order of the matching std::complex expression:
//   (m * a).re = m.re * a.re - m.im * a.im
//   (m * a).im = m.re * a.im + m.im * a.re
// with two-term sums associated exactly as `m0 * a0 + m1 * a1`, and every
// lane loop reads only its own lane. IEEE mul/add are deterministic and the
// build passes -ffp-contract=off and no fast-math, so a lane's result
// depends neither on L nor on the ISA clone that runs it — the bitwise
// contract of sim/batched_state.hpp.

namespace {

/// One matrix copied into every lane, for the uniform entry points that
/// share the per-lane kernel. (The statevector's apply1 / apply_diag1, the
/// pure engine's hottest ops, keep their own register-constant kernels.)
template <std::size_t L>
std::array<std::array<cplx, 4>, L> broadcast(const std::array<cplx, 4>& m) {
  std::array<std::array<cplx, 4>, L> ms;
  ms.fill(m);
  return ms;
}

}  // namespace

template <std::size_t L>
BatchedStateVector<L>::BatchedStateVector(int num_qubits)
    : num_qubits_(num_qubits), dim_(std::size_t{1} << num_qubits) {
  require(num_qubits > 0 && num_qubits <= 20, "qubit count out of range");
  re_.assign(dim_ * kLanes, 0.0);
  im_.assign(dim_ * kLanes, 0.0);
  for (std::size_t l = 0; l < kLanes; ++l) re_[l] = 1.0;
}

template <std::size_t L>
void BatchedStateVector<L>::reset() {
  std::fill(re_.begin(), re_.end(), 0.0);
  std::fill(im_.begin(), im_.end(), 0.0);
  for (std::size_t l = 0; l < kLanes; ++l) re_[l] = 1.0;
}

template <std::size_t L>
void BatchedStateVector<L>::apply1(int q, const std::array<cplx, 4>& m) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  const double m0r = m[0].real(), m0i = m[0].imag();
  const double m1r = m[1].real(), m1i = m[1].imag();
  const double m2r = m[2].real(), m2i = m[2].imag();
  const double m3r = m[3].real(), m3i = m[3].imag();
  const std::size_t stride = std::size_t{1} << q;
  for (std::size_t base = 0; base < dim_; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      double* r0 = re_.data() + (base + off) * kLanes;
      double* i0 = im_.data() + (base + off) * kLanes;
      double* r1 = r0 + stride * kLanes;
      double* i1 = i0 + stride * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double a0r = r0[l], a0i = i0[l];
        const double a1r = r1[l], a1i = i1[l];
        r0[l] = (m0r * a0r - m0i * a0i) + (m1r * a1r - m1i * a1i);
        i0[l] = (m0r * a0i + m0i * a0r) + (m1r * a1i + m1i * a1r);
        r1[l] = (m2r * a0r - m2i * a0i) + (m3r * a1r - m3i * a1i);
        i1[l] = (m2r * a0i + m2i * a0r) + (m3r * a1i + m3i * a1r);
      }
    }
  }
}

template <std::size_t L>
void BatchedStateVector<L>::apply1_lanes(int q,
                                         const std::array<cplx, 4>* ms) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  // Transpose the per-lane matrices into lane-major rows once, so the inner
  // loop stays unit-stride over every operand.
  double mr[4][kLanes];
  double mi[4][kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t e = 0; e < 4; ++e) {
      mr[e][l] = ms[l][e].real();
      mi[e][l] = ms[l][e].imag();
    }
  }
  const std::size_t stride = std::size_t{1} << q;
  for (std::size_t base = 0; base < dim_; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      double* r0 = re_.data() + (base + off) * kLanes;
      double* i0 = im_.data() + (base + off) * kLanes;
      double* r1 = r0 + stride * kLanes;
      double* i1 = i0 + stride * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double a0r = r0[l], a0i = i0[l];
        const double a1r = r1[l], a1i = i1[l];
        r0[l] = (mr[0][l] * a0r - mi[0][l] * a0i) +
                (mr[1][l] * a1r - mi[1][l] * a1i);
        i0[l] = (mr[0][l] * a0i + mi[0][l] * a0r) +
                (mr[1][l] * a1i + mi[1][l] * a1r);
        r1[l] = (mr[2][l] * a0r - mi[2][l] * a0i) +
                (mr[3][l] * a1r - mi[3][l] * a1i);
        i1[l] = (mr[2][l] * a0i + mi[2][l] * a0r) +
                (mr[3][l] * a1i + mi[3][l] * a1r);
      }
    }
  }
}

template <std::size_t L>
void BatchedStateVector<L>::apply_diag1(int q, cplx d0, cplx d1) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  const double d0r = d0.real(), d0i = d0.imag();
  const double d1r = d1.real(), d1i = d1.imag();
  const std::size_t mq = std::size_t{1} << q;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double dr = (i & mq) ? d1r : d0r;
    const double di = (i & mq) ? d1i : d0i;
    double* r = re_.data() + i * kLanes;
    double* m = im_.data() + i * kLanes;
#pragma omp simd
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double ar = r[l], ai = m[l];
      r[l] = ar * dr - ai * di;
      m[l] = ar * di + ai * dr;
    }
  }
}

template <std::size_t L>
void BatchedStateVector<L>::apply_diag1_lanes(int q,
                                              const std::array<cplx, 4>* ms) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  double d0r[kLanes], d0i[kLanes], d1r[kLanes], d1i[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    d0r[l] = ms[l][0].real();
    d0i[l] = ms[l][0].imag();
    d1r[l] = ms[l][3].real();
    d1i[l] = ms[l][3].imag();
  }
  const std::size_t mq = std::size_t{1} << q;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double* dr = (i & mq) ? d1r : d0r;
    const double* di = (i & mq) ? d1i : d0i;
    double* r = re_.data() + i * kLanes;
    double* m = im_.data() + i * kLanes;
#pragma omp simd
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double ar = r[l], ai = m[l];
      r[l] = ar * dr[l] - ai * di[l];
      m[l] = ar * di[l] + ai * dr[l];
    }
  }
}

namespace {

/// The CRot2 block pass over one 4-tuple of SoA rows, lane-major matrix
/// operands: m on the (00, 01) pair, X m X on the (10, 11) pair.
template <std::size_t L>
inline void crot_rows(double* r00, double* i00, double* r01, double* i01,
                      double* r10, double* i10, double* r11, double* i11,
                      const double (&mr)[4][L], const double (&mi)[4][L]) {
#pragma omp simd
  for (std::size_t l = 0; l < L; ++l) {
    const double a0r = r00[l], a0i = i00[l];
    const double a1r = r01[l], a1i = i01[l];
    r00[l] = (mr[0][l] * a0r - mi[0][l] * a0i) +
             (mr[1][l] * a1r - mi[1][l] * a1i);
    i00[l] = (mr[0][l] * a0i + mi[0][l] * a0r) +
             (mr[1][l] * a1i + mi[1][l] * a1r);
    r01[l] = (mr[2][l] * a0r - mi[2][l] * a0i) +
             (mr[3][l] * a1r - mi[3][l] * a1i);
    i01[l] = (mr[2][l] * a0i + mi[2][l] * a0r) +
             (mr[3][l] * a1i + mi[3][l] * a1r);
    const double b0r = r10[l], b0i = i10[l];
    const double b1r = r11[l], b1i = i11[l];
    r10[l] = (mr[3][l] * b0r - mi[3][l] * b0i) +
             (mr[2][l] * b1r - mi[2][l] * b1i);
    i10[l] = (mr[3][l] * b0i + mi[3][l] * b0r) +
             (mr[2][l] * b1i + mi[2][l] * b1r);
    r11[l] = (mr[1][l] * b0r - mi[1][l] * b0i) +
             (mr[0][l] * b1r - mi[0][l] * b1i);
    i11[l] = (mr[1][l] * b0i + mi[1][l] * b0r) +
             (mr[0][l] * b1i + mi[0][l] * b1r);
  }
}

}  // namespace

template <std::size_t L>
void BatchedStateVector<L>::apply_crot_lanes(int control, int target,
                                             const std::array<cplx, 4>* ms) {
  require(control >= 0 && control < num_qubits_ && target >= 0 &&
              target < num_qubits_ && control != target,
          "invalid qubit pair");
  double mr[4][kLanes];
  double mi[4][kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t e = 0; e < 4; ++e) {
      mr[e][l] = ms[l][e].real();
      mi[e][l] = ms[l][e].imag();
    }
  }
  const std::size_t mc = std::size_t{1} << control;
  const std::size_t mt = std::size_t{1} << target;
  for (std::size_t i = 0; i < dim_; ++i) {
    if ((i & mc) || (i & mt)) continue;
    const std::size_t i01 = i | mt;
    const std::size_t i10 = i | mc;
    const std::size_t i11 = i | mc | mt;
    crot_rows(re_.data() + i * kLanes, im_.data() + i * kLanes,
              re_.data() + i01 * kLanes, im_.data() + i01 * kLanes,
              re_.data() + i10 * kLanes, im_.data() + i10 * kLanes,
              re_.data() + i11 * kLanes, im_.data() + i11 * kLanes, mr, mi);
  }
}

template <std::size_t L>
void BatchedStateVector<L>::apply_cx(int control, int target) {
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

template <std::size_t L>
void BatchedStateVector<L>::all_z(double* out) const {
  const std::size_t n = static_cast<std::size_t>(num_qubits_);
  std::fill(out, out + n * kLanes, 0.0);
  for (std::size_t i = 0; i < dim_; ++i) {
    const double* r = re_.data() + i * kLanes;
    const double* m = im_.data() + i * kLanes;
    double p[kLanes];
#pragma omp simd
    for (std::size_t l = 0; l < kLanes; ++l) p[l] = r[l] * r[l] + m[l] * m[l];
    for (std::size_t q = 0; q < n; ++q) {
      const double sign = (i >> q) & 1 ? -1.0 : 1.0;
      double* zq = out + q * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) zq[l] += sign * p[l];
    }
  }
}

template <std::size_t L>
void BatchedStateVector<L>::lane_probabilities(
    std::size_t lane, std::vector<double>& probs) const {
  require(lane < kLanes, "lane index out of range");
  probs.resize(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    const double r = re_[i * kLanes + lane];
    const double m = im_[i * kLanes + lane];
    // Same expression order as std::norm.
    probs[i] = r * r + m * m;
  }
}

// ---------------------------------------------------------------------------
// BatchedDensityMatrix: the noisy engine's lane state. Unitaries mirror the
// DensityMatrix oracle pass for pass (left multiply then right multiply),
// with the complex arithmetic expanded over the SoA planes in std::complex
// expression order — the contract described at the top of the file.
// ---------------------------------------------------------------------------

template <std::size_t L>
BatchedDensityMatrix<L>::BatchedDensityMatrix(int num_qubits)
    : num_qubits_(num_qubits), dim_(std::size_t{1} << num_qubits) {
  require(num_qubits > 0 && num_qubits <= kMaxQubits,
          "batched density matrix qubit count out of range");
  re_.assign(dim_ * dim_ * kLanes, 0.0);
  im_.assign(dim_ * dim_ * kLanes, 0.0);
  for (std::size_t l = 0; l < kLanes; ++l) re_[l] = 1.0;
}

template <std::size_t L>
void BatchedDensityMatrix<L>::reset() {
  std::fill(re_.begin(), re_.end(), 0.0);
  std::fill(im_.begin(), im_.end(), 0.0);
  for (std::size_t l = 0; l < kLanes; ++l) re_[l] = 1.0;
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply1_lanes(int q,
                                           const std::array<cplx, 4>* us) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  // Lane-major operand rows, plus the conjugates the right pass needs
  // (DensityMatrix::right_mul1_dag conjugates once up front).
  double ar[4][kLanes], ai[4][kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t e = 0; e < 4; ++e) {
      ar[e][l] = us[l][e].real();
      ai[e][l] = us[l][e].imag();
    }
  }
  const std::size_t stride = std::size_t{1} << q;
  // Pass 1: rho -> U rho (row pairs), same traversal as left_mul1.
  for (std::size_t r = 0; r < dim_; ++r) {
    if (r & stride) continue;
    const std::size_t r1 = r | stride;
    for (std::size_t c = 0; c < dim_; ++c) {
      double* r0p = re_.data() + (r * dim_ + c) * kLanes;
      double* i0p = im_.data() + (r * dim_ + c) * kLanes;
      double* r1p = re_.data() + (r1 * dim_ + c) * kLanes;
      double* i1p = im_.data() + (r1 * dim_ + c) * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double v0r = r0p[l], v0i = i0p[l];
        const double v1r = r1p[l], v1i = i1p[l];
        // row0 = a0 * v0 + a1 * v1 ; row1 = a2 * v0 + a3 * v1
        r0p[l] = (ar[0][l] * v0r - ai[0][l] * v0i) +
                 (ar[1][l] * v1r - ai[1][l] * v1i);
        i0p[l] = (ar[0][l] * v0i + ai[0][l] * v0r) +
                 (ar[1][l] * v1i + ai[1][l] * v1r);
        r1p[l] = (ar[2][l] * v0r - ai[2][l] * v0i) +
                 (ar[3][l] * v1r - ai[3][l] * v1i);
        i1p[l] = (ar[2][l] * v0i + ai[2][l] * v0r) +
                 (ar[3][l] * v1i + ai[3][l] * v1r);
      }
    }
  }
  // Pass 2: rho -> rho U^dag (column pairs), same traversal as
  // DensityMatrix::right_mul1_dag. conj(a) negates ai, and the oracle
  // multiplies v * conj(a): re = vr*ar + vi*ai, im = -vr*ai + vi*ar after
  // expanding the conjugate — written with the same signs below.
  for (std::size_t r = 0; r < dim_; ++r) {
    const std::size_t row = r * dim_;
    for (std::size_t c = 0; c < dim_; ++c) {
      if (c & stride) continue;
      const std::size_t c1 = c | stride;
      double* r0p = re_.data() + (row + c) * kLanes;
      double* i0p = im_.data() + (row + c) * kLanes;
      double* r1p = re_.data() + (row + c1) * kLanes;
      double* i1p = im_.data() + (row + c1) * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double v0r = r0p[l], v0i = i0p[l];
        const double v1r = r1p[l], v1i = i1p[l];
        // row[c]  = v0 * conj(a0) + v1 * conj(a1)
        // row[c1] = v0 * conj(a2) + v1 * conj(a3)
        r0p[l] = (v0r * ar[0][l] - v0i * -ai[0][l]) +
                 (v1r * ar[1][l] - v1i * -ai[1][l]);
        i0p[l] = (v0r * -ai[0][l] + v0i * ar[0][l]) +
                 (v1r * -ai[1][l] + v1i * ar[1][l]);
        r1p[l] = (v0r * ar[2][l] - v0i * -ai[2][l]) +
                 (v1r * ar[3][l] - v1i * -ai[3][l]);
        i1p[l] = (v0r * -ai[2][l] + v0i * ar[2][l]) +
                 (v1r * -ai[3][l] + v1i * ar[3][l]);
      }
    }
  }
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply1(int q, const std::array<cplx, 4>& u) {
  apply1_lanes(q, broadcast<L>(u).data());
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply_diag1_lanes(
    int q, const std::array<cplx, 4>* ms) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  // Per-lane scale factors, derived with the same host-side std::complex
  // expressions as DensityMatrix::apply_diag1.
  double n0[kLanes], n1[kLanes];
  double f01r[kLanes], f01i[kLanes], f10r[kLanes], f10i[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    const cplx d0 = ms[l][0];
    const cplx d1 = ms[l][3];
    n0[l] = std::norm(d0);
    n1[l] = std::norm(d1);
    const cplx f01 = d0 * std::conj(d1);
    const cplx f10 = d1 * std::conj(d0);
    f01r[l] = f01.real();
    f01i[l] = f01.imag();
    f10r[l] = f10.real();
    f10i[l] = f10.imag();
  }
  const std::size_t mq = std::size_t{1} << q;
  for (std::size_t r = 0; r < dim_; ++r) {
    if (r & mq) continue;
    const std::size_t r1 = r | mq;
    for (std::size_t c = 0; c < dim_; ++c) {
      if (c & mq) continue;
      const std::size_t c1 = c | mq;
      double* p00r = re_.data() + (r * dim_ + c) * kLanes;
      double* p00i = im_.data() + (r * dim_ + c) * kLanes;
      double* p01r = re_.data() + (r * dim_ + c1) * kLanes;
      double* p01i = im_.data() + (r * dim_ + c1) * kLanes;
      double* p10r = re_.data() + (r1 * dim_ + c) * kLanes;
      double* p10i = im_.data() + (r1 * dim_ + c) * kLanes;
      double* p11r = re_.data() + (r1 * dim_ + c1) * kLanes;
      double* p11i = im_.data() + (r1 * dim_ + c1) * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) {
        p00r[l] *= n0[l];
        p00i[l] *= n0[l];
        const double v01r = p01r[l], v01i = p01i[l];
        p01r[l] = v01r * f01r[l] - v01i * f01i[l];
        p01i[l] = v01r * f01i[l] + v01i * f01r[l];
        const double v10r = p10r[l], v10i = p10i[l];
        p10r[l] = v10r * f10r[l] - v10i * f10i[l];
        p10i[l] = v10r * f10i[l] + v10i * f10r[l];
        p11r[l] *= n1[l];
        p11i[l] *= n1[l];
      }
    }
  }
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply_diag1(int q, cplx d0, cplx d1) {
  apply_diag1_lanes(q, broadcast<L>({d0, cplx{}, cplx{}, d1}).data());
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply2_lanes(int q0, int q1,
                                           const std::array<cplx, 16>* us) {
  require(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 && q1 < num_qubits_ &&
              q0 != q1,
          "invalid qubit pair");
  // Lane-major operands and their dagger (adag[c*4+r] = conj(a[r*4+c]),
  // precomputed once as in right_mul2_dag).
  double ar[16][kLanes], ai[16][kLanes];
  double dr[16][kLanes], di[16][kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        const cplx a = us[l][r * 4 + c];
        ar[r * 4 + c][l] = a.real();
        ai[r * 4 + c][l] = a.imag();
        const cplx d = std::conj(a);
        dr[c * 4 + r][l] = d.real();
        di[c * 4 + r][l] = d.imag();
      }
    }
  }
  const std::size_t m0 = std::size_t{1} << q0;
  const std::size_t m1 = std::size_t{1} << q1;
  // Pass 1: rho -> U rho, same traversal as left_mul2.
  for (std::size_t r = 0; r < dim_; ++r) {
    if ((r & m0) || (r & m1)) continue;
    const std::size_t rr[4] = {r, r | m1, r | m0, r | m0 | m1};
    for (std::size_t c = 0; c < dim_; ++c) {
      double* vr[4];
      double* vi[4];
      for (int k = 0; k < 4; ++k) {
        vr[k] = re_.data() + (rr[k] * dim_ + c) * kLanes;
        vi[k] = im_.data() + (rr[k] * dim_ + c) * kLanes;
      }
      double tr[4][kLanes], ti[4][kLanes];
      for (int k = 0; k < 4; ++k) {
        const std::size_t k4 = static_cast<std::size_t>(k) * 4;
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) {
          // a[k4+0]*v0 + a[k4+1]*v1 + a[k4+2]*v2 + a[k4+3]*v3, left to right.
          tr[k][l] = (((ar[k4 + 0][l] * vr[0][l] - ai[k4 + 0][l] * vi[0][l]) +
                       (ar[k4 + 1][l] * vr[1][l] - ai[k4 + 1][l] * vi[1][l])) +
                      (ar[k4 + 2][l] * vr[2][l] - ai[k4 + 2][l] * vi[2][l])) +
                     (ar[k4 + 3][l] * vr[3][l] - ai[k4 + 3][l] * vi[3][l]);
          ti[k][l] = (((ar[k4 + 0][l] * vi[0][l] + ai[k4 + 0][l] * vr[0][l]) +
                       (ar[k4 + 1][l] * vi[1][l] + ai[k4 + 1][l] * vr[1][l])) +
                      (ar[k4 + 2][l] * vi[2][l] + ai[k4 + 2][l] * vr[2][l])) +
                     (ar[k4 + 3][l] * vi[3][l] + ai[k4 + 3][l] * vr[3][l]);
        }
      }
      for (int k = 0; k < 4; ++k) {
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) {
          vr[k][l] = tr[k][l];
          vi[k][l] = ti[k][l];
        }
      }
    }
  }
  // Pass 2: rho -> rho U^dag, same traversal as right_mul2_dag (the oracle
  // kernel accumulates v[j] * adag[j*4+k] from complex zero, j ascending).
  for (std::size_t r = 0; r < dim_; ++r) {
    const std::size_t row = r * dim_;
    for (std::size_t c = 0; c < dim_; ++c) {
      if ((c & m0) || (c & m1)) continue;
      const std::size_t cc[4] = {c, c | m1, c | m0, c | m0 | m1};
      double* vr[4];
      double* vi[4];
      for (int k = 0; k < 4; ++k) {
        vr[k] = re_.data() + (row + cc[k]) * kLanes;
        vi[k] = im_.data() + (row + cc[k]) * kLanes;
      }
      double tr[4][kLanes], ti[4][kLanes];
      for (int k = 0; k < 4; ++k) {
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) {
          double accr = 0.0, acci = 0.0;
          for (int j = 0; j < 4; ++j) {
            const std::size_t jk = static_cast<std::size_t>(j) * 4 +
                                   static_cast<std::size_t>(k);
            accr += vr[j][l] * dr[jk][l] - vi[j][l] * di[jk][l];
            acci += vr[j][l] * di[jk][l] + vi[j][l] * dr[jk][l];
          }
          tr[k][l] = accr;
          ti[k][l] = acci;
        }
      }
      for (int k = 0; k < 4; ++k) {
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) {
          vr[k][l] = tr[k][l];
          vi[k][l] = ti[k][l];
        }
      }
    }
  }
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply_crot_lanes(int control, int target,
                                               const std::array<cplx, 4>* ms) {
  // CX (I (x) M) CX is block-diagonal: M on control-0, X M X on control-1
  // (local index = 2*bit(control) + bit(target)).
  const cplx zero{0.0, 0.0};
  std::array<std::array<cplx, 16>, L> us;
  for (std::size_t l = 0; l < L; ++l) {
    const std::array<cplx, 4>& m = ms[l];
    us[l] = {m[0], m[1], zero, zero,  //
             m[2], m[3], zero, zero,  //
             zero, zero, m[3], m[2],  //
             zero, zero, m[1], m[0]};
  }
  apply2_lanes(control, target, us.data());
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply_cx(int control, int target) {
  require(control >= 0 && control < num_qubits_ && target >= 0 &&
              target < num_qubits_ && control != target,
          "invalid qubit pair");
  // CX is a permutation P with P = P^dag = P^-1, so CX rho CX^dag just
  // relabels entries: rho'(r, c) = rho(pi(r), pi(c)) with pi(i) = i XOR
  // target-bit when the control bit is set. Each unordered entry pair is
  // swapped once, from its lexicographically smaller side.
  const std::size_t mc = std::size_t{1} << control;
  const std::size_t mt = std::size_t{1} << target;
  auto swap_rows = [&](std::size_t a, std::size_t b) {
    double* rap = re_.data() + a * kLanes;
    double* iap = im_.data() + a * kLanes;
    double* rbp = re_.data() + b * kLanes;
    double* ibp = im_.data() + b * kLanes;
#pragma omp simd
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double tr = rap[l], ti = iap[l];
      rap[l] = rbp[l];
      iap[l] = ibp[l];
      rbp[l] = tr;
      ibp[l] = ti;
    }
  };
  for (std::size_t r = 0; r < dim_; ++r) {
    const std::size_t pr = (r & mc) ? (r ^ mt) : r;
    if (pr < r) continue;
    for (std::size_t c = 0; c < dim_; ++c) {
      const std::size_t pc = (c & mc) ? (c ^ mt) : c;
      if (pr == r) {
        if (pc > c) swap_rows(r * dim_ + c, r * dim_ + pc);
      } else {
        swap_rows(r * dim_ + c, pr * dim_ + pc);
      }
    }
  }
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply_channel1(int q,
                                             const FusedChannel1& channel) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  if (channel.is_identity()) return;
  // A local copy: the coefficients then stay in registers instead of being
  // reloaded after every store to the planes (which the compiler must
  // otherwise assume may alias them), so the lane loops vectorize.
  const FusedChannel1 ch = channel;
  const std::size_t mq = std::size_t{1} << q;
  for (std::size_t r = 0; r < dim_; ++r) {
    if (r & mq) continue;
    const std::size_t r1 = r | mq;
    for (std::size_t c = 0; c < dim_; ++c) {
      if (c & mq) continue;
      const std::size_t c1 = c | mq;
      double* p00r = re_.data() + (r * dim_ + c) * kLanes;
      double* p00i = im_.data() + (r * dim_ + c) * kLanes;
      double* p01r = re_.data() + (r * dim_ + c1) * kLanes;
      double* p01i = im_.data() + (r * dim_ + c1) * kLanes;
      double* p10r = re_.data() + (r1 * dim_ + c) * kLanes;
      double* p10i = im_.data() + (r1 * dim_ + c) * kLanes;
      double* p11r = re_.data() + (r1 * dim_ + c1) * kLanes;
      double* p11i = im_.data() + (r1 * dim_ + c1) * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double v00r = p00r[l], v00i = p00i[l];
        const double v11r = p11r[l], v11i = p11i[l];
        // Populations mix through the real 2x2, coherences scale by off.
        p00r[l] = ch.d00_00 * v00r + ch.d00_11 * v11r;
        p00i[l] = ch.d00_00 * v00i + ch.d00_11 * v11i;
        p11r[l] = ch.d11_00 * v00r + ch.d11_11 * v11r;
        p11i[l] = ch.d11_00 * v00i + ch.d11_11 * v11i;
        p01r[l] *= ch.off;
        p01i[l] *= ch.off;
        p10r[l] *= ch.off;
        p10i[l] *= ch.off;
      }
    }
  }
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply_channel2(int qa, int qb,
                                             const FusedChannel2& channel) {
  require(qa >= 0 && qa < num_qubits_ && qb >= 0 && qb < num_qubits_ &&
              qa != qb,
          "invalid qubit pair");
  if (channel.is_identity()) return;
  const FusedChannel2 ch = channel;  // register-resident: see apply_channel1
  const std::size_t ma = std::size_t{1} << qa;
  const std::size_t mb = std::size_t{1} << qb;
  const std::size_t offsets[4] = {0, mb, ma, ma | mb};
  for (std::size_t r = 0; r < dim_; ++r) {
    if ((r & ma) || (r & mb)) continue;
    for (std::size_t c = 0; c < dim_; ++c) {
      if ((c & ma) || (c & mb)) continue;
      // Lane rows of the 4x4 block, local index k = 2*bit(qa) + bit(qb),
      // transformed in place: two-qubit depolarizing (scale the block,
      // redistribute its partial trace over the diagonal), then thermal
      // relaxation on qa (block-index bit 1), then on qb (bit 0).
      double* er[4][4];
      double* ei[4][4];
      for (int kr = 0; kr < 4; ++kr) {
        for (int kc = 0; kc < 4; ++kc) {
          const std::size_t idx = (r | offsets[kr]) * dim_ + (c | offsets[kc]);
          er[kr][kc] = re_.data() + idx * kLanes;
          ei[kr][kc] = im_.data() + idx * kLanes;
        }
      }
      if (ch.quarter_p != 0.0) {
        double tr[kLanes], ti[kLanes];
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) {
          tr[l] = ((er[0][0][l] + er[1][1][l]) + er[2][2][l]) + er[3][3][l];
          ti[l] = ((ei[0][0][l] + ei[1][1][l]) + ei[2][2][l]) + ei[3][3][l];
        }
        for (int kr = 0; kr < 4; ++kr) {
          for (int kc = 0; kc < 4; ++kc) {
#pragma omp simd
            for (std::size_t l = 0; l < kLanes; ++l) {
              er[kr][kc][l] *= ch.keep;
              ei[kr][kc][l] *= ch.keep;
            }
          }
        }
        for (int k = 0; k < 4; ++k) {
#pragma omp simd
          for (std::size_t l = 0; l < kLanes; ++l) {
            er[k][k][l] += ch.quarter_p * tr[l];
            ei[k][k][l] += ch.quarter_p * ti[l];
          }
        }
      }
      if (ch.gamma_a != 0.0 || ch.s_a != 1.0) {
        for (int rb = 0; rb < 2; ++rb) {
          for (int cb = 0; cb < 2; ++cb) {
#pragma omp simd
            for (std::size_t l = 0; l < kLanes; ++l) {
              er[rb][cb][l] += ch.gamma_a * er[2 + rb][2 + cb][l];
              ei[rb][cb][l] += ch.gamma_a * ei[2 + rb][2 + cb][l];
              er[2 + rb][2 + cb][l] *= ch.keep_a;
              ei[2 + rb][2 + cb][l] *= ch.keep_a;
              er[rb][2 + cb][l] *= ch.s_a;
              ei[rb][2 + cb][l] *= ch.s_a;
              er[2 + rb][cb][l] *= ch.s_a;
              ei[2 + rb][cb][l] *= ch.s_a;
            }
          }
        }
      }
      if (ch.gamma_b != 0.0 || ch.s_b != 1.0) {
        for (int ra = 0; ra < 2; ++ra) {
          for (int ca = 0; ca < 2; ++ca) {
#pragma omp simd
            for (std::size_t l = 0; l < kLanes; ++l) {
              er[2 * ra][2 * ca][l] += ch.gamma_b * er[2 * ra + 1][2 * ca + 1][l];
              ei[2 * ra][2 * ca][l] += ch.gamma_b * ei[2 * ra + 1][2 * ca + 1][l];
              er[2 * ra + 1][2 * ca + 1][l] *= ch.keep_b;
              ei[2 * ra + 1][2 * ca + 1][l] *= ch.keep_b;
              er[2 * ra][2 * ca + 1][l] *= ch.s_b;
              ei[2 * ra][2 * ca + 1][l] *= ch.s_b;
              er[2 * ra + 1][2 * ca][l] *= ch.s_b;
              ei[2 * ra + 1][2 * ca][l] *= ch.s_b;
            }
          }
        }
      }
    }
  }
}

template <std::size_t L>
void BatchedDensityMatrix<L>::lane_probabilities(
    std::size_t lane, std::vector<double>& probs) const {
  require(lane < kLanes, "lane index out of range");
  probs.resize(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    probs[i] = re_[(i * dim_ + i) * kLanes + lane];
  }
}

template class BatchedStateVector<1>;
template class BatchedStateVector<kBlockLanes>;
template class BatchedDensityMatrix<1>;
template class BatchedDensityMatrix<kBlockLanes>;

// ---------------------------------------------------------------------------
// The one replay loop over the compiled op stream (CompiledProgram::run_lanes
// and run_pure_lanes). It lives in this file so that its ISA clones inline
// the kernels above: see sim/isa_clones.hpp.
// ---------------------------------------------------------------------------

namespace {

std::array<cplx, 4> sym_diag_matrix(double angle) {
  const auto [d0, d1] = rz_diag(angle);
  return {d0, cplx{0.0, 0.0}, cplx{0.0, 0.0}, d1};
}

/// The one replay loop behind run_lanes and run_pure_lanes: walks the op
/// stream once per block of L samples. Each symbolic op resolves to one 2x2
/// per lane, which is also what `resolved` records: per lane for
/// input-symbolic angles, once for theta-symbolic ones (applied with the
/// uniform kernels).
template <typename State, std::size_t L>
void replay(const CompiledProgram& program, State& state,
            const LaneInputs<L>& xs, std::span<const double> theta,
            std::vector<std::array<cplx, 4>>* resolved) {
  const std::vector<CompiledOp>& ops = program.ops();
  const auto num_inputs = static_cast<std::size_t>(program.num_inputs());
  if (resolved != nullptr) resolved->resize(ops.size() * L);
  state.reset();
  std::array<std::array<cplx, 4>, L> ms;
  auto lane_matrices = [&](std::size_t idx, const SymSlot& slot,
                           auto matrix_at) {
    if (slot.input_index >= 0) {
      for (std::size_t l = 0; l < L; ++l) {
        // The caller checked every row with require_inputs(), so the
        // bounds check inside resolve_sym_angle always passes.
        const std::span<const double> x(xs[l], num_inputs);
        ms[l] = matrix_at(resolve_sym_angle(slot, x, theta));
      }
    } else {
      ms.fill(matrix_at(resolve_sym_angle(slot, {}, theta)));
    }
    if (resolved != nullptr) {
      std::copy(ms.begin(), ms.end(), resolved->begin() + idx * L);
    }
    return ms.data();
  };
  for (std::size_t idx = 0; idx < ops.size(); ++idx) {
    const CompiledOp& op = ops[idx];
    switch (op.kind) {
      case COpKind::Unitary1:
        state.apply1(op.q0, program.unitary(op));
        break;
      case COpKind::Diag1: {
        const std::array<cplx, 2>& d = program.diagonal(op);
        state.apply_diag1(op.q0, d[0], d[1]);
        break;
      }
      case COpKind::SymDiag1: {
        const SymSlot& slot = program.slot(op);
        const auto* m = lane_matrices(idx, slot, sym_diag_matrix);
        if (slot.input_index >= 0) {
          state.apply_diag1_lanes(op.q0, m);
        } else {
          state.apply_diag1(op.q0, m[0][0], m[0][3]);
        }
        break;
      }
      case COpKind::SymUni1: {
        const SymSlot& slot = program.slot(op);
        const std::array<cplx, 4>& u = program.prefix(op);
        const auto* m = lane_matrices(
            idx, slot, [&](double a) { return sym_uni_matrix(u, a); });
        if (slot.input_index >= 0) {
          state.apply1_lanes(op.q0, m);
        } else {
          state.apply1(op.q0, m[0]);
        }
        break;
      }
      case COpKind::CRot2: {
        const CRotFactors& f = program.crot(op);
        state.apply_crot_lanes(
            op.q0, op.q1,
            lane_matrices(idx, program.slot(op),
                          [&](double a) { return crot_inner_matrix(f, a); }));
        break;
      }
      case COpKind::Cx:
        state.apply_cx(op.q0, op.q1);
        break;
      case COpKind::Channel1:
        if constexpr (std::is_same_v<State, BatchedDensityMatrix<L>>) {
          state.apply_channel1(op.q0, program.channel1(op));
        }
        break;
      case COpKind::Channel2:
        if constexpr (std::is_same_v<State, BatchedDensityMatrix<L>>) {
          state.apply_channel2(op.q0, op.q1, program.channel2(op));
        }
        break;
    }
  }
}

// The replay entry points: one non-template function per (state type, lane
// width), so QUCAD_ISA_CLONES can clone each one per ISA level and flatten
// the replay loop and every kernel above into each clone. They must stay in
// this file, next to the kernel definitions, for flatten to see them.

QUCAD_ISA_CLONES void replay_entry(const CompiledProgram& program,
                                   BatchedDensityMatrix<1>& state,
                                   const LaneInputs<1>& xs,
                                   std::span<const double> theta) {
  replay(program, state, xs, theta, nullptr);
}

QUCAD_ISA_CLONES void replay_entry(const CompiledProgram& program,
                                   BatchedDensityMatrix<kBlockLanes>& state,
                                   const LaneInputs<kBlockLanes>& xs,
                                   std::span<const double> theta) {
  replay(program, state, xs, theta, nullptr);
}

QUCAD_ISA_CLONES void replay_entry(
    const CompiledProgram& program, BatchedStateVector<1>& state,
    const LaneInputs<1>& xs, std::span<const double> theta,
    std::vector<std::array<cplx, 4>>* resolved) {
  replay(program, state, xs, theta, resolved);
}

QUCAD_ISA_CLONES void replay_entry(
    const CompiledProgram& program, BatchedStateVector<kBlockLanes>& state,
    const LaneInputs<kBlockLanes>& xs, std::span<const double> theta,
    std::vector<std::array<cplx, 4>>* resolved) {
  replay(program, state, xs, theta, resolved);
}

}  // namespace

#if QUCAD_HAVE_ISA_CLONES
namespace {

// One version per level of QUCAD_ISA_CLONE_LEVELS plus the default: GCC's
// multiversioning resolver binds the version a QUCAD_ISA_CLONES function
// would bind, so the name cannot drift from the clones that run.
#define QUCAD_ISA_LEVEL_VERSION(level)                        \
  __attribute__((target("arch=" level))) const char* dispatched_isa() { \
    return level;                                             \
  }
QUCAD_ISA_CLONE_LEVELS(QUCAD_ISA_LEVEL_VERSION)
#undef QUCAD_ISA_LEVEL_VERSION

__attribute__((target("default"))) const char* dispatched_isa() {
  return "x86-64";
}

}  // namespace

const char* engine_isa() { return dispatched_isa(); }
#else
const char* engine_isa() { return "baseline"; }
#endif

template <std::size_t L>
void CompiledProgram::run_lanes(BatchedDensityMatrix<L>& bdm,
                                const LaneInputs<L>& xs,
                                std::span<const double> theta) const {
  require(bdm.num_qubits() == num_qubits_,
          "scratch matrix qubit count mismatch");
  replay_entry(*this, bdm, xs, theta);
}

template <std::size_t L>
void CompiledProgram::run_pure_lanes(
    BatchedStateVector<L>& bsv, const LaneInputs<L>& xs,
    std::span<const double> theta,
    std::vector<std::array<cplx, 4>>* resolved) const {
  require(bsv.num_qubits() == num_qubits_,
          "scratch state qubit count mismatch");
  require(!has_channels(),
          "run_pure_lanes requires a noiseless program (no channel ops)");
  replay_entry(*this, bsv, xs, theta, resolved);
}

template void CompiledProgram::run_lanes(BatchedDensityMatrix<1>&,
                                         const LaneInputs<1>&,
                                         std::span<const double>) const;
template void CompiledProgram::run_lanes(BatchedDensityMatrix<kBlockLanes>&,
                                         const LaneInputs<kBlockLanes>&,
                                         std::span<const double>) const;
template void CompiledProgram::run_pure_lanes(
    BatchedStateVector<1>&, const LaneInputs<1>&, std::span<const double>,
    std::vector<std::array<cplx, 4>>*) const;
template void CompiledProgram::run_pure_lanes(
    BatchedStateVector<kBlockLanes>&, const LaneInputs<kBlockLanes>&,
    std::span<const double>, std::vector<std::array<cplx, 4>>*) const;

}  // namespace qucad
