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

void require_pair(int q0, int q1, int num_qubits) {
  require(q0 >= 0 && q0 < num_qubits && q1 >= 0 && q1 < num_qubits && q0 != q1,
          "invalid qubit pair");
}

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
  require_pair(control, target, num_qubits_);
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
// BatchedDensityMatrix: the noisy engine's lane state, a BatchedStateVector
// on twice the qubits. A unitary is DensityMatrix's left multiply (the
// statevector kernel on the row qubits) followed by its right multiply by
// U^dag (the same kernel with conj(U) on the column qubits). The oracle's
// right multiply forms v * conj(a) where the kernel forms conj(a) * v; IEEE
// mul and add commute exactly, so the bits agree. The kernels below are
// the passes a statevector cannot express.
// ---------------------------------------------------------------------------

namespace {

int density_register_qubits(int num_qubits, int max_qubits) {
  require(num_qubits > 0 && num_qubits <= max_qubits,
          "batched density matrix qubit count out of range");
  return 2 * num_qubits;
}

std::array<cplx, 4> conj2(const std::array<cplx, 4>& m) {
  return {std::conj(m[0]), std::conj(m[1]), std::conj(m[2]), std::conj(m[3])};
}

template <std::size_t L>
std::array<std::array<cplx, 4>, L> conj_lanes(const std::array<cplx, 4>* ms) {
  std::array<std::array<cplx, 4>, L> out;
  for (std::size_t l = 0; l < L; ++l) out[l] = conj2(ms[l]);
  return out;
}

/// A CX error site (FusedChannel2: two-qubit depolarizing, then thermal
/// relaxation on a = min(q), then on b = max(q)) composed into one real map
/// per 4x4 block, block index k = 2 * bit(a) + bit(b). The populations mix
/// through `pop`. A coherence between indices that differ in b only scales
/// by b_hi where bit(a) = 1, and by b_lo plus b_lo_in times its bit(a) = 1
/// partner (the a-thermal transfer) where bit(a) = 0; likewise with a and b
/// swapped. Coherences differing in both bits scale by ab.
struct CxSiteMap {
  double pop[4][4];
  double b_lo, b_lo_in, b_hi;
  double a_lo, a_lo_in, a_hi;
  double ab;
};

CxSiteMap cx_site_map(const FusedChannel2& ch) {
  // The thermal steps' population matrix: a then b, each moving gamma of
  // its bit-1 population to bit 0 and keeping 1 - gamma.
  const double ga = ch.gamma_a;
  const double gb = ch.gamma_b;
  const double thermal[4][4] = {{1.0, gb, ga, gb * ga},
                                {0.0, ch.keep_b, 0.0, ch.keep_b * ga},
                                {0.0, 0.0, ch.keep_a, gb * ch.keep_a},
                                {0.0, 0.0, 0.0, ch.keep_b * ch.keep_a}};
  CxSiteMap m;
  // Depolarizing first: population j -> keep * x_j + quarter_p * trace.
  for (int k = 0; k < 4; ++k) {
    const double row_sum =
        ((thermal[k][0] + thermal[k][1]) + thermal[k][2]) + thermal[k][3];
    for (int j = 0; j < 4; ++j) {
      m.pop[k][j] = ch.keep * thermal[k][j] + ch.quarter_p * row_sum;
    }
  }
  m.b_lo = ch.keep * ch.s_b;
  m.b_lo_in = m.b_lo * ga;
  m.b_hi = m.b_lo * ch.keep_a;
  m.a_lo = ch.keep * ch.s_a;
  m.a_lo_in = m.a_lo * gb;
  m.a_hi = m.a_lo * ch.keep_b;
  m.ab = (ch.keep * ch.s_a) * ch.s_b;
  return m;
}

}  // namespace

template <std::size_t L>
BatchedDensityMatrix<L>::BatchedDensityMatrix(int num_qubits)
    : reg_(density_register_qubits(num_qubits, kMaxQubits)),
      num_qubits_(num_qubits),
      dim_(std::size_t{1} << num_qubits) {}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply1(int q, const std::array<cplx, 4>& u) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  reg_.apply1(q + num_qubits_, u);
  reg_.apply1(q, conj2(u));
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply1_lanes(int q,
                                           const std::array<cplx, 4>* us) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  reg_.apply1_lanes(q + num_qubits_, us);
  reg_.apply1_lanes(q, conj_lanes<L>(us).data());
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply_diag1_lanes(
    int q, const std::array<cplx, 4>* ms) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  double* re = reg_.re();
  double* im = reg_.im();
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
      double* p00r = re + (r * dim_ + c) * kLanes;
      double* p00i = im + (r * dim_ + c) * kLanes;
      double* p01r = re + (r * dim_ + c1) * kLanes;
      double* p01i = im + (r * dim_ + c1) * kLanes;
      double* p10r = re + (r1 * dim_ + c) * kLanes;
      double* p10i = im + (r1 * dim_ + c) * kLanes;
      double* p11r = re + (r1 * dim_ + c1) * kLanes;
      double* p11i = im + (r1 * dim_ + c1) * kLanes;
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
void BatchedDensityMatrix<L>::apply_crot_lanes(int control, int target,
                                               const std::array<cplx, 4>* ms) {
  require_pair(control, target, num_qubits_);
  reg_.apply_crot_lanes(control + num_qubits_, target + num_qubits_, ms);
  reg_.apply_crot_lanes(control, target, conj_lanes<L>(ms).data());
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply_cx(int control, int target) {
  require_pair(control, target, num_qubits_);
  // CX is real, so CX rho CX^dag is the statevector row swap on the column
  // (high) half of the register and again on the row (low) half.
  reg_.apply_cx(control + num_qubits_, target + num_qubits_);
  reg_.apply_cx(control, target);
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply_channel1(int q, const BlochMap& map) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  double* re = reg_.re();
  double* im = reg_.im();
  // The map on twice the Pauli vector, m / 2, and half its shift: the block
  // loop below reads 2a, 2x, 2y and 2z and writes a and the mapped
  // (x, y, z). Locals, so the coefficients stay in registers across the
  // stores to the planes.
  double m[3][3];
  double half_shift[3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) m[i][j] = 0.5 * map.m[i][j];
    half_shift[i] = 0.5 * map.shift[i];
  }
  // The columns c with bit q clear come in runs of `stride`, and a run's
  // entries and lanes are one contiguous span of every plane row, so the
  // inner loop runs unit-stride over run x lane (vectorized at width 1
  // too, wherever q > 0).
  const std::size_t stride = std::size_t{1} << q;
  const std::size_t span = stride * kLanes;
  for (std::size_t row = 0; row < dim_; ++row) {
    if (row & stride) continue;
    const std::size_t row1 = row | stride;
    for (std::size_t c = 0; c < dim_; c += 2 * stride) {
      const std::size_t c1 = c | stride;
      double* p00r = re + (row * dim_ + c) * kLanes;
      double* p00i = im + (row * dim_ + c) * kLanes;
      double* p01r = re + (row * dim_ + c1) * kLanes;
      double* p01i = im + (row * dim_ + c1) * kLanes;
      double* p10r = re + (row1 * dim_ + c) * kLanes;
      double* p10i = im + (row1 * dim_ + c) * kLanes;
      double* p11r = re + (row1 * dim_ + c1) * kLanes;
      double* p11i = im + (row1 * dim_ + c1) * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < span; ++l) {
        const double b00r = p00r[l], b00i = p00i[l];
        const double b01r = p01r[l], b01i = p01i[l];
        const double b10r = p10r[l], b10i = p10i[l];
        const double b11r = p11r[l], b11i = p11i[l];
        // Twice the block's Pauli coefficients; 2y = i (b01 - b10).
        const double sr = b00r + b11r, si = b00i + b11i;
        const double xr = b01r + b10r, xi = b01i + b10i;
        const double yr = b10i - b01i, yi = b01r - b10r;
        const double zr = b00r - b11r, zi = b00i - b11i;
        const double ar = 0.5 * sr, ai = 0.5 * si;
        const double nxr =
            ((m[0][0] * xr + m[0][1] * yr) + m[0][2] * zr) + half_shift[0] * sr;
        const double nxi =
            ((m[0][0] * xi + m[0][1] * yi) + m[0][2] * zi) + half_shift[0] * si;
        const double nyr =
            ((m[1][0] * xr + m[1][1] * yr) + m[1][2] * zr) + half_shift[1] * sr;
        const double nyi =
            ((m[1][0] * xi + m[1][1] * yi) + m[1][2] * zi) + half_shift[1] * si;
        const double nzr =
            ((m[2][0] * xr + m[2][1] * yr) + m[2][2] * zr) + half_shift[2] * sr;
        const double nzi =
            ((m[2][0] * xi + m[2][1] * yi) + m[2][2] * zi) + half_shift[2] * si;
        // Back to entries: b00 = a + z, b11 = a - z, b01 = x - i y,
        // b10 = x + i y.
        p00r[l] = ar + nzr;
        p00i[l] = ai + nzi;
        p11r[l] = ar - nzr;
        p11i[l] = ai - nzi;
        p01r[l] = nxr + nyi;
        p01i[l] = nxi - nyr;
        p10r[l] = nxr - nyi;
        p10i[l] = nxi + nyr;
      }
    }
  }
}

template <std::size_t L>
void BatchedDensityMatrix<L>::apply_channel2(int control, int target,
                                             const FusedChannel2& channel) {
  require_pair(control, target, num_qubits_);
  const CxSiteMap m = cx_site_map(channel);
  // Each 4x4 block over the pair, local index k = 2 * bit(min) + bit(max)
  // as in FusedChannel2, is read through the CX relabel (rho'(r, c) =
  // rho(pi(r), pi(c)), pi flipping the target's bit where the control's is
  // set) into registers, and written back once through the closed form.
  const std::size_t ma = std::size_t{1} << std::min(control, target);
  const std::size_t mb = std::size_t{1} << std::max(control, target);
  const std::size_t offsets[4] = {0, mb, ma, ma | mb};
  const std::size_t cbit = control < target ? 2 : 1;
  const std::size_t tbit = 3 - cbit;
  std::size_t src[16], dst[16];  // plane offsets of block entry 4 * kr + kc
  for (std::size_t kr = 0; kr < 4; ++kr) {
    const std::size_t pr = (kr & cbit) ? kr ^ tbit : kr;
    for (std::size_t kc = 0; kc < 4; ++kc) {
      const std::size_t pc = (kc & cbit) ? kc ^ tbit : kc;
      dst[4 * kr + kc] = (offsets[kr] * dim_ + offsets[kc]) * kLanes;
      src[4 * kr + kc] = (offsets[pr] * dim_ + offsets[pc]) * kLanes;
    }
  }
  // Every coefficient is real, so each plane maps on its own.
  for (double* plane : {reg_.re(), reg_.im()}) {
    for (std::size_t r = 0; r < dim_; ++r) {
      if ((r & ma) || (r & mb)) continue;
      for (std::size_t c = 0; c < dim_; ++c) {
        if ((c & ma) || (c & mb)) continue;
        double* p = plane + (r * dim_ + c) * kLanes;
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) {
          const double x00 = p[src[0] + l], x01 = p[src[1] + l];
          const double x02 = p[src[2] + l], x03 = p[src[3] + l];
          const double x10 = p[src[4] + l], x11 = p[src[5] + l];
          const double x12 = p[src[6] + l], x13 = p[src[7] + l];
          const double x20 = p[src[8] + l], x21 = p[src[9] + l];
          const double x22 = p[src[10] + l], x23 = p[src[11] + l];
          const double x30 = p[src[12] + l], x31 = p[src[13] + l];
          const double x32 = p[src[14] + l], x33 = p[src[15] + l];
          for (std::size_t k = 0; k < 4; ++k) {
            p[dst[5 * k] + l] = ((m.pop[k][0] * x00 + m.pop[k][1] * x11) +
                                 m.pop[k][2] * x22) +
                                m.pop[k][3] * x33;
          }
          p[dst[1] + l] = m.b_lo * x01 + m.b_lo_in * x23;
          p[dst[4] + l] = m.b_lo * x10 + m.b_lo_in * x32;
          p[dst[11] + l] = m.b_hi * x23;
          p[dst[14] + l] = m.b_hi * x32;
          p[dst[2] + l] = m.a_lo * x02 + m.a_lo_in * x13;
          p[dst[8] + l] = m.a_lo * x20 + m.a_lo_in * x31;
          p[dst[7] + l] = m.a_hi * x13;
          p[dst[13] + l] = m.a_hi * x31;
          p[dst[3] + l] = m.ab * x03;
          p[dst[6] + l] = m.ab * x12;
          p[dst[9] + l] = m.ab * x21;
          p[dst[12] + l] = m.ab * x30;
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
    probs[i] = reg_.re()[(i * dim_ + i) * kLanes + lane];
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
          state.apply_channel1(op.q0, program.bloch_map(op));
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

// ---------------------------------------------------------------------------
// The adjoint's reverse sweep (CompiledProgram::reverse_pure_lanes): the
// replay run backward, un-applying each op from ket and lam with the same
// kernels. Only a trainable op reads a gradient overlap first, each in the
// summation order of its own helper below.
// ---------------------------------------------------------------------------

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

/// acc[lane] += Im(<lam| Z_q |ket>), amplitude by amplitude (SymDiag1).
template <std::size_t L>
void z_overlap_by_amplitude(const BatchedStateVector<L>& ket,
                            const BatchedStateVector<L>& lam, int q,
                            double* acc) {
  const std::size_t mq = std::size_t{1} << q;
  const double* kr = ket.re();
  const double* ki = ket.im();
  const double* lr = lam.re();
  const double* li = lam.im();
  for (std::size_t i = 0; i < ket.dim(); ++i) {
    const double sign = (i & mq) ? -1.0 : 1.0;
    const std::size_t row = i * L;
#pragma omp simd
    for (std::size_t l = 0; l < L; ++l) {
      acc[l] += sign * (lr[row + l] * ki[row + l] - li[row + l] * kr[row + l]);
    }
  }
}

/// acc[lane] += Im(<lam| Z_q |ket>), pair by pair in apply1's order
/// (SymUni1).
template <std::size_t L>
void z_overlap_by_pair(const BatchedStateVector<L>& ket,
                       const BatchedStateVector<L>& lam, int q, double* acc) {
  const std::size_t stride = std::size_t{1} << q;
  const double* kr = ket.re();
  const double* ki = ket.im();
  const double* lr = lam.re();
  const double* li = lam.im();
  for (std::size_t base = 0; base < ket.dim(); base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      const std::size_t i0 = (base + off) * L;
      const std::size_t i1 = i0 + stride * L;
#pragma omp simd
      for (std::size_t l = 0; l < L; ++l) {
        acc[l] += (lr[i0 + l] * ki[i0 + l] - li[i0 + l] * kr[i0 + l]) -
                  (lr[i1 + l] * ki[i1 + l] - li[i1 + l] * kr[i1 + l]);
      }
    }
  }
}

/// acc[lane] += Im(<lam| CX (I (x) A) CX |ket>), tuple by tuple in
/// apply_crot_lanes' order (CRot2, A = conjugated_z_generator).
template <std::size_t L>
void crot_overlap(const BatchedStateVector<L>& ket,
                  const BatchedStateVector<L>& lam, int control, int target,
                  const std::array<cplx, 4>& a, double* acc) {
  const std::size_t mc = std::size_t{1} << control;
  const std::size_t mt = std::size_t{1} << target;
  auto at = [](const BatchedStateVector<L>& s, std::size_t i, std::size_t l) {
    return cplx{s.re()[i * L + l], s.im()[i * L + l]};
  };
  for (std::size_t i = 0; i < ket.dim(); ++i) {
    if ((i & mc) || (i & mt)) continue;
    const std::size_t i01 = i | mt;
    const std::size_t i10 = i | mc;
    const std::size_t i11 = i | mc | mt;
    for (std::size_t l = 0; l < L; ++l) {
      const cplx k00 = at(ket, i, l), k01 = at(ket, i01, l);
      const cplx k10 = at(ket, i10, l), k11 = at(ket, i11, l);
      // Control-0 pair sees A; control-1 pair sees X A X.
      const cplx g0 = std::conj(at(lam, i, l)) * (a[0] * k00 + a[1] * k01) +
                      std::conj(at(lam, i01, l)) * (a[2] * k00 + a[3] * k01);
      const cplx g1 = std::conj(at(lam, i10, l)) * (a[3] * k10 + a[2] * k11) +
                      std::conj(at(lam, i11, l)) * (a[1] * k10 + a[0] * k11);
      acc[l] += g0.imag() + g1.imag();
    }
  }
}

/// Reverse sweep: maintains ket = |psi_k>, lam = U_{k+1}^dag..U_N^dag O|psi>
/// per lane, adding each trainable op's contribution to gradients[lane]. For
/// a symbolic op with a trainable slot, dU/dtheta = theta_scale * (-i Z/2) U
/// (the RZ generator sits at the top of the op even for SymUni1, whose
/// absorbed prefix precedes the RZ), so the contribution is
/// theta_scale * Im(<lam| G |psi_after>), read before the op is un-applied.
/// Each op is un-applied with the kernel the forward replay applied it with:
/// per-lane for input-symbolic angles, uniform otherwise.
template <std::size_t L>
void reverse_sweep_lanes(const CompiledProgram& program,
                         const std::vector<std::array<cplx, 4>>& resolved,
                         BatchedStateVector<L>& ket, BatchedStateVector<L>& lam,
                         std::vector<std::vector<double>>& gradients) {
  const std::vector<CompiledOp>& ops = program.ops();
  std::array<std::array<cplx, 4>, L> mds;
  double acc[L];
  // Zeroes acc for an op with a trainable slot; null for any other op.
  auto trainable = [&](const CompiledOp& op) -> const SymSlot* {
    const SymSlot& slot = program.slot(op);
    if (slot.theta_index < 0) return nullptr;
    std::fill(acc, acc + L, 0.0);
    return &slot;
  };
  auto add_grads = [&](const SymSlot& slot) {
    auto t = static_cast<std::size_t>(slot.theta_index);
    for (std::size_t l = 0; l < L; ++l) {
      gradients[l][t] += slot.scale * acc[l];
    }
  };
  // The daggered resolved matrices of symbolic op idx, per lane.
  auto daggered = [&](std::size_t idx) {
    const std::array<cplx, 4>* res = resolved.data() + idx * L;
    for (std::size_t l = 0; l < L; ++l) mds[l] = dagger2(res[l]);
    return mds.data();
  };
  for (std::size_t idx = ops.size(); idx-- > 0;) {
    const CompiledOp& op = ops[idx];
    switch (op.kind) {
      case COpKind::Unitary1: {
        const std::array<cplx, 4> ud = dagger2(program.unitary(op));
        ket.apply1(op.q0, ud);
        lam.apply1(op.q0, ud);
        break;
      }
      case COpKind::Diag1: {
        const cplx d0 = std::conj(program.diagonal(op)[0]);
        const cplx d1 = std::conj(program.diagonal(op)[1]);
        ket.apply_diag1(op.q0, d0, d1);
        lam.apply_diag1(op.q0, d0, d1);
        break;
      }
      case COpKind::SymDiag1: {
        if (const SymSlot* slot = trainable(op)) {
          z_overlap_by_amplitude(ket, lam, op.q0, acc);
          add_grads(*slot);
        }
        const auto* m = daggered(idx);
        if (program.slot(op).input_index >= 0) {
          ket.apply_diag1_lanes(op.q0, m);
          lam.apply_diag1_lanes(op.q0, m);
        } else {
          ket.apply_diag1(op.q0, m[0][0], m[0][3]);
          lam.apply_diag1(op.q0, m[0][0], m[0][3]);
        }
        break;
      }
      case COpKind::SymUni1: {
        if (const SymSlot* slot = trainable(op)) {
          z_overlap_by_pair(ket, lam, op.q0, acc);
          add_grads(*slot);
        }
        const auto* m = daggered(idx);
        if (program.slot(op).input_index >= 0) {
          ket.apply1_lanes(op.q0, m);
          lam.apply1_lanes(op.q0, m);
        } else {
          ket.apply1(op.q0, m[0]);
          lam.apply1(op.q0, m[0]);
        }
        break;
      }
      case COpKind::CRot2: {
        if (const SymSlot* slot = trainable(op)) {
          crot_overlap(ket, lam, op.q0, op.q1,
                       conjugated_z_generator(program.crot(op).u2), acc);
          add_grads(*slot);
        }
        const auto* m = daggered(idx);
        ket.apply_crot_lanes(op.q0, op.q1, m);
        lam.apply_crot_lanes(op.q0, op.q1, m);
        break;
      }
      case COpKind::Cx:
        ket.apply_cx(op.q0, op.q1);
        lam.apply_cx(op.q0, op.q1);
        break;
      case COpKind::Channel1:
      case COpKind::Channel2:
        require(false, "cannot un-apply a channel op");
        break;
    }
  }
}

// The reverse sweep's entry points, cloned and flattened like replay_entry.

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

template <std::size_t L>
void CompiledProgram::reverse_pure_lanes(
    BatchedStateVector<L>& ket, BatchedStateVector<L>& lam,
    const std::vector<std::array<cplx, 4>>& resolved,
    std::vector<std::vector<double>>& gradients) const {
  require(ket.num_qubits() == num_qubits_ && lam.num_qubits() == num_qubits_,
          "scratch state qubit count mismatch");
  require(!has_channels(),
          "reverse_pure_lanes requires a noiseless program (no channel ops)");
  require(resolved.size() == ops_.size() * L,
          "resolved matrices must come from this program's run_pure_lanes");
  require(gradients.size() == L, "one gradient vector per lane");
  for (const std::vector<double>& g : gradients) {
    require(g.size() >= static_cast<std::size_t>(num_trainable_),
            "gradient vector shorter than num_trainable()");
  }
  reverse_sweep(*this, resolved, ket, lam, gradients);
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
template void CompiledProgram::reverse_pure_lanes(
    BatchedStateVector<1>&, BatchedStateVector<1>&,
    const std::vector<std::array<cplx, 4>>&,
    std::vector<std::vector<double>>&) const;
template void CompiledProgram::reverse_pure_lanes(
    BatchedStateVector<kBlockLanes>&, BatchedStateVector<kBlockLanes>&,
    const std::vector<std::array<cplx, 4>>&,
    std::vector<std::vector<double>>&) const;

}  // namespace qucad
