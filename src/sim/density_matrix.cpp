#include "sim/density_matrix.hpp"

#include <cmath>

#include "common/require.hpp"

namespace qucad {

DensityMatrix::DensityMatrix(int num_qubits)
    : num_qubits_(num_qubits),
      dim_(std::size_t{1} << num_qubits),
      rho_(dim_ * dim_, cplx{0.0, 0.0}) {
  require(num_qubits > 0 && num_qubits <= 10,
          "density matrix qubit count out of range");
  rho_[0] = 1.0;
}

DensityMatrix DensityMatrix::from_statevector(const StateVector& sv) {
  DensityMatrix dm(sv.num_qubits());
  const auto& a = sv.amplitudes();
  for (std::size_t r = 0; r < dm.dim_; ++r) {
    for (std::size_t c = 0; c < dm.dim_; ++c) {
      dm.rho_[r * dm.dim_ + c] = a[r] * std::conj(a[c]);
    }
  }
  return dm;
}

void DensityMatrix::reset() {
  std::fill(rho_.begin(), rho_.end(), cplx{0.0, 0.0});
  rho_[0] = 1.0;
}

void DensityMatrix::left_mul1(int q, const std::array<cplx, 4>& a,
                              std::vector<cplx>& buf) const {
  const std::size_t stride = std::size_t{1} << q;
  for (std::size_t r = 0; r < dim_; ++r) {
    if (r & stride) continue;
    const std::size_t r1 = r | stride;
    cplx* row0 = buf.data() + r * dim_;
    cplx* row1 = buf.data() + r1 * dim_;
    for (std::size_t c = 0; c < dim_; ++c) {
      const cplx v0 = row0[c];
      const cplx v1 = row1[c];
      row0[c] = a[0] * v0 + a[1] * v1;
      row1[c] = a[2] * v0 + a[3] * v1;
    }
  }
}

void DensityMatrix::right_mul1_dag(int q, const std::array<cplx, 4>& a,
                                   std::vector<cplx>& buf) const {
  // buf -> buf * A^dag ; (buf A^dag)(r,c) over column pairs.
  const std::size_t stride = std::size_t{1} << q;
  const cplx a00 = std::conj(a[0]);
  const cplx a01 = std::conj(a[1]);
  const cplx a10 = std::conj(a[2]);
  const cplx a11 = std::conj(a[3]);
  for (std::size_t r = 0; r < dim_; ++r) {
    cplx* row = buf.data() + r * dim_;
    for (std::size_t c = 0; c < dim_; ++c) {
      if (c & stride) continue;
      const std::size_t c1 = c | stride;
      const cplx v0 = row[c];
      const cplx v1 = row[c1];
      // (v A^dag)_c = v0 * conj(a00) + v1 * conj(a01)  etc.
      row[c] = v0 * a00 + v1 * a01;
      row[c1] = v0 * a10 + v1 * a11;
    }
  }
}

void DensityMatrix::left_mul2(int q0, int q1, const std::array<cplx, 16>& a,
                              std::vector<cplx>& buf) const {
  const std::size_t m0 = std::size_t{1} << q0;
  const std::size_t m1 = std::size_t{1} << q1;
  for (std::size_t r = 0; r < dim_; ++r) {
    if ((r & m0) || (r & m1)) continue;
    const std::size_t rr[4] = {r, r | m1, r | m0, r | m0 | m1};
    for (std::size_t c = 0; c < dim_; ++c) {
      cplx v[4];
      for (int k = 0; k < 4; ++k) v[k] = buf[rr[k] * dim_ + c];
      for (int k = 0; k < 4; ++k) {
        buf[rr[k] * dim_ + c] = a[static_cast<std::size_t>(k) * 4 + 0] * v[0] +
                                a[static_cast<std::size_t>(k) * 4 + 1] * v[1] +
                                a[static_cast<std::size_t>(k) * 4 + 2] * v[2] +
                                a[static_cast<std::size_t>(k) * 4 + 3] * v[3];
      }
    }
  }
}

void DensityMatrix::right_mul2_dag(int q0, int q1, const std::array<cplx, 16>& a,
                                   std::vector<cplx>& buf) const {
  const std::size_t m0 = std::size_t{1} << q0;
  const std::size_t m1 = std::size_t{1} << q1;
  std::array<cplx, 16> adag;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) adag[c * 4 + r] = std::conj(a[r * 4 + c]);
  }
  for (std::size_t r = 0; r < dim_; ++r) {
    cplx* row = buf.data() + r * dim_;
    for (std::size_t c = 0; c < dim_; ++c) {
      if ((c & m0) || (c & m1)) continue;
      const std::size_t cc[4] = {c, c | m1, c | m0, c | m0 | m1};
      cplx v[4];
      for (int k = 0; k < 4; ++k) v[k] = row[cc[k]];
      for (int k = 0; k < 4; ++k) {
        // (row * adag)_k = sum_j v_j * adag(j, k)
        cplx acc{0.0, 0.0};
        for (int j = 0; j < 4; ++j) {
          acc += v[j] * adag[static_cast<std::size_t>(j) * 4 + static_cast<std::size_t>(k)];
        }
        row[cc[k]] = acc;
      }
    }
  }
}

void DensityMatrix::apply1(int q, const std::array<cplx, 4>& u) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  left_mul1(q, u, rho_);
  right_mul1_dag(q, u, rho_);
}

void DensityMatrix::apply_diag1(int q, cplx d0, cplx d1) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  const std::size_t mq = std::size_t{1} << q;
  // U rho U^dag with U = diag(d0, d1): entry (r, c) scales by
  // d_{bit(r)} * conj(d_{bit(c)}).
  const double n0 = std::norm(d0);
  const double n1 = std::norm(d1);
  const cplx f01 = d0 * std::conj(d1);
  const cplx f10 = d1 * std::conj(d0);
  for (std::size_t r = 0; r < dim_; ++r) {
    if (r & mq) continue;
    const std::size_t r1 = r | mq;
    cplx* row0 = rho_.data() + r * dim_;
    cplx* row1 = rho_.data() + r1 * dim_;
    for (std::size_t c = 0; c < dim_; ++c) {
      if (c & mq) continue;
      const std::size_t c1 = c | mq;
      row0[c] *= n0;
      row0[c1] *= f01;
      row1[c] *= f10;
      row1[c1] *= n1;
    }
  }
}

void DensityMatrix::apply2(int q0, int q1, const std::array<cplx, 16>& u) {
  require(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 && q1 < num_qubits_ && q0 != q1,
          "invalid qubit pair");
  left_mul2(q0, q1, u, rho_);
  right_mul2_dag(q0, q1, u, rho_);
}

void DensityMatrix::apply_gate(const Gate& gate, double angle) {
  if (gate.kind == GateKind::RZ) {
    apply_diag1(gate.q0, std::exp(cplx{0.0, -angle / 2.0}),
                std::exp(cplx{0.0, angle / 2.0}));
    return;
  }
  const CMat m = gate_matrix(gate.kind, angle);
  if (gate.num_qubits() == 1) {
    apply1(gate.q0, as_array2(m));
  } else {
    apply2(gate.q0, gate.q1, as_array4(m));
  }
}

void DensityMatrix::run(const Circuit& circuit, std::span<const double> theta,
                        std::span<const double> x) {
  require(circuit.num_qubits() == num_qubits_, "circuit qubit count mismatch");
  for (const Gate& g : circuit.gates()) {
    apply_gate(g, circuit.resolve_angle(g, theta, x));
  }
}

void DensityMatrix::apply_kraus1(int q, std::span<const std::array<cplx, 4>> kraus) {
  require(!kraus.empty(), "empty Kraus set");
  // Scratch buffers persist across calls to keep the per-gate hot path
  // allocation-free (the swap below recycles rho_'s old storage as acc).
  thread_local std::vector<cplx> acc, tmp;
  acc.assign(rho_.size(), cplx{0.0, 0.0});
  for (const auto& k : kraus) {
    tmp = rho_;
    left_mul1(q, k, tmp);
    right_mul1_dag(q, k, tmp);
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += tmp[i];
  }
  rho_.swap(acc);
}

void DensityMatrix::apply_kraus2(int q0, int q1,
                                 std::span<const std::array<cplx, 16>> kraus) {
  require(!kraus.empty(), "empty Kraus set");
  thread_local std::vector<cplx> acc, tmp;
  acc.assign(rho_.size(), cplx{0.0, 0.0});
  for (const auto& k : kraus) {
    tmp = rho_;
    left_mul2(q0, q1, k, tmp);
    right_mul2_dag(q0, q1, k, tmp);
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += tmp[i];
  }
  rho_.swap(acc);
}

void DensityMatrix::apply_depolarizing1(int q, double p) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  require(p >= 0.0 && p <= 1.0, "depolarizing probability out of range");
  if (p == 0.0) return;
  const std::size_t mq = std::size_t{1} << q;
  const double keep = 1.0 - p;
  for (std::size_t r = 0; r < dim_; ++r) {
    if (r & mq) continue;
    const std::size_t r1 = r | mq;
    for (std::size_t c = 0; c < dim_; ++c) {
      if (c & mq) continue;
      const std::size_t c1 = c | mq;
      const cplx t = rho_[r * dim_ + c] + rho_[r1 * dim_ + c1];
      rho_[r * dim_ + c] = keep * rho_[r * dim_ + c] + 0.5 * p * t;
      rho_[r1 * dim_ + c1] = keep * rho_[r1 * dim_ + c1] + 0.5 * p * t;
      rho_[r * dim_ + c1] *= keep;
      rho_[r1 * dim_ + c] *= keep;
    }
  }
}

void DensityMatrix::apply_depolarizing2(int q0, int q1, double p) {
  require(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 && q1 < num_qubits_ && q0 != q1,
          "invalid qubit pair");
  require(p >= 0.0 && p <= 1.0, "depolarizing probability out of range");
  if (p == 0.0) return;
  const std::size_t m0 = std::size_t{1} << q0;
  const std::size_t m1 = std::size_t{1} << q1;
  const std::size_t offsets[4] = {0, m1, m0, m0 | m1};
  const double keep = 1.0 - p;

  for (std::size_t r = 0; r < dim_; ++r) {
    if ((r & m0) || (r & m1)) continue;
    for (std::size_t c = 0; c < dim_; ++c) {
      if ((c & m0) || (c & m1)) continue;
      cplx t{0.0, 0.0};
      for (std::size_t k = 0; k < 4; ++k) {
        t += rho_[(r | offsets[k]) * dim_ + (c | offsets[k])];
      }
      const cplx add = 0.25 * p * t;
      // Scale the full 4x4 sub-block, then add the partial-trace term on
      // its diagonal.
      for (std::size_t kr = 0; kr < 4; ++kr) {
        for (std::size_t kc = 0; kc < 4; ++kc) {
          rho_[(r | offsets[kr]) * dim_ + (c | offsets[kc])] *= keep;
        }
      }
      for (std::size_t k = 0; k < 4; ++k) {
        rho_[(r | offsets[k]) * dim_ + (c | offsets[k])] += add;
      }
    }
  }
}

void DensityMatrix::apply_thermal1(int q, double gamma, double lambda) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  require(gamma >= 0.0 && gamma <= 1.0 && lambda >= 0.0 && lambda <= 1.0,
          "thermal parameters out of range");
  if (gamma == 0.0 && lambda == 0.0) return;
  // Amplitude damping then pure dephasing, written out per 2x2 block of the
  // q subspace (rho00 = (r,c), rho01 = (r,c1), rho10 = (r1,c),
  // rho11 = (r1,c1)):
  //   rho00 += gamma * rho11          rho11 *= 1 - gamma
  //   rho01 *= s                      rho10 *= s
  // with s = sqrt((1-gamma)(1-lambda)).
  const std::size_t mq = std::size_t{1} << q;
  const double keep = 1.0 - gamma;
  const double s = std::sqrt(keep * (1.0 - lambda));
  for (std::size_t r = 0; r < dim_; ++r) {
    if (r & mq) continue;
    const std::size_t r1 = r | mq;
    cplx* row0 = rho_.data() + r * dim_;
    cplx* row1 = rho_.data() + r1 * dim_;
    for (std::size_t c = 0; c < dim_; ++c) {
      if (c & mq) continue;
      const std::size_t c1 = c | mq;
      row0[c] += gamma * row1[c1];
      row1[c1] *= keep;
      row0[c1] *= s;
      row1[c] *= s;
    }
  }
}

std::vector<double> DensityMatrix::diagonal_probabilities() const {
  std::vector<double> probs(dim_);
  for (std::size_t i = 0; i < dim_; ++i) probs[i] = rho_[i * dim_ + i].real();
  return probs;
}

double DensityMatrix::expectation_z(int q) const {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  const std::size_t mq = std::size_t{1} << q;
  double acc = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double p = rho_[i * dim_ + i].real();
    acc += (i & mq) ? -p : p;
  }
  return acc;
}

double DensityMatrix::trace_real() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) acc += rho_[i * dim_ + i].real();
  return acc;
}

double DensityMatrix::purity() const {
  // Tr(rho^2) = sum_{r,c} rho(r,c) * rho(c,r); for Hermitian rho this equals
  // sum |rho(r,c)|^2.
  double acc = 0.0;
  for (const cplx& v : rho_) acc += std::norm(v);
  return acc;
}

}  // namespace qucad
