#include "sim/statevector.hpp"

#include <cmath>

#include "common/require.hpp"

namespace qucad {

std::array<cplx, 4> as_array2(const CMat& m) {
  require(m.rows() == 2 && m.cols() == 2, "as_array2 expects 2x2");
  return {m(0, 0), m(0, 1), m(1, 0), m(1, 1)};
}

std::array<cplx, 16> as_array4(const CMat& m) {
  require(m.rows() == 4 && m.cols() == 4, "as_array4 expects 4x4");
  std::array<cplx, 16> out;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) out[r * 4 + c] = m(r, c);
  }
  return out;
}

const std::array<cplx, 4>& sx_as_array2() {
  static const std::array<cplx, 4> m = as_array2(gates::SX());
  return m;
}

const std::array<cplx, 4>& x_as_array2() {
  static const std::array<cplx, 4> m = as_array2(gates::X());
  return m;
}

const std::array<cplx, 16>& cx_as_array4() {
  static const std::array<cplx, 16> m = as_array4(gates::CX());
  return m;
}

StateVector::StateVector(int num_qubits)
    : num_qubits_(num_qubits),
      amps_(std::size_t{1} << num_qubits, cplx{0.0, 0.0}) {
  require(num_qubits > 0 && num_qubits <= 20, "qubit count out of range");
  amps_[0] = 1.0;
}

void StateVector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx{0.0, 0.0});
  amps_[0] = 1.0;
}

void StateVector::set_basis_state(std::size_t index) {
  require(index < amps_.size(), "basis state index out of range");
  std::fill(amps_.begin(), amps_.end(), cplx{0.0, 0.0});
  amps_[index] = 1.0;
}

void StateVector::apply1(int q, const std::array<cplx, 4>& m) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  const std::size_t stride = std::size_t{1} << q;
  const std::size_t dim = amps_.size();
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    for (std::size_t offset = 0; offset < stride; ++offset) {
      const std::size_t i0 = base + offset;
      const std::size_t i1 = i0 + stride;
      const cplx a0 = amps_[i0];
      const cplx a1 = amps_[i1];
      amps_[i0] = m[0] * a0 + m[1] * a1;
      amps_[i1] = m[2] * a0 + m[3] * a1;
    }
  }
}

void StateVector::apply2(int q0, int q1, const std::array<cplx, 16>& m) {
  require(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 && q1 < num_qubits_ && q0 != q1,
          "invalid qubit pair");
  const std::size_t mask0 = std::size_t{1} << q0;
  const std::size_t mask1 = std::size_t{1} << q1;
  const std::size_t dim = amps_.size();
  for (std::size_t i = 0; i < dim; ++i) {
    if ((i & mask0) || (i & mask1)) continue;  // visit each 4-tuple once
    const std::size_t i00 = i;
    const std::size_t i01 = i | mask1;
    const std::size_t i10 = i | mask0;
    const std::size_t i11 = i | mask0 | mask1;
    const cplx a00 = amps_[i00];
    const cplx a01 = amps_[i01];
    const cplx a10 = amps_[i10];
    const cplx a11 = amps_[i11];
    // local basis order: |q0 q1> in {00, 01, 10, 11}
    amps_[i00] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
    amps_[i01] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
    amps_[i10] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
    amps_[i11] = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
  }
}

void StateVector::apply_diag1(int q, cplx d0, cplx d1) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  const std::size_t mq = std::size_t{1} << q;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    amps_[i] *= (i & mq) ? d1 : d0;
  }
}

void StateVector::apply_cx(int control, int target) {
  require(control >= 0 && control < num_qubits_ && target >= 0 &&
              target < num_qubits_ && control != target,
          "invalid qubit pair");
  const std::size_t mc = std::size_t{1} << control;
  const std::size_t mt = std::size_t{1} << target;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    if ((i & mc) && !(i & mt)) std::swap(amps_[i], amps_[i | mt]);
  }
}

void StateVector::apply_gate(const Gate& gate, double angle) {
  // Fast paths for the most common structured gates. They must enforce the
  // same qubit-range preconditions as apply1/apply2: an out-of-range shift
  // would otherwise index (and corrupt) memory past the amplitude buffer
  // instead of throwing.
  switch (gate.kind) {
    case GateKind::CX: {
      require(gate.q0 >= 0 && gate.q0 < num_qubits_ && gate.q1 >= 0 &&
                  gate.q1 < num_qubits_ && gate.q0 != gate.q1,
              "invalid qubit pair");
      const std::size_t mc = std::size_t{1} << gate.q0;
      const std::size_t mt = std::size_t{1} << gate.q1;
      for (std::size_t i = 0; i < amps_.size(); ++i) {
        if ((i & mc) && !(i & mt)) std::swap(amps_[i], amps_[i | mt]);
      }
      return;
    }
    case GateKind::RZ: {
      require(gate.q0 >= 0 && gate.q0 < num_qubits_,
              "qubit index out of range");
      const cplx em = std::exp(cplx{0.0, -angle / 2.0});
      const cplx ep = std::exp(cplx{0.0, angle / 2.0});
      const std::size_t mq = std::size_t{1} << gate.q0;
      for (std::size_t i = 0; i < amps_.size(); ++i) {
        amps_[i] *= (i & mq) ? ep : em;
      }
      return;
    }
    default:
      break;
  }
  const CMat m = gate_matrix(gate.kind, angle);
  if (gate.num_qubits() == 1) {
    apply1(gate.q0, as_array2(m));
  } else {
    apply2(gate.q0, gate.q1, as_array4(m));
  }
}

void StateVector::run(const Circuit& circuit, std::span<const double> theta,
                      std::span<const double> x) {
  require(circuit.num_qubits() == num_qubits_,
          "circuit qubit count mismatch");
  for (const Gate& g : circuit.gates()) {
    apply_gate(g, circuit.resolve_angle(g, theta, x));
  }
}

double StateVector::expectation_z(int q) const {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  const std::size_t mq = std::size_t{1} << q;
  double acc = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    const double p = std::norm(amps_[i]);
    acc += (i & mq) ? -p : p;
  }
  return acc;
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> probs(amps_.size());
  for (std::size_t i = 0; i < amps_.size(); ++i) probs[i] = std::norm(amps_[i]);
  return probs;
}

double StateVector::norm() const { return qucad::norm(amps_); }

}  // namespace qucad
