#pragma once

#include <array>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/statevector.hpp"

namespace qucad {

/// Exact mixed-state simulator: rho is a dim x dim row-major complex matrix.
/// Unitary gates map rho -> U rho U^dag; Kraus channels map
/// rho -> sum_k K_k rho K_k^dag. Same qubit-index conventions as StateVector.
class DensityMatrix {
 public:
  explicit DensityMatrix(int num_qubits);

  static DensityMatrix from_statevector(const StateVector& sv);

  int num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return dim_; }
  const std::vector<cplx>& data() const { return rho_; }

  void reset();

  /// rho -> U rho U^dag for a single-qubit U (row-major 2x2).
  void apply1(int q, const std::array<cplx, 4>& u);

  /// rho -> U rho U^dag for diagonal U = diag(d0, d1) on qubit q (RZ and
  /// other phase gates): every entry just picks up a phase factor, one pass.
  void apply_diag1(int q, cplx d0, cplx d1);

  /// rho -> U rho U^dag for a two-qubit U (row-major 4x4, local index
  /// 2*bit(q0)+bit(q1)).
  void apply2(int q0, int q1, const std::array<cplx, 16>& u);

  void apply_gate(const Gate& gate, double angle);

  /// Runs a fully bound circuit (no noise).
  void run(const Circuit& circuit, std::span<const double> theta = {},
           std::span<const double> x = {});

  /// rho -> sum_k K_k rho K_k^dag for single-qubit Kraus operators.
  void apply_kraus1(int q, std::span<const std::array<cplx, 4>> kraus);

  /// rho -> sum_k K_k rho K_k^dag for two-qubit Kraus operators.
  void apply_kraus2(int q0, int q1, std::span<const std::array<cplx, 16>> kraus);

  /// Closed-form depolarizing channel on one qubit:
  /// rho -> (1-p) rho + p * Tr_q(rho) (x) I/2. O(dim^2), independent of
  /// Kraus rank — the hot path for calibrated gate errors.
  void apply_depolarizing1(int q, double p);

  /// Closed-form two-qubit depolarizing:
  /// rho -> (1-p) rho + p * Tr_{q0,q1}(rho) (x) I/4.
  void apply_depolarizing2(int q0, int q1, double p);

  /// Closed-form thermal relaxation on one qubit: amplitude damping `gamma`
  /// composed with pure dephasing `lambda` (the ThermalChannel convention).
  /// Single pass over rho — the hot path for calibrated gate noise, ~10x
  /// cheaper than the equivalent 3-operator Kraus application.
  void apply_thermal1(int q, double gamma, double lambda);

  /// Diagonal of rho (computational-basis probabilities).
  std::vector<double> diagonal_probabilities() const;

  double expectation_z(int q) const;

  /// Tr(rho); 1 for any CPTP evolution from a normalized state.
  double trace_real() const;

  /// Tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state.
  double purity() const;

 private:
  // Left-multiplication helpers operating on the raw buffer.
  void left_mul1(int q, const std::array<cplx, 4>& a, std::vector<cplx>& buf) const;
  void right_mul1_dag(int q, const std::array<cplx, 4>& a,
                      std::vector<cplx>& buf) const;
  void left_mul2(int q0, int q1, const std::array<cplx, 16>& a,
                 std::vector<cplx>& buf) const;
  void right_mul2_dag(int q0, int q1, const std::array<cplx, 16>& a,
                      std::vector<cplx>& buf) const;

  int num_qubits_;
  std::size_t dim_;
  std::vector<cplx> rho_;
};

}  // namespace qucad
