#pragma once

#include <array>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "linalg/matrix.hpp"

namespace qucad {

/// Pure-state simulator. Qubit k corresponds to bit k of the amplitude
/// index (qubit 0 = least significant bit). Two-qubit matrices use the
/// convention local_index = 2*bit(q0) + bit(q1), matching the 4x4 gate
/// factories in linalg/gates.hpp (q0 = control).
class StateVector {
 public:
  explicit StateVector(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return amps_.size(); }

  const std::vector<cplx>& amplitudes() const { return amps_; }
  std::vector<cplx>& amplitudes() { return amps_; }

  /// Resets to |0...0>.
  void reset();

  /// Sets a computational basis state.
  void set_basis_state(std::size_t index);

  /// Applies a 2x2 matrix (row-major a00,a01,a10,a11) to qubit q.
  void apply1(int q, const std::array<cplx, 4>& m);

  /// Applies a 4x4 matrix (row-major) to the ordered pair (q0, q1).
  void apply2(int q0, int q1, const std::array<cplx, 16>& m);

  /// Applies a diagonal single-qubit unitary diag(d0, d1) to qubit q — one
  /// multiply per amplitude, no pairing pass. The RZ/virtual-Z fast path of
  /// the compiled statevector engine.
  void apply_diag1(int q, cplx d0, cplx d1);

  /// Applies CX as an index permutation (amplitude swaps) instead of a 4x4
  /// multiply pass.
  void apply_cx(int control, int target);

  /// Applies a gate with an explicit angle (ignored for fixed gates).
  void apply_gate(const Gate& gate, double angle);

  /// Runs a circuit, resolving symbolic parameters against theta / x.
  void run(const Circuit& circuit, std::span<const double> theta = {},
           std::span<const double> x = {});

  /// <Z_q> of the current state.
  double expectation_z(int q) const;

  /// |amp|^2 for every basis state.
  std::vector<double> probabilities() const;

  double norm() const;

 private:
  int num_qubits_;
  std::vector<cplx> amps_;
};

/// Converts a CMat (2x2) to the flat array form used by apply1.
std::array<cplx, 4> as_array2(const CMat& m);

/// Converts a CMat (4x4) to the flat array form used by apply2.
std::array<cplx, 16> as_array4(const CMat& m);

/// Cached flat-array forms of the fixed physical basis gates, shared by the
/// reference executor and the compiled op-stream so both paths apply
/// byte-identical matrices.
const std::array<cplx, 4>& sx_as_array2();
const std::array<cplx, 4>& x_as_array2();
const std::array<cplx, 16>& cx_as_array4();

}  // namespace qucad
