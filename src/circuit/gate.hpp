#pragma once

#include <string>

#include "linalg/gates.hpp"
#include "linalg/matrix.hpp"

namespace qucad {

/// Gate vocabulary. Rotation gates may carry a symbolic parameter; the rest
/// are fixed. CX/SX/X/RZ form the physical basis the transpiler lowers to.
enum class GateKind {
  // Parameterized rotations.
  RX, RY, RZ,
  CRX, CRY, CRZ,
  // Fixed single-qubit gates.
  X, Y, Z, SX, SXdg, H,
  // Fixed two-qubit gates.
  CX, CZ, Swap,
};

/// Symbolic reference to a parameter slot.
///  - Trainable: model weight theta[index], updated by optimizers.
///  - Input: data-encoding angle x[index], bound per sample.
///  - None: a literal angle stored on the gate.
struct ParamRef {
  enum class Kind { None, Trainable, Input };
  Kind kind = Kind::None;
  int index = -1;

  bool is_symbolic() const { return kind != Kind::None; }
  bool operator==(const ParamRef&) const = default;
};

/// Creates a reference to trainable parameter slot `i`.
ParamRef trainable(int i);

/// Creates a reference to input (encoding) slot `i`.
ParamRef input(int i);

/// One gate instance in a circuit. q1 < 0 for single-qubit gates. For
/// two-qubit gates q0 is the control (CX/CR*) or the first operand (Swap/CZ).
struct Gate {
  GateKind kind = GateKind::RY;
  int q0 = 0;
  int q1 = -1;
  ParamRef param;
  double value = 0.0;  // literal angle when param.kind == None

  int num_qubits() const { return q1 < 0 ? 1 : 2; }
};

bool is_rotation(GateKind kind);
bool is_controlled_rotation(GateKind kind);
bool is_single_qubit_rotation(GateKind kind);
int gate_arity(GateKind kind);
std::string gate_name(GateKind kind);

/// Unitary matrix of a gate kind at a given angle (angle ignored for fixed
/// gates). 2x2 or 4x4 depending on arity.
CMat gate_matrix(GateKind kind, double angle);

}  // namespace qucad
