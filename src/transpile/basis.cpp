#include "transpile/basis.hpp"

#include <cmath>

#include "common/require.hpp"

namespace qucad {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kTwoPi = 2.0 * kPi;
/// Angles within kTol of a breakpoint take the shortened decomposition.
constexpr double kTol = 1e-9;

/// Angle that is a literal or affine in one symbolic slot (an input-encoding
/// slot or, with BasisOptions::keep_trainable_symbolic, a trainable slot).
struct AngleExpr {
  double offset = 0.0;
  int input_index = -1;
  double scale = 1.0;  // scale of whichever symbol is referenced
  int theta_index = -1;

  bool symbolic() const { return input_index >= 0 || theta_index >= 0; }

  AngleExpr operator+(double delta) const {
    return AngleExpr{offset + delta, input_index, scale, theta_index};
  }
  AngleExpr operator*(double factor) const {
    return AngleExpr{offset * factor, input_index, scale * factor, theta_index};
  }
  AngleExpr negated() const { return *this * -1.0; }
};

enum class Axis1Q { X, Y, Z };

void emit_rz(PhysicalCircuit& out, int q, const AngleExpr& a) {
  if (!a.symbolic()) {
    const double t = std::fmod(std::fmod(a.offset, kTwoPi) + kTwoPi, kTwoPi);
    if (t < kTol || kTwoPi - t < kTol) return;  // identity up to global phase
  }
  PhysOp op{PhysOpKind::RZ, q, -1, a.offset, a.input_index, 1.0, a.theta_index,
            1.0};
  (a.input_index >= 0 ? op.input_scale : op.theta_scale) = a.scale;
  out.push(op);
}

void emit_sx(PhysicalCircuit& out, int q) {
  out.push(PhysOp{PhysOpKind::SX, q, -1, 0.0, -1, 1.0});
}

void emit_x(PhysicalCircuit& out, int q) {
  out.push(PhysOp{PhysOpKind::X, q, -1, 0.0, -1, 1.0});
}

void emit_cx(PhysicalCircuit& out, int control, int target) {
  out.push(PhysOp{PhysOpKind::CX, control, target, 0.0, -1, 1.0});
}

bool near(double a, double b) { return std::abs(a - b) < kTol; }

/// Emits R_axis(angle) on qubit q using the shortest pulse sequence.
/// Generic fallback is the ZSX Euler identity
///   U3(t, phi, lam) ~ RZ(phi+pi) . SX . RZ(t+pi) . SX . RZ(lam)
/// (matrix order; emission below is circuit order, rightmost first), with
/// RY(t) = U3(t, 0, 0) and RX(t) = U3(t, -pi/2, pi/2).
void emit_rotation(PhysicalCircuit& out, int q, Axis1Q axis,
                   const AngleExpr& a) {
  if (axis == Axis1Q::Z) {
    emit_rz(out, q, a);
    return;
  }

  if (!a.symbolic()) {
    // Normalize to [0, 2pi) — R(t + 2pi) = -R(t), a global phase.
    const double t = std::fmod(std::fmod(a.offset, kTwoPi) + kTwoPi, kTwoPi);
    if (t < kTol || near(t, kTwoPi)) return;
    if (near(t, kPi)) {
      if (axis == Axis1Q::X) {
        emit_x(out, q);  // RX(pi) ~ X
      } else {
        emit_x(out, q);  // RY(pi) ~ RZ(pi) . X (matrix order)
        emit_rz(out, q, AngleExpr{kPi});
      }
      return;
    }
    if (near(t, kPi / 2.0)) {
      if (axis == Axis1Q::X) {
        emit_sx(out, q);  // RX(pi/2) ~ SX
      } else {
        // RY(pi/2) ~ RZ(pi/2) . SX . RZ(-pi/2) (matrix order)
        emit_rz(out, q, AngleExpr{-kPi / 2.0});
        emit_sx(out, q);
        emit_rz(out, q, AngleExpr{kPi / 2.0});
      }
      return;
    }
    if (near(t, 3.0 * kPi / 2.0)) {
      if (axis == Axis1Q::X) {
        // RX(-pi/2) ~ RZ(pi) . SX . RZ(pi)
        emit_rz(out, q, AngleExpr{kPi});
        emit_sx(out, q);
        emit_rz(out, q, AngleExpr{kPi});
      } else {
        // RY(-pi/2) ~ RZ(3pi/2) . SX . RZ(pi/2) (matrix order)
        emit_rz(out, q, AngleExpr{kPi / 2.0});
        emit_sx(out, q);
        emit_rz(out, q, AngleExpr{3.0 * kPi / 2.0});
      }
      return;
    }
  }

  // Generic two-pulse ZSX sequence (circuit order: lam, SX, t+pi, SX, phi+pi).
  const double phi = axis == Axis1Q::X ? -kPi / 2.0 : 0.0;
  const double lam = axis == Axis1Q::X ? kPi / 2.0 : 0.0;
  emit_rz(out, q, AngleExpr{lam});
  emit_sx(out, q);
  emit_rz(out, q, a + kPi);
  emit_sx(out, q);
  emit_rz(out, q, AngleExpr{phi + kPi});
}

/// Controlled rotation via the two-CX ABC decomposition; `axis` is the
/// target rotation axis. Circuit order:
///   R(t/2) on target, CX, R(-t/2) on target, CX          (Y and Z axes)
/// with an RZ basis-change sandwich for the X axis.
void emit_controlled_rotation(PhysicalCircuit& out, int control, int target,
                              Axis1Q axis, const AngleExpr& a) {
  if (!a.symbolic()) {
    // CR(t) is periodic in 4pi; CR(0) = I, CR(2pi) = Z on the control.
    const double t4 =
        std::fmod(std::fmod(a.offset, 2.0 * kTwoPi) + 2.0 * kTwoPi, 2.0 * kTwoPi);
    if (t4 < kTol || near(t4, 2.0 * kTwoPi)) return;
    if (near(t4, kTwoPi)) {
      emit_rz(out, control, AngleExpr{kPi});
      return;
    }
  }

  const Axis1Q half_axis = axis == Axis1Q::Z ? Axis1Q::Z : Axis1Q::Y;
  if (axis == Axis1Q::X) {
    // CRX(t) = (I (x) RZ(-pi/2)) CRY(t) (I (x) RZ(pi/2)) in matrix order.
    emit_rz(out, target, AngleExpr{kPi / 2.0});
  }
  emit_rotation(out, target, half_axis, a * 0.5);
  emit_cx(out, control, target);
  emit_rotation(out, target, half_axis, (a * 0.5).negated());
  emit_cx(out, control, target);
  if (axis == Axis1Q::X) {
    emit_rz(out, target, AngleExpr{-kPi / 2.0});
  }
}

/// Fixed single-qubit gates expressed as U3 triples (theta, phi, lambda).
void emit_u3(PhysicalCircuit& out, int q, double theta, double phi,
             double lam) {
  emit_rz(out, q, AngleExpr{lam});
  emit_sx(out, q);
  emit_rz(out, q, AngleExpr{theta + kPi});
  emit_sx(out, q);
  emit_rz(out, q, AngleExpr{phi + kPi});
}

}  // namespace

PhysicalCircuit lower_to_basis(const RoutedCircuit& routed,
                               std::span<const double> theta,
                               const BasisOptions& options) {
  PhysicalCircuit out(routed.circuit.num_qubits());

  for (const Gate& g : routed.circuit.gates()) {
    require(options.keep_trainable_symbolic ||
                g.param.kind != ParamRef::Kind::Trainable ||
                static_cast<std::size_t>(g.param.index) < theta.size(),
            "lower_to_basis requires all trainable parameters bound");

    AngleExpr angle;
    if (g.param.kind == ParamRef::Kind::Input) {
      angle = AngleExpr{0.0, g.param.index, 1.0};
    } else if (g.param.kind == ParamRef::Kind::Trainable) {
      angle = options.keep_trainable_symbolic
                  ? AngleExpr{0.0, -1, 1.0, g.param.index}
                  : AngleExpr{theta[static_cast<std::size_t>(g.param.index)]};
    } else {
      angle = AngleExpr{g.value};
    }

    switch (g.kind) {
      case GateKind::RX:
        emit_rotation(out, g.q0, Axis1Q::X, angle);
        break;
      case GateKind::RY:
        emit_rotation(out, g.q0, Axis1Q::Y, angle);
        break;
      case GateKind::RZ:
        emit_rotation(out, g.q0, Axis1Q::Z, angle);
        break;
      case GateKind::CRX:
        emit_controlled_rotation(out, g.q0, g.q1, Axis1Q::X, angle);
        break;
      case GateKind::CRY:
        emit_controlled_rotation(out, g.q0, g.q1, Axis1Q::Y, angle);
        break;
      case GateKind::CRZ:
        emit_controlled_rotation(out, g.q0, g.q1, Axis1Q::Z, angle);
        break;
      case GateKind::X:
        emit_x(out, g.q0);
        break;
      case GateKind::Y:
        emit_u3(out, g.q0, kPi, kPi / 2.0, kPi / 2.0);
        break;
      case GateKind::Z:
        emit_rz(out, g.q0, AngleExpr{kPi});
        break;
      case GateKind::SX:
        emit_sx(out, g.q0);
        break;
      case GateKind::SXdg:
        emit_rz(out, g.q0, AngleExpr{kPi});
        emit_sx(out, g.q0);
        emit_rz(out, g.q0, AngleExpr{kPi});
        break;
      case GateKind::H:
        emit_u3(out, g.q0, kPi / 2.0, 0.0, kPi);
        break;
      case GateKind::CX:
        emit_cx(out, g.q0, g.q1);
        break;
      case GateKind::CZ:
        emit_u3(out, g.q1, kPi / 2.0, 0.0, kPi);
        emit_cx(out, g.q0, g.q1);
        emit_u3(out, g.q1, kPi / 2.0, 0.0, kPi);
        break;
      case GateKind::Swap:
        emit_cx(out, g.q0, g.q1);
        emit_cx(out, g.q1, g.q0);
        emit_cx(out, g.q0, g.q1);
        break;
    }
  }

  // Default readout: every logical qubit is a readout slot, mapped through
  // the routing permutation (slot l = logical qubit l). lower_model narrows
  // this to the model's declared readout qubits, in class order.
  out.readout_physical().clear();
  for (std::size_t l = 0; l < routed.final_mapping.size(); ++l) {
    out.readout_physical().push_back(routed.final_mapping[l]);
  }
  return out;
}

}  // namespace qucad
