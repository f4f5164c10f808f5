#include "circuit/gate.hpp"

#include "common/require.hpp"

namespace qucad {

ParamRef trainable(int i) {
  require(i >= 0, "trainable index must be non-negative");
  return ParamRef{ParamRef::Kind::Trainable, i};
}

ParamRef input(int i) {
  require(i >= 0, "input index must be non-negative");
  return ParamRef{ParamRef::Kind::Input, i};
}

bool is_rotation(GateKind kind) {
  switch (kind) {
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::CRX:
    case GateKind::CRY:
    case GateKind::CRZ:
      return true;
    default:
      return false;
  }
}

bool is_controlled_rotation(GateKind kind) {
  return kind == GateKind::CRX || kind == GateKind::CRY || kind == GateKind::CRZ;
}

bool is_single_qubit_rotation(GateKind kind) {
  return kind == GateKind::RX || kind == GateKind::RY || kind == GateKind::RZ;
}

int gate_arity(GateKind kind) {
  switch (kind) {
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::SX:
    case GateKind::SXdg:
    case GateKind::H:
      return 1;
    default:
      return 2;
  }
}

std::string gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::RX: return "rx";
    case GateKind::RY: return "ry";
    case GateKind::RZ: return "rz";
    case GateKind::CRX: return "crx";
    case GateKind::CRY: return "cry";
    case GateKind::CRZ: return "crz";
    case GateKind::X: return "x";
    case GateKind::Y: return "y";
    case GateKind::Z: return "z";
    case GateKind::SX: return "sx";
    case GateKind::SXdg: return "sxdg";
    case GateKind::H: return "h";
    case GateKind::CX: return "cx";
    case GateKind::CZ: return "cz";
    case GateKind::Swap: return "swap";
  }
  return "?";
}

CMat gate_matrix(GateKind kind, double angle) {
  switch (kind) {
    case GateKind::RX: return gates::RX(angle);
    case GateKind::RY: return gates::RY(angle);
    case GateKind::RZ: return gates::RZ(angle);
    case GateKind::CRX: return gates::CRX(angle);
    case GateKind::CRY: return gates::CRY(angle);
    case GateKind::CRZ: return gates::CRZ(angle);
    case GateKind::X: return gates::X();
    case GateKind::Y: return gates::Y();
    case GateKind::Z: return gates::Z();
    case GateKind::SX: return gates::SX();
    case GateKind::SXdg: return gates::SXdg();
    case GateKind::H: return gates::H();
    case GateKind::CX: return gates::CX();
    case GateKind::CZ: return gates::CZ();
    case GateKind::Swap: return gates::SWAP();
  }
  require(false, "unknown gate kind");
  return CMat();
}

}  // namespace qucad
