#pragma once

#include <span>

#include "transpile/physical.hpp"
#include "transpile/router.hpp"

namespace qucad {

struct BasisOptions {
  /// Keep trainable parameters symbolic instead of binding them: each one
  /// becomes an affine RZ angle (theta_scale * theta[i] + offset), so the
  /// lowered circuit — and anything compiled from it — is shared across
  /// every optimizer step. `theta` is ignored in this mode, and the
  /// compression peephole cannot fire on trainable rotations (their values
  /// are unknown at lowering time), so the circuit is the generic-length
  /// decomposition.
  bool keep_trainable_symbolic = false;
};

/// Lowers a routed circuit to the {CX, RZ, SX, X} basis. Trainable
/// parameters must be bound via `theta` (unless
/// BasisOptions::keep_trainable_symbolic is set); input-encoding parameters
/// stay symbolic (they become affine RZ angles replayed per sample).
///
/// This pass is where QNN compression pays off physically — it is the
/// "reduction of physical circuit length" of the paper's Motivation 1:
///   - R(0)                 -> nothing            (2 pulses saved)
///   - R(pi)   on X/Y axis  -> one X pulse        (1 pulse saved)
///   - R(pi/2), R(3pi/2)    -> one SX pulse       (1 pulse saved)
///   - any RZ               -> virtual, free
///   - CR*(0)               -> nothing            (2 CX + pulses saved)
///   - CR*(2pi)             -> virtual RZ(pi) on the control
///   - generic R            -> RZ SX RZ SX RZ (ZSX Euler decomposition)
///   - generic CR*          -> 2 CX + two half-angle rotations
PhysicalCircuit lower_to_basis(const RoutedCircuit& routed,
                               std::span<const double> theta,
                               const BasisOptions& options = {});

}  // namespace qucad
