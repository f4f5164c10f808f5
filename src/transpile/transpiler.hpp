#pragma once

#include <optional>
#include <span>
#include <vector>

#include "noise/calibration.hpp"
#include "transpile/basis.hpp"
#include "transpile/coupling.hpp"
#include "transpile/executor.hpp"
#include "transpile/layout.hpp"
#include "transpile/router.hpp"

namespace qucad {

/// Physical location of the gate carrying trainable parameter `param_index`:
/// the A(g) association the paper's noise-aware compression uses to look up
/// the calibrated noise of each compressible gate.
struct GateAssociation {
  int param_index = -1;
  int q0 = -1;
  int q1 = -1;  // -1 for single-qubit gates

  bool is_two_qubit() const { return q1 >= 0; }
};

/// Routed form of a QNN model on a specific device: fixed layout + SWAP
/// schedule (structure is parameter-independent), the logical->physical
/// readout map, and the parameter/qubit associations.
struct TranspiledModel {
  RoutedCircuit routed;
  std::vector<GateAssociation> associations;  // one per trainable parameter
  /// Logical readout qubits, in class order, as passed to transpile_model.
  /// lower_model maps these through the final routing permutation so the
  /// lowered circuit's readout_physical() is positional: slot k is class k.
  std::vector<int> readout_logical;

  int num_physical_qubits() const { return routed.circuit.num_qubits(); }

  /// Physical qubit hosting logical qubit l at measurement time.
  int readout_physical(int logical) const {
    return routed.final_mapping[static_cast<std::size_t>(logical)];
  }
};

/// Routes a logical model circuit onto the device. The initial placement is
/// noise_aware_layout under `calibration` when one is given, trivial_layout
/// otherwise.
TranspiledModel transpile_model(const Circuit& logical,
                                const std::vector<int>& readout_logical,
                                const CouplingMap& coupling,
                                const Calibration* calibration = nullptr);

/// Binds trainable parameters and lowers to the physical basis with the
/// compression-aware peephole. Input-encoding parameters stay symbolic.
PhysicalCircuit lower_model(const TranspiledModel& model,
                            std::span<const double> theta);

}  // namespace qucad
