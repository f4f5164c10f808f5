#include "transpile/transpiler.hpp"

#include "common/require.hpp"

namespace qucad {

TranspiledModel transpile_model(const Circuit& logical,
                                const std::vector<int>& readout_logical,
                                const CouplingMap& coupling,
                                const Calibration* calibration) {
  require(logical.num_qubits() <= coupling.num_qubits(),
          "circuit does not fit on device");
  // Validate before the layout search: noise_aware_layout indexes candidate
  // layouts by these readout qubits, so a hostile entry must be rejected
  // here, not discovered as an out-of-bounds read inside layout_cost.
  for (int l : readout_logical) {
    require(l >= 0 && l < logical.num_qubits(), "readout qubit out of range");
  }

  const Layout layout =
      calibration != nullptr
          ? noise_aware_layout(logical, readout_logical, coupling, *calibration)
          : trivial_layout(logical.num_qubits());

  TranspiledModel model;
  model.routed = route_circuit(logical, coupling, layout);
  model.readout_logical = readout_logical;

  // First physical occurrence of each trainable parameter. Parameters are
  // expected to appear on exactly one gate in QNN ansatze; if shared, the
  // first occurrence defines the association.
  model.associations.assign(
      static_cast<std::size_t>(logical.num_trainable()), GateAssociation{});
  for (const Gate& g : model.routed.circuit.gates()) {
    if (g.param.kind != ParamRef::Kind::Trainable) continue;
    GateAssociation& assoc =
        model.associations[static_cast<std::size_t>(g.param.index)];
    if (assoc.param_index >= 0) continue;
    assoc.param_index = g.param.index;
    assoc.q0 = g.q0;
    assoc.q1 = g.num_qubits() == 2 ? g.q1 : -1;
  }
  return model;
}

PhysicalCircuit lower_model(const TranspiledModel& model,
                            std::span<const double> theta) {
  PhysicalCircuit phys = lower_to_basis(model.routed, theta);
  // lower_to_basis defaults readout_physical() to the full logical->physical
  // mapping (every logical qubit is a readout slot). When the model names
  // explicit readout qubits, restrict to those, positionally: slot k of the
  // lowered circuit is class k of the model. Executor run_z output is
  // ordered by these slots, not indexed by qubit id.
  if (!model.readout_logical.empty()) {
    phys.readout_physical().clear();
    for (int l : model.readout_logical) {
      phys.readout_physical().push_back(model.readout_physical(l));
    }
  }
  return phys;
}

}  // namespace qucad
