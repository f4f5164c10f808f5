// Fuzz target for the transpiler (transpile/transpiler.hpp): the input
// bytes drive a bounded circuit/device/readout specification, including
// deliberately hostile qubit indices and readout sets.
//
// Contract under test: transpile_model either rejects bad input with
// PreconditionError (the documented research-API boundary) or produces a
// routed model whose invariants hold — the final mapping is an injective
// logical->physical assignment, every routed two-qubit gate acts on a
// coupled pair, parameter associations point at real parameters on real
// qubits, and lowering binds a positional readout consistent with the
// routing. Anything else (out-of-bounds access, a silently corrupt
// mapping) traps.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/require.hpp"
#include "noise/calibration.hpp"
#include "transpile/coupling.hpp"
#include "transpile/transpiler.hpp"

namespace {

void check(bool condition) {
  if (!condition) __builtin_trap();
}

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  std::uint8_t u8() { return pos < size ? data[pos++] : 0; }
  double angle() { return (static_cast<double>(u8()) / 255.0 - 0.5) * 6.3; }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Reader in{data, size};

  qucad::CouplingMap coupling = qucad::CouplingMap::belem();
  switch (in.u8() % 4) {
    case 0: break;
    case 1: coupling = qucad::CouplingMap::jakarta(); break;
    case 2: coupling = qucad::CouplingMap::line(2 + in.u8() % 7); break;
    default: coupling = qucad::CouplingMap::ring(3 + in.u8() % 6); break;
  }
  const int physical = coupling.num_qubits();
  const int logical = 1 + in.u8() % physical;

  try {
    qucad::Circuit circuit(logical);
    const int gates = in.u8() % 48;
    for (int g = 0; g < gates; ++g) {
      // Mostly in-range qubits so routing runs deep; every eighth gate may
      // carry a hostile index to probe the rejection path.
      const bool hostile = in.u8() % 8 == 0;
      const int span = hostile ? logical + 2 : logical;
      const int q0 = in.u8() % span;
      int q1 = logical > 1 ? in.u8() % span : q0;
      if (q1 == q0) q1 = (q0 + 1) % span;
      const qucad::ParamRef param = in.u8() % 3 == 0
                                        ? qucad::trainable(in.u8() % 12)
                                        : qucad::ParamRef{};
      switch (in.u8() % 10) {
        case 0:
          param.is_symbolic() ? circuit.rx(q0, param)
                              : circuit.rx(q0, in.angle());
          break;
        case 1:
          param.is_symbolic() ? circuit.ry(q0, param)
                              : circuit.ry(q0, in.angle());
          break;
        case 2:
          param.is_symbolic() ? circuit.rz(q0, param)
                              : circuit.rz(q0, in.angle());
          break;
        case 3: circuit.h(q0); break;
        case 4: circuit.sx(q0); break;
        case 5: circuit.x(q0); break;
        case 6:
          if (logical > 1) circuit.cx(q0, q1);
          break;
        case 7:
          if (logical > 1) circuit.swap(q0, q1);
          break;
        case 8:
          if (logical > 1) {
            param.is_symbolic() ? circuit.crx(q0, q1, param)
                                : circuit.crx(q0, q1, in.angle());
          }
          break;
        default:
          if (logical > 1) {
            param.is_symbolic() ? circuit.crz(q0, q1, param)
                                : circuit.crz(q0, q1, in.angle());
          }
          break;
      }
    }

    std::vector<int> readout;
    const int readout_count = 1 + in.u8() % logical;
    const int start = in.u8() % logical;
    for (int k = 0; k < readout_count; ++k) {
      readout.push_back((start + k) % logical);
    }
    if (in.u8() % 8 == 0) readout.push_back(logical + 1);  // hostile slot

    qucad::Calibration calibration(physical, coupling.edges());
    const qucad::Calibration* calibration_ptr = nullptr;
    // A calibration selects the noise-aware placement, which scores
    // injective layouts exhaustively; keep that path to small devices so
    // iterations stay fast.
    if (physical <= 5 && logical <= 4 && in.u8() % 2 == 0) {
      calibration_ptr = &calibration;
    }

    const qucad::TranspiledModel model =
        qucad::transpile_model(circuit, readout, coupling, calibration_ptr);

    check(model.routed.circuit.num_qubits() == physical);
    check(model.readout_logical == readout);

    const std::vector<int>& mapping = model.routed.final_mapping;
    check(mapping.size() == static_cast<std::size_t>(logical));
    std::vector<bool> used(static_cast<std::size_t>(physical), false);
    for (int home : mapping) {
      check(home >= 0 && home < physical);
      check(!used[static_cast<std::size_t>(home)]);
      used[static_cast<std::size_t>(home)] = true;
    }

    for (const qucad::Gate& gate : model.routed.circuit.gates()) {
      check(gate.q0 >= 0 && gate.q0 < physical);
      if (gate.q1 >= 0) {
        check(gate.q1 < physical);
        check(gate.q0 != gate.q1);
        check(coupling.adjacent(gate.q0, gate.q1));
      }
    }

    const int trainable = model.routed.circuit.num_trainable();
    for (const qucad::GateAssociation& assoc : model.associations) {
      if (assoc.param_index < 0) continue;  // slot unused by any gate
      check(assoc.param_index < trainable);
      check(assoc.q0 >= 0 && assoc.q0 < physical);
      check(assoc.q1 < physical);
    }

    const std::vector<double> theta(static_cast<std::size_t>(trainable), 0.0);
    const qucad::PhysicalCircuit lowered = qucad::lower_model(model, theta);
    check(lowered.readout_physical().size() == readout.size());
    for (std::size_t k = 0; k < readout.size(); ++k) {
      check(lowered.readout_physical()[k] ==
            model.readout_physical(readout[k]));
    }
  } catch (const qucad::PreconditionError&) {
    // Rejecting a malformed spec loudly is the contract, not a finding.
  }
  return 0;
}
