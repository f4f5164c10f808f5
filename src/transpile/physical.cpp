#include "transpile/physical.hpp"

#include <algorithm>
#include <sstream>

#include "common/require.hpp"

namespace qucad {

double PhysOp::resolve_angle(std::span<const double> x,
                             std::span<const double> theta) const {
  if (input_index >= 0) {
    require(static_cast<std::size_t>(input_index) < x.size(),
            "input vector too short for physical op");
    return input_scale * x[static_cast<std::size_t>(input_index)] + angle;
  }
  if (theta_index >= 0) {
    require(static_cast<std::size_t>(theta_index) < theta.size(),
            "theta vector too short for physical op");
    return theta_scale * theta[static_cast<std::size_t>(theta_index)] + angle;
  }
  return angle;
}

void PhysicalCircuit::push(PhysOp op) {
  require(op.q0 >= 0 && op.q0 < num_qubits_, "physical qubit out of range");
  if (op.kind == PhysOpKind::CX) {
    require(op.q1 >= 0 && op.q1 < num_qubits_ && op.q1 != op.q0,
            "invalid CX operands");
  } else {
    op.q1 = -1;
  }
  ops_.push_back(op);
}

std::size_t PhysicalCircuit::cx_count() const {
  return static_cast<std::size_t>(std::count_if(
      ops_.begin(), ops_.end(),
      [](const PhysOp& op) { return op.kind == PhysOpKind::CX; }));
}

std::size_t PhysicalCircuit::pulse_count() const {
  return static_cast<std::size_t>(std::count_if(
      ops_.begin(), ops_.end(), [](const PhysOp& op) {
        return op.kind == PhysOpKind::SX || op.kind == PhysOpKind::X;
      }));
}

std::size_t PhysicalCircuit::rz_count() const {
  return ops_.size() - cx_count() - pulse_count();
}

int PhysicalCircuit::num_trainable() const {
  int n = 0;
  for (const PhysOp& op : ops_) n = std::max(n, op.theta_index + 1);
  return n;
}

int PhysicalCircuit::num_inputs() const {
  int n = 0;
  for (const PhysOp& op : ops_) n = std::max(n, op.input_index + 1);
  return n;
}

double PhysicalCircuit::weighted_length(double cx_weight) const {
  return cx_weight * static_cast<double>(cx_count()) +
         static_cast<double>(pulse_count());
}

std::size_t PhysicalCircuit::depth() const {
  std::vector<std::size_t> level(static_cast<std::size_t>(num_qubits_), 0);
  for (const PhysOp& op : ops_) {
    if (op.kind == PhysOpKind::RZ) continue;
    if (op.kind == PhysOpKind::CX) {
      const std::size_t l = std::max(level[static_cast<std::size_t>(op.q0)],
                                     level[static_cast<std::size_t>(op.q1)]) + 1;
      level[static_cast<std::size_t>(op.q0)] = l;
      level[static_cast<std::size_t>(op.q1)] = l;
    } else {
      ++level[static_cast<std::size_t>(op.q0)];
    }
  }
  return level.empty() ? 0 : *std::max_element(level.begin(), level.end());
}

std::string PhysicalCircuit::summary() const {
  std::ostringstream out;
  out << "physical(" << num_qubits_ << "q): " << cx_count() << " cx, "
      << pulse_count() << " pulses, " << rz_count() << " rz, depth "
      << depth();
  return out.str();
}

}  // namespace qucad
