#pragma once

#include <span>
#include <string>
#include <vector>

namespace qucad {

/// Physical basis-gate vocabulary: the IBM Falcon basis {CX, RZ, SX, X}.
/// RZ is a virtual frame change — zero duration, zero error.
enum class PhysOpKind { CX, SX, X, RZ };

/// One physical operation. RZ angles may be affine in one symbolic slot so a
/// lowered circuit can be replayed without re-transpiling:
///   - an input-encoding slot:  angle = input_scale * x[input_index] + angle
///     (bound per data sample), or
///   - a trainable slot:        angle = theta_scale * theta[theta_index] + angle
///     (bound per optimizer step).
/// At most one of input_index / theta_index is >= 0: transpilation never mixes
/// the two parameter spaces inside a single RZ.
struct PhysOp {
  PhysOpKind kind = PhysOpKind::RZ;
  int q0 = 0;
  int q1 = -1;             // CX target
  double angle = 0.0;      // literal angle / affine offset (RZ only)
  int input_index = -1;    // -1 = not input-symbolic
  double input_scale = 1.0;
  int theta_index = -1;    // -1 = not trainable-symbolic
  double theta_scale = 1.0;

  bool is_symbolic() const { return input_index >= 0 || theta_index >= 0; }

  /// Resolves the angle against the sample inputs `x` and (when the op is
  /// trainable-symbolic) the parameter vector `theta`. Throws if the
  /// referenced slot is out of range of the provided span.
  double resolve_angle(std::span<const double> x,
                       std::span<const double> theta = {}) const;
};

/// A fully lowered circuit on physical qubits, plus the physical location of
/// each logical readout qubit.
class PhysicalCircuit {
 public:
  PhysicalCircuit() = default;
  explicit PhysicalCircuit(int num_qubits) : num_qubits_(num_qubits) {}

  int num_qubits() const { return num_qubits_; }
  const std::vector<PhysOp>& ops() const { return ops_; }
  std::vector<int>& readout_physical() { return readout_physical_; }
  const std::vector<int>& readout_physical() const { return readout_physical_; }

  void push(PhysOp op);

  /// Number of CX gates — the dominant noise cost on hardware.
  std::size_t cx_count() const;

  /// Number of real single-qubit pulses (SX + X); RZ is free.
  std::size_t pulse_count() const;

  std::size_t rz_count() const;

  /// 1 + the largest trainable slot referenced by any RZ (0 when every angle
  /// is literal or input-symbolic, i.e. theta was bound during lowering).
  int num_trainable() const;

  /// 1 + the largest input-encoding slot referenced by any RZ.
  int num_inputs() const;

  /// Weighted physical length used as the compression objective proxy:
  /// cx_count * cx_weight + pulse_count.
  double weighted_length(double cx_weight = 10.0) const;

  /// Circuit depth over non-virtual operations (RZ excluded).
  std::size_t depth() const;

  std::string summary() const;

 private:
  int num_qubits_ = 0;
  std::vector<PhysOp> ops_;
  std::vector<int> readout_physical_;
};

}  // namespace qucad
