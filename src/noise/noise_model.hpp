#pragma once

#include <map>
#include <span>
#include <vector>

#include "noise/calibration.hpp"
#include "noise/channels.hpp"

namespace qucad {

struct NoiseModelOptions {
  bool include_thermal_relaxation = true;
  bool include_readout_error = true;
};

/// Error process following one single-qubit pulse: a depolarizing term plus
/// thermal relaxation, both applied with closed-form fast paths (zeroed when
/// disabled).
struct PulseNoise {
  double depolarizing_p = 0.0;
  ThermalChannel thermal;
};

/// Error process following a CX on a coupled pair (stored for the
/// normalized (min,max) qubit order).
struct CxNoise {
  double depolarizing_p = 0.0;
  ThermalChannel thermal_first;   // on min(q)
  ThermalChannel thermal_second;  // on max(q)
};

/// Device noise model compiled from one calibration snapshot, in the same
/// shape Qiskit Aer builds from backend properties: a depolarizing channel
/// per gate scaled by the calibrated error rate, thermal relaxation over the
/// gate duration (IBM Falcon-family pulses: 35 ns SX, 300 ns echoed
/// cross-resonance CX), and classical readout confusion at measurement.
class NoiseModel {
 public:
  NoiseModel() = default;
  NoiseModel(const Calibration& calibration, NoiseModelOptions options = {});

  int num_qubits() const { return num_qubits_; }

  const PulseNoise& pulse_noise(int q) const;
  const CxNoise& cx_noise(int a, int b) const;

  /// Per-qubit readout assignment errors (zeroed when disabled).
  std::span<const ReadoutError> readout() const { return readout_; }

  bool is_noiseless() const { return noiseless_; }

 private:
  int num_qubits_ = 0;
  bool noiseless_ = true;
  std::vector<PulseNoise> pulse_;
  std::map<std::pair<int, int>, CxNoise> cx_;
  std::vector<ReadoutError> readout_;
};

}  // namespace qucad
