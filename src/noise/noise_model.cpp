#include "noise/noise_model.hpp"

#include "common/require.hpp"

namespace qucad {

namespace {

// Pulse durations that turn T1/T2 into per-gate thermal relaxation.
constexpr double kSxDurationUs = 0.035;
constexpr double kCxDurationUs = 0.300;

}  // namespace

NoiseModel::NoiseModel(const Calibration& calibration, NoiseModelOptions options)
    : num_qubits_(calibration.num_qubits()) {
  const int n = num_qubits_;
  pulse_.reserve(static_cast<std::size_t>(n));

  auto thermal_for = [&](int q, double duration) -> ThermalChannel {
    if (!options.include_thermal_relaxation) return ThermalChannel{};
    return channels::thermal_relaxation_params(calibration.t1_us(q),
                                               calibration.t2_us(q), duration);
  };

  for (int q = 0; q < n; ++q) {
    PulseNoise pn;
    pn.depolarizing_p = calibration.sx_error(q);
    pn.thermal = thermal_for(q, kSxDurationUs);
    if (pn.depolarizing_p > 0.0 || !pn.thermal.empty()) noiseless_ = false;
    pulse_.push_back(std::move(pn));
  }

  for (const auto& [a, b] : calibration.edges()) {
    CxNoise cn;
    cn.depolarizing_p = calibration.cx_error(a, b);
    cn.thermal_first = thermal_for(a, kCxDurationUs);
    cn.thermal_second = thermal_for(b, kCxDurationUs);
    if (cn.depolarizing_p > 0.0 || !cn.thermal_first.empty()) noiseless_ = false;
    cx_.emplace(std::make_pair(a, b), std::move(cn));
  }

  readout_.resize(static_cast<std::size_t>(n));
  if (options.include_readout_error) {
    for (int q = 0; q < n; ++q) {
      readout_[static_cast<std::size_t>(q)] = calibration.readout(q);
      if (calibration.readout(q).mean() > 0.0) noiseless_ = false;
    }
  }
}

const PulseNoise& NoiseModel::pulse_noise(int q) const {
  require(q >= 0 && q < num_qubits_, "qubit out of range");
  return pulse_[static_cast<std::size_t>(q)];
}

const CxNoise& NoiseModel::cx_noise(int a, int b) const {
  if (a > b) std::swap(a, b);
  const auto it = cx_.find({a, b});
  require(it != cx_.end(), "no CX channel for uncoupled pair");
  return it->second;
}

}  // namespace qucad
