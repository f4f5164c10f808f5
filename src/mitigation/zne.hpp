#pragma once

#include <span>
#include <vector>

#include "noise/calibration.hpp"
#include "noise/noise_model.hpp"
#include "transpile/physical.hpp"

namespace qucad {

struct ZneOptions {
  /// Noise amplification factors; gate error rates are multiplied by each
  /// factor and the observable is extrapolated back to zero noise.
  std::vector<double> scale_factors{1.0, 2.0, 3.0};
  NoiseModelOptions noise;
};

/// Zero-noise extrapolation [17]: executes the circuit at amplified noise
/// levels (rate scaling — the digital analogue of pulse stretching) and
/// Richardson-extrapolates each readout expectation to the zero-noise limit
/// with a least-squares linear fit over the scale factors.
///
/// Each scale factor's compiled executor comes from
/// CompiledEvalCache::global(), keyed per (circuit, scaled calibration, noise
/// options): repeated calls on the same day (every sample of an evaluation
/// sweep) compile it once.
///
/// Output follows the positional readout contract: entry k is the
/// extrapolated `<Z>` of readout SLOT k (circuit.readout_physical()[k], i.e.
/// class k) — ordered like CompiledExecutor::run_z, never by qubit id.
///
/// This is the "mitigate at one moment" family the paper contrasts with
/// QuCAD: it reduces bias on a fixed calibration but must be re-run from
/// scratch whenever the noise drifts.
std::vector<double> zne_expectations(const PhysicalCircuit& circuit,
                                     const Calibration& calibration,
                                     std::span<const double> x,
                                     const ZneOptions& options = {});

/// Amplifies every error rate in a calibration by `factor` (clamped to
/// valid probability ranges). Exposed for tests.
Calibration scale_calibration_noise(const Calibration& calibration,
                                    double factor);

/// Least-squares linear fit extrapolated to x = 0. Exposed for tests.
double extrapolate_to_zero(std::span<const double> xs, std::span<const double> ys);

}  // namespace qucad
