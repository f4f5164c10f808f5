#include "mitigation/zne.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "qnn/eval_cache.hpp"
#include "transpile/executor.hpp"

namespace qucad {

Calibration scale_calibration_noise(const Calibration& calibration,
                                    double factor) {
  require(factor >= 0.0, "noise scale factor must be non-negative");
  Calibration scaled(calibration.num_qubits(), calibration.edges());
  for (int q = 0; q < calibration.num_qubits(); ++q) {
    scaled.set_sx_error(q, std::min(calibration.sx_error(q) * factor, 0.99));
    const ReadoutError& ro = calibration.readout(q);
    scaled.set_readout(q, ReadoutError{std::min(ro.p1_given_0 * factor, 0.5),
                                       std::min(ro.p0_given_1 * factor, 0.5)});
    // Thermal relaxation scales via shorter effective T1/T2.
    const double t_scale = factor > 1e-9 ? 1.0 / factor : 1e6;
    const double t1 = std::clamp(calibration.t1_us(q) * t_scale, 1.0, 1e6);
    const double t2 =
        std::clamp(calibration.t2_us(q) * t_scale, 1.0, 2.0 * t1);
    scaled.set_t1_t2(q, t1, t2);
  }
  for (const auto& [a, b] : calibration.edges()) {
    scaled.set_cx_error(a, b, std::min(calibration.cx_error(a, b) * factor, 0.99));
  }
  return scaled;
}

double extrapolate_to_zero(std::span<const double> xs,
                           std::span<const double> ys) {
  require(xs.size() == ys.size() && xs.size() >= 2,
          "extrapolation needs at least two points");
  const double n = static_cast<double>(xs.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  require(std::abs(denom) > 1e-12, "degenerate scale factors");
  const double slope = (n * sxy - sx * sy) / denom;
  const double intercept = (sy - slope * sx) / n;
  return intercept;  // value at zero noise
}

std::vector<std::vector<double>> zne_expectations(
    const PhysicalCircuit& circuit, const Calibration& calibration,
    std::span<const std::vector<double>> xs, const ZneOptions& options) {
  require(options.scale_factors.size() >= 2,
          "ZNE needs at least two scale factors");

  // z_by_scale[s][i]: the slot values of row i under scale factor s. Each
  // scaled calibration compiles once and replays every row in one batch.
  std::vector<std::vector<std::vector<double>>> z_by_scale;
  z_by_scale.reserve(options.scale_factors.size());
  for (double factor : options.scale_factors) {
    const std::shared_ptr<const CompiledExecutor> executor =
        build_physical_executor(
            circuit, scale_calibration_noise(calibration, factor),
            options.noise);
    z_by_scale.push_back(executor->run_z_batch(xs));
  }

  std::vector<std::vector<double>> extrapolated(xs.size());
  std::vector<double> ys(options.scale_factors.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t num_readouts = z_by_scale.front()[i].size();
    extrapolated[i].resize(num_readouts);
    for (std::size_t q = 0; q < num_readouts; ++q) {
      for (std::size_t s = 0; s < options.scale_factors.size(); ++s) {
        ys[s] = z_by_scale[s][i][q];
      }
      // <Z> is bounded; clamp the linear extrapolation accordingly.
      extrapolated[i][q] = std::clamp(
          extrapolate_to_zero(options.scale_factors, ys), -1.0, 1.0);
    }
  }
  return extrapolated;
}

}  // namespace qucad
