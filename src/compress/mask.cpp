#include "compress/mask.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/require.hpp"

namespace qucad {

std::size_t MaskInfo::masked_count() const {
  return static_cast<std::size_t>(std::count(mask.begin(), mask.end(), 1));
}

CompressionTable::Nearest nearest_compression_level(
    double value, bool is_controlled, const CompressionTable& table) {
  if (is_controlled) {
    static const CompressionTable controlled_table(std::vector<double>{0.0});
    return controlled_table.nearest(value);
  }
  return table.nearest(value);
}

MaskInfo build_mask(std::span<const double> theta, const CompressionTable& table,
                    const std::vector<GateAssociation>& associations,
                    const Calibration& calibration, CompressionMode mode,
                    const MaskPolicy& policy) {
  require(theta.size() == associations.size(),
          "one association per trainable parameter required");
  const std::size_t n = theta.size();

  MaskInfo info;
  info.target_level.resize(n);
  info.distance.resize(n);
  info.priority.resize(n);
  info.mask.assign(n, 0);
  info.controlled.assign(n, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const GateAssociation& assoc = associations[i];
    require(assoc.param_index == static_cast<int>(i),
            "associations must be indexed by parameter");
    info.controlled[i] = assoc.is_two_qubit() ? 1 : 0;

    const CompressionTable::Nearest nearest =
        nearest_compression_level(theta[i], assoc.is_two_qubit(), table);
    info.target_level[i] = nearest.level;
    info.distance[i] = nearest.distance;

    const double noise = mode == CompressionMode::NoiseAware
                             ? calibration.noise_of(assoc.q0, assoc.q1)
                             : 1.0;
    // Guard the division: parameters already at a level get top priority.
    info.priority[i] = noise / std::max(nearest.distance, 1e-6);
  }

  double threshold = policy.value;
  if (policy.kind == MaskPolicy::Kind::TopFraction) {
    require(policy.value >= 0.0 && policy.value <= 1.0,
            "fraction must be in [0, 1]");
    const std::size_t keep =
        static_cast<std::size_t>(std::round(policy.value * static_cast<double>(n)));
    if (keep == 0) return info;
    std::vector<double> sorted = info.priority;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                     sorted.end(), std::greater<>());
    threshold = sorted[keep - 1];
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (info.priority[i] >= threshold) info.mask[i] = 1;
  }
  return info;
}

}  // namespace qucad
