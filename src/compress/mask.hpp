#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/compression_table.hpp"
#include "noise/calibration.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {

/// How the compression mask threshold is chosen.
struct MaskPolicy {
  enum class Kind {
    Threshold,    // mask gates with priority >= value
    TopFraction,  // mask the `value` fraction with highest priority
  };
  Kind kind = Kind::TopFraction;
  double value = 0.2;
};

/// Whether gate noise enters the priority (Sec. III-B / Fig. 6).
enum class CompressionMode {
  NoiseAware,     // p_i = C(A(g_i)) / d_i        (the paper's QuCAD)
  NoiseAgnostic,  // p_i = 1 / d_i                 (prior work [23])
};

/// Per-parameter compression decision tables of Fig. 6.
struct MaskInfo {
  std::vector<double> target_level;  // T_admm: nearest level per parameter
  std::vector<double> distance;      // D: distance to that level
  std::vector<double> priority;      // P: priority to be pruned
  std::vector<std::uint8_t> mask;    // 1 = compress this parameter
  std::vector<std::uint8_t> controlled;  // 1 = two-qubit (CR) parameter

  std::size_t masked_count() const;
};

/// Gate-aware level lookup. Controlled rotations only shorten the physical
/// circuit at multiples of 2*pi (CR(0) vanishes, CR(2*pi) is a virtual Z on
/// the control — both drop 2 CX), so they snap to {0 mod 2*pi} regardless
/// of the single-qubit table; single-qubit rotations use `table`, whose
/// default levels each save one or two pulses.
CompressionTable::Nearest nearest_compression_level(
    double value, bool is_controlled, const CompressionTable& table);

/// Builds T_admm, D, P and the mask for the current parameters. The noise
/// of each gate is looked up through its physical association A(g) in the
/// calibration (CX error for controlled rotations, SX error for 1-qubit
/// rotations).
MaskInfo build_mask(std::span<const double> theta, const CompressionTable& table,
                    const std::vector<GateAssociation>& associations,
                    const Calibration& calibration, CompressionMode mode,
                    const MaskPolicy& policy);

}  // namespace qucad
