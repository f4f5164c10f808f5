#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "noise/calibration.hpp"

namespace qucad {

class Rng;

/// The one readout kernel every engine ends in, exact and finite-shot
/// alike. It is built from the slot-ordered readout qubits (slot k holds
/// class k) and each slot's readout confusion, and turns one sample's 2^n
/// computational-basis probabilities into per-slot `<Z>` in three steps:
///
///  1. marginalize onto the k readout slots: 2^k bins, where bit k of a bin
///     index is the outcome of slot k (positional, never a qubit id);
///  2. apply each slot's 2x2 confusion to the bins, exactly;
///  3. with shots == 0, return the exact `<Z>` of every slot; with
///     shots > 0, draw a multinomial over the bins by conditional binomials
///     from Rng(seed) and return the shot estimates.
///
/// Confusion is independent per measured qubit, so steps 1-2 give the slot
/// marginal of the full-vector apply_readout_error (noise/channels.hpp).
/// Cost is O(2^n + 2^k (k + log shots)) per sample: flat in the shot count
/// next to the replay. Const and safe to call concurrently (scratch is per
/// thread).
class SlotReadout {
 public:
  SlotReadout() = default;

  /// `slots[k]` is the basis-index bit (physical qubit, < num_qubits) read
  /// as class k. `errors` is empty (no confusion) or holds slot k's
  /// confusion at entry k.
  SlotReadout(int num_qubits, std::span<const int> slots,
              std::vector<ReadoutError> errors);

  /// Steps 1-2: the confused slot-marginal distribution of `probs` (2^n
  /// basis probabilities) written to `bins` (2^k entries).
  void confused_bins(std::span<const double> probs,
                     std::vector<double>& bins) const;

  /// `<Z>` of each slot: exact for shots == 0, otherwise the estimate from
  /// `shots` outcomes drawn from Rng(seed).
  std::vector<double> z(std::span<const double> probs, int shots,
                        std::uint64_t seed) const;

  /// Draws `shots` outcomes over `bins` into `counts` (one entry per bin)
  /// as a chain of conditional binomials. Negative rounding residue counts
  /// as zero mass, and each binomial's success probability is a bin's mass
  /// over the mass of itself and every later bin, so it stays in [0, 1]
  /// whatever the bins sum to. A bin without mass never receives a shot
  /// (unless every bin is empty: then all shots land in the last one).
  static void draw_counts(std::span<const double> bins, int shots, Rng& rng,
                          std::vector<int>& counts);

  /// Heap bytes held by the bin map and the per-slot confusion.
  std::size_t heap_bytes() const;

 private:
  std::vector<std::uint32_t> bin_of_;  ///< basis index -> slot bin
  std::vector<ReadoutError> errors_;   ///< empty = no confusion
  std::size_t num_slots_ = 0;
};

}  // namespace qucad
