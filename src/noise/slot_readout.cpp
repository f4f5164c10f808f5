#include "noise/slot_readout.hpp"

#include <algorithm>
#include <random>

#include "common/heap_bytes.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"

namespace qucad {

namespace {

/// Binomial(n, p) by the order-statistic recursion of Knuth (TAOCP vol. 2,
/// 3.4.1 F): the a-th smallest of n uniforms is Beta(a, n + 1 - a)
/// distributed, and the count of uniforms below p is then a smaller
/// binomial on one side of it. O(log n) gamma draws, exact in distribution.
/// std::binomial_distribution is not used because it calls lgamma, which
/// writes glibc's global signgam: a data race when lanes sample in parallel.
int binomial(int n, double p, Rng& rng) {
  int count = 0;
  while (n > 16) {
    const int a = 1 + n / 2;
    const int b = n + 1 - a;
    const double ga = std::gamma_distribution<double>(a)(rng.engine());
    const double gb = std::gamma_distribution<double>(b)(rng.engine());
    const double x = ga / (ga + gb);
    // Both updates keep p in [0, 1]: p <= x in the first, x < p <= 1 in
    // the second, and rounding is monotone.
    if (x >= p) {
      n = a - 1;
      p /= x;
    } else {
      count += a;
      n = b - 1;
      p = (p - x) / (1.0 - x);
    }
  }
  for (int i = 0; i < n; ++i) count += rng.uniform() < p ? 1 : 0;
  return count;
}

}  // namespace

SlotReadout::SlotReadout(int num_qubits, std::span<const int> slots,
                         std::vector<ReadoutError> errors)
    : errors_(std::move(errors)), num_slots_(slots.size()) {
  require(num_qubits >= 0 && num_qubits <= 30 && num_slots_ <= 20,
          "readout qubit or slot count out of range");
  require(errors_.empty() || errors_.size() == num_slots_,
          "slot readout errors must match the readout slot count");
  bin_of_.assign(std::size_t{1} << num_qubits, 0);
  for (std::size_t k = 0; k < num_slots_; ++k) {
    require(slots[k] >= 0 && slots[k] < num_qubits,
            "readout slot qubit out of range");
    for (std::size_t i = 0; i < bin_of_.size(); ++i) {
      bin_of_[i] |= static_cast<std::uint32_t>((i >> slots[k]) & 1) << k;
    }
  }
}

void SlotReadout::confused_bins(std::span<const double> probs,
                                std::vector<double>& bins) const {
  require(probs.size() == bin_of_.size(),
          "probability vector does not match the readout's qubit count");
  bins.assign(std::size_t{1} << num_slots_, 0.0);
  for (std::size_t i = 0; i < probs.size(); ++i) bins[bin_of_[i]] += probs[i];
  for (std::size_t k = 0; k < errors_.size(); ++k) {
    const ReadoutError& e = errors_[k];
    if (e.p1_given_0 == 0.0 && e.p0_given_1 == 0.0) continue;
    const std::size_t bit = std::size_t{1} << k;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (b & bit) continue;
      // True 0 reads 1 with p(1|0); true 1 reads 0 with p(0|1).
      const double p0 = bins[b];
      const double p1 = bins[b | bit];
      bins[b] = p0 * (1.0 - e.p1_given_0) + p1 * e.p0_given_1;
      bins[b | bit] = p0 * e.p1_given_0 + p1 * (1.0 - e.p0_given_1);
    }
  }
}

void SlotReadout::draw_counts(std::span<const double> bins, int shots,
                              Rng& rng, std::vector<int>& counts) {
  require(!bins.empty() && shots >= 0, "draw_counts needs bins and shots >= 0");
  counts.assign(bins.size(), 0);
  // tail[b] = mass of bins b.. (clamped at zero), summed right to left.
  // Rounding is monotone, so fl(mass + tail[b + 1]) >= mass and every
  // conditional p = mass / tail[b] below lies in [0, 1].
  thread_local std::vector<double> tail;
  tail.assign(bins.size() + 1, 0.0);
  for (std::size_t b = bins.size(); b-- > 0;) {
    tail[b] = std::max(bins[b], 0.0) + tail[b + 1];
  }
  int left = shots;
  for (std::size_t b = 0; b + 1 < bins.size() && left > 0; ++b) {
    const double mass = std::max(bins[b], 0.0);
    if (mass == 0.0) continue;
    const double p = mass / tail[b];
    // Holds by construction; a p outside [0, 1] would draw from no
    // distribution at all, so say so loudly instead.
    require(p >= 0.0 && p <= 1.0, "binomial probability outside [0, 1]");
    const int drawn = p >= 1.0 ? left : binomial(left, p, rng);
    counts[b] = drawn;
    left -= drawn;
  }
  counts.back() += left;
}

std::vector<double> SlotReadout::z(std::span<const double> probs, int shots,
                                   std::uint64_t seed) const {
  thread_local std::vector<double> bins;
  confused_bins(probs, bins);
  if (shots > 0) {
    // The drawn outcome frequencies replace the exact distribution.
    thread_local std::vector<int> counts;
    Rng rng(seed);
    draw_counts(bins, shots, rng, counts);
    for (std::size_t b = 0; b < bins.size(); ++b) {
      bins[b] = static_cast<double>(counts[b]) / shots;
    }
  }
  std::vector<double> z(num_slots_, 0.0);
  for (std::size_t b = 0; b < bins.size(); ++b) {
    for (std::size_t k = 0; k < num_slots_; ++k) {
      z[k] += (b >> k) & 1 ? -bins[b] : bins[b];
    }
  }
  return z;
}

std::size_t SlotReadout::heap_bytes() const {
  return qucad::heap_bytes(bin_of_) + qucad::heap_bytes(errors_);
}

}  // namespace qucad
