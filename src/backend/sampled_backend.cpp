#include "backend/sampled_backend.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace qucad {

SampledStatevectorBackend::SampledStatevectorBackend(
    std::shared_ptr<const PureExecutor> executor, std::vector<double> theta,
    std::vector<ReadoutError> slot_readout, int shots, std::uint64_t seed,
    bool deterministic)
    : executor_(std::move(executor)),
      theta_(std::move(theta)),
      slot_readout_(std::move(slot_readout)),
      shots_(shots),
      seed_(seed),
      capabilities_(backend_kind_capabilities(BackendKind::kSampled)) {
  require(executor_ != nullptr, "sampled backend needs a compiled executor");
  require(shots_ > 0, "sampled backend needs shots > 0");
  const std::size_t slots = executor_->circuit().readout_physical().size();
  require(slot_readout_.empty() || slot_readout_.size() == slots,
          "slot readout errors must match the readout slot count");
  capabilities_.readout_error = !slot_readout_.empty();
  // An entropy-drawn seed still reproduces within this instance's lifetime,
  // but not across builds — which is what the flag is for consumers.
  capabilities_.deterministic = deterministic;
}

const BackendCapabilities& SampledStatevectorBackend::capabilities() const {
  return capabilities_;
}

BackendDiagnostics SampledStatevectorBackend::diagnostics() const {
  BackendDiagnostics d;
  d.name = backend_kind_name(BackendKind::kSampled);
  d.kind = BackendKind::kSampled;
  d.num_qubits = executor_->circuit().num_qubits();
  d.shots = shots_;
  d.source_ops = executor_->program().stats().source_ops;
  d.compiled_ops = executor_->program().stats().compiled_ops;
  return d;
}

std::vector<double> SampledStatevectorBackend::draw_logits(
    const std::vector<double>& cdf, double total,
    std::uint64_t sample_seed) const {
  const std::vector<int>& slots = executor_->circuit().readout_physical();
  std::vector<double> z(slots.size(), 0.0);
  Rng rng(sample_seed);
  for (int s = 0; s < shots_; ++s) {
    const double u = rng.uniform(0.0, total);
    auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    // uniform_real_distribution may return exactly `total` under rounding;
    // clamp so the draw lands on the last basis state, not past the end.
    if (it == cdf.end()) it = std::prev(cdf.end());
    const std::size_t bits =
        static_cast<std::size_t>(std::distance(cdf.begin(), it));
    for (std::size_t k = 0; k < slots.size(); ++k) {
      bool one = (bits >> slots[k]) & 1;
      if (!slot_readout_.empty()) {
        // Classical confusion, applied per measured qubit: a true 0 reads
        // as 1 with p(1|0), a true 1 reads as 0 with p(0|1). Equivalent in
        // distribution to confusing the full probability vector.
        const ReadoutError& err = slot_readout_[k];
        const double flip_p = one ? err.p0_given_1 : err.p1_given_0;
        if (flip_p > 0.0 && rng.bernoulli(flip_p)) one = !one;
      }
      z[k] += one ? -1.0 : 1.0;
    }
  }
  const double inv_shots = 1.0 / static_cast<double>(shots_);
  for (double& v : z) v *= inv_shots;
  return z;
}

template <std::size_t L>
void SampledStatevectorBackend::sample_lanes(const LaneInputs<L>& xs,
                                             std::uint64_t first_seed,
                                             std::vector<double>* zs) const {
  auto& sv =
      lane_scratch<BatchedStateVector<L>>(executor_->circuit().num_qubits());
  executor_->program().run_pure_lanes(sv, xs, theta_);
  // Each lane's cumulative distribution over basis states, rebuilt in
  // per-thread scratch. Its final entry (~1.0 up to rounding) is the draw
  // range, so a slightly off-norm state never biases the tail bucket.
  thread_local std::vector<double> cdf;
  for (std::size_t l = 0; l < L; ++l) {
    double total = 0.0;
    sv.lane_cdf(l, cdf, total);
    zs[l] = draw_logits(cdf, total, first_seed + l);
  }
}

std::vector<double> SampledStatevectorBackend::run_logits(
    std::span<const double> x) const {
  executor_->program().require_inputs(x);
  std::vector<double> z;
  sample_lanes<1>({x.data()}, seed_, &z);
  return z;
}

std::vector<std::vector<double>> SampledStatevectorBackend::run_logits_batch(
    std::span<const std::vector<double>> xs, ThreadPool* pool) const {
  // Validate the whole batch at the API boundary (calling thread): a ragged
  // row fails here, not inside a worker's replay.
  for (const std::vector<double>& x : xs) {
    executor_->program().require_inputs(x);
  }
  std::vector<std::vector<double>> zs(xs.size());
  parallel_for_lanes(pool ? *pool : ThreadPool::global(), xs.size(), true,
                     [&](auto width, std::size_t first) {
                       constexpr std::size_t L = decltype(width)::value;
                       sample_lanes<L>(lane_rows<L>(xs, first), seed_ + first,
                                       &zs[first]);
                     });
  return zs;
}

}  // namespace qucad
