#include "sim/compiled_adjoint.hpp"

#include <algorithm>
#include <memory>

#include "common/require.hpp"

namespace qucad {

template <std::size_t L>
LaneAdjointResult compiled_adjoint_gradient_lanes(
    const CompiledProgram& program, std::span<const double> theta,
    const LaneInputs<L>& xs, const LaneObservableWeightFn& weight_fn) {
  require(!program.has_channels(),
          "compiled adjoint requires a noiseless program");
  const int n = program.num_qubits();

  // Per-thread scratch, recycled across calls: the forward lanes |psi>, the
  // adjoint lanes, and the angle-resolved symbolic matrices recorded by the
  // forward replay and daggered by the reverse sweep.
  struct Workspace {
    std::unique_ptr<BatchedStateVector<L>> ket, lam;
    std::vector<std::array<cplx, 4>> resolved;
  };
  thread_local Workspace ws;
  if (!ws.ket || ws.ket->num_qubits() != n) {
    ws.ket = std::make_unique<BatchedStateVector<L>>(n);
    ws.lam = std::make_unique<BatchedStateVector<L>>(n);
  }

  program.run_pure_lanes(*ws.ket, xs, theta, &ws.resolved);

  LaneAdjointResult result;
  result.z_expectations.resize(L);
  std::vector<double> z_all(static_cast<std::size_t>(n) * L);
  ws.ket->all_z(z_all.data());
  for (std::size_t l = 0; l < L; ++l) {
    result.z_expectations[l].resize(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q) {
      result.z_expectations[l][static_cast<std::size_t>(q)] =
          z_all[static_cast<std::size_t>(q) * L + l];
    }
  }

  // Per-lane weights, transposed to wq[q * L + lane] for the lam init.
  std::vector<double> wq(static_cast<std::size_t>(n) * L);
  for (std::size_t l = 0; l < L; ++l) {
    const std::vector<double> w = weight_fn(l, result.z_expectations[l]);
    require(w.size() == static_cast<std::size_t>(n),
            "observable weight vector must have one entry per qubit");
    for (int q = 0; q < n; ++q) {
      wq[static_cast<std::size_t>(q) * L + l] =
          w[static_cast<std::size_t>(q)];
    }
  }

  const std::size_t num_params = std::max(
      static_cast<std::size_t>(program.num_trainable()), theta.size());
  result.gradients.assign(L, std::vector<double>(num_params, 0.0));
  if (program.num_trainable() == 0) return result;

  // lam = O_eff |psi> per lane, O_eff = sum_q w_q Z_q (diagonal).
  {
    double* kr = ws.ket->re();
    double* ki = ws.ket->im();
    double* lr = ws.lam->re();
    double* li = ws.lam->im();
    for (std::size_t i = 0; i < ws.ket->dim(); ++i) {
      double wsum[L] = {};
      for (int q = 0; q < n; ++q) {
        const double z = (i >> q) & 1 ? -1.0 : 1.0;
        const double* wrow = wq.data() + static_cast<std::size_t>(q) * L;
#pragma omp simd
        for (std::size_t l = 0; l < L; ++l) wsum[l] += z * wrow[l];
      }
      const std::size_t row = i * L;
#pragma omp simd
      for (std::size_t l = 0; l < L; ++l) {
        lr[row + l] = wsum[l] * kr[row + l];
        li[row + l] = wsum[l] * ki[row + l];
      }
    }
  }

  program.reverse_pure_lanes(*ws.ket, *ws.lam, ws.resolved, result.gradients);
  return result;
}

template LaneAdjointResult compiled_adjoint_gradient_lanes(
    const CompiledProgram&, std::span<const double>, const LaneInputs<1>&,
    const LaneObservableWeightFn&);
template LaneAdjointResult compiled_adjoint_gradient_lanes(
    const CompiledProgram&, std::span<const double>,
    const LaneInputs<kBlockLanes>&, const LaneObservableWeightFn&);

}  // namespace qucad
