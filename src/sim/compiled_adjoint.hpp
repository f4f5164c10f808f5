#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sim/compiled_ops.hpp"

namespace qucad {

/// \file
/// Compiled adjoint differentiation: the gradient half of the statevector
/// training path. Where sim/adjoint.hpp walks a logical Circuit gate by gate
/// (building a CMat per gate and copying the full amplitude vector per
/// trainable parameter), this engine replays a CompiledProgram's fused
/// op-stream forward once over L samples (CompiledProgram::run_pure_lanes),
/// then sweeps it backward (CompiledProgram::reverse_pure_lanes), un-applying
/// each op in place from both states with the forward replay's own
/// BatchedStateVector kernels. Trainable parameters only ever appear as
/// symbolic RZ angles (SymDiag1 / SymUni1 / CRot2 ops with theta_index >=
/// 0), whose generator is Z (conjugated through the CRot2 post-factor) — so
/// each per-parameter contribution is one allocation-free overlap pass
///   `d<O>/dtheta_t` += theta_scale * Im(`<lambda| G |psi>`)
/// read just before the op is un-applied (the chain rule through the affine
/// angle is the theta_scale factor; a parameter split across several RZs by
/// the lowering, e.g. the +-t/2 pair of a controlled rotation, accumulates
/// one contribution per op). compiled_adjoint_gradient_lanes adds what
/// surrounds the two replays: the per-thread workspace, the observable
/// weight hook and the lambda = O_eff |psi> init.
///
/// Because the physical circuit implements the same unitary as its logical
/// source up to global phase, `<Z>(theta, x)` — and therefore every gradient —
/// agrees with the logical-circuit adjoint exactly (tested at 1e-10).

/// Per-lane observable weights: receives the lane index and that lane's
/// `<Z_q>` vector (indexed by qubit id, matching the sim/adjoint.hpp
/// contract — NOT readout-slot order) and returns dL/d`<Z_q>` per qubit.
using LaneObservableWeightFn = std::function<std::vector<double>(
    std::size_t lane, const std::vector<double>& z_expectations)>;

/// Per-lane adjoint outputs, outer index = sample lane.
struct LaneAdjointResult {
  std::vector<std::vector<double>> z_expectations;  ///< [lane][qubit]
  std::vector<std::vector<double>> gradients;       ///< [lane][param]
};

/// Exact gradient of each lane's `<O_eff>` over a compiled noiseless program
/// (program.has_channels() must be false): one SoA forward replay and one
/// reverse sweep with lane-wide duals, O(compiled ops) regardless of
/// parameter count. theta is shared across lanes (the batch-training
/// shape); `xs[lane]` must hold at least program.num_inputs() entries
/// (CompiledProgram::require_inputs). Each lane's gradient vector has
/// max(program.num_trainable(), theta.size()) entries; parameters whose RZs
/// were elided as trailing diagonals get their exact gradient of zero.
///
/// Replays into this thread's scratch, so `weight_fn` must not itself run a
/// compiled adjoint of the same width.
template <std::size_t L>
LaneAdjointResult compiled_adjoint_gradient_lanes(
    const CompiledProgram& program, std::span<const double> theta,
    const LaneInputs<L>& xs, const LaneObservableWeightFn& weight_fn);

}  // namespace qucad
