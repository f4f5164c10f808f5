#include "sim/compiled_ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "linalg/gates.hpp"
#include "sim/statevector.hpp"

namespace qucad {

namespace {

constexpr std::array<cplx, 4> kIdentity2{cplx{1.0, 0.0}, cplx{0.0, 0.0},
                                         cplx{0.0, 0.0}, cplx{1.0, 0.0}};

std::array<cplx, 4> mul2(const std::array<cplx, 4>& a,
                         const std::array<cplx, 4>& b) {
  return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
          a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

bool is_diagonal(const std::array<cplx, 4>& u, double tol = 1e-15) {
  return std::abs(u[1]) <= tol && std::abs(u[2]) <= tol;
}

/// Diagonal unitaries with d0 == d1 are a global phase: no-ops on rho.
bool is_global_phase(const std::array<cplx, 4>& u, double tol = 1e-15) {
  return is_diagonal(u, tol) && std::abs(u[0] - u[3]) <= tol;
}

/// Per-qubit accumulator for the single-qubit fusion pass.
struct Pending {
  std::array<cplx, 4> u = kIdentity2;
  bool any = false;
};

bool is_1q_unitary_kind(COpKind kind) {
  return kind == COpKind::Unitary1 || kind == COpKind::Diag1 ||
         kind == COpKind::SymDiag1 || kind == COpKind::SymUni1;
}

bool is_symbolic_op(const CompiledOp& op) {
  return op.input_index >= 0 || op.theta_index >= 0;
}

bool touches(const CompiledOp& op, int q) {
  if (op.q0 == q) return true;
  return (op.kind == COpKind::Cx || op.kind == COpKind::CRot2 ||
          op.kind == COpKind::Channel2) &&
         op.q1 == q;
}

/// Literal 2x2 of a non-symbolic single-qubit op.
std::array<cplx, 4> literal_matrix(const CompiledOp& op) {
  if (op.kind == COpKind::Diag1) {
    return {op.u[0], cplx{0.0, 0.0}, cplx{0.0, 0.0}, op.u[3]};
  }
  return op.u;
}

/// One left-to-right pass fusing CX(c,t) [1q chain on t, <= 1 symbolic]
/// CX(c,t) patterns into CRot2 ops. Ops on unrelated qubits commute out of
/// the pattern and are re-emitted just before it. Anything touching the
/// control, any channel on the target, or a second symbolic op aborts that
/// candidate. Returns true when something fused (callers loop to fixpoint so
/// patterns revealed by earlier fusions are picked up too).
bool fuse_cx_sandwich_pass(std::vector<CompiledOp>& ops, CompileStats& stats) {
  std::vector<CompiledOp> out;
  out.reserve(ops.size());
  bool changed = false;
  std::size_t i = 0;
  while (i < ops.size()) {
    const CompiledOp& op = ops[i];
    bool fused = false;
    if (op.kind == COpKind::Cx) {
      const int c = op.q0;
      const int t = op.q1;
      std::vector<CompiledOp> mid;
      std::vector<CompiledOp> others;
      int sym_count = 0;
      bool matched = false;
      std::size_t j = i + 1;
      for (; j < ops.size(); ++j) {
        const CompiledOp& o = ops[j];
        const bool on_c = touches(o, c);
        const bool on_t = touches(o, t);
        if (!on_c && !on_t) {
          others.push_back(o);
          continue;
        }
        if (o.kind == COpKind::Cx && o.q0 == c && o.q1 == t) {
          matched = true;
          break;
        }
        if (on_c || !is_1q_unitary_kind(o.kind)) break;
        if (is_symbolic_op(o) && ++sym_count > 1) break;
        mid.push_back(o);
      }
      if (matched) {
        for (const CompiledOp& o : others) out.push_back(o);
        if (!mid.empty()) {
          CompiledOp f;
          f.kind = COpKind::CRot2;
          f.q0 = c;
          f.q1 = t;
          f.u = kIdentity2;
          f.u2 = kIdentity2;
          f.angle_offset = 0.0;
          bool after_sym = false;
          for (const CompiledOp& m : mid) {
            if (is_symbolic_op(m)) {
              after_sym = true;
              f.angle_offset = m.angle_offset;
              f.input_index = m.input_index;
              f.input_scale = m.input_scale;
              f.theta_index = m.theta_index;
              f.theta_scale = m.theta_scale;
              if (m.kind == COpKind::SymUni1) f.u = mul2(m.u, f.u);
            } else {
              auto& side = after_sym ? f.u2 : f.u;
              side = mul2(literal_matrix(m), side);
            }
          }
          out.push_back(f);
          ++stats.fused_cx_sandwiches;
        }
        // else: CX directly followed by CX — the pair cancels entirely.
        i = j + 1;
        changed = true;
        fused = true;
      }
    }
    if (!fused) {
      out.push_back(op);
      ++i;
    }
  }
  ops = std::move(out);
  return changed;
}

}  // namespace

FusedChannel1 fuse_pulse_channel(const PulseNoise& noise) {
  // Depolarizing(p) then thermal(gamma, lambda), written as one linear map
  // per 2x2 block. Depolarizing: rho00 -> (keep+hp) rho00 + hp rho11 (and
  // symmetrically), off-diagonals scale by keep. Thermal then mixes the
  // populations (rho00 += gamma rho11; rho11 *= 1-gamma) and scales the
  // coherences by s = sqrt((1-gamma)(1-lambda)). Composing gives:
  const double p = noise.depolarizing_p;
  const double keep = 1.0 - p;
  const double hp = 0.5 * p;
  const double gamma = noise.thermal.gamma;
  const double lambda = noise.thermal.lambda;
  const double kg = 1.0 - gamma;
  const double s = std::sqrt(kg * (1.0 - lambda));
  FusedChannel1 ch;
  ch.d00_00 = (keep + hp) + gamma * hp;
  ch.d00_11 = hp + gamma * (keep + hp);
  ch.d11_00 = kg * hp;
  ch.d11_11 = kg * (keep + hp);
  ch.off = keep * s;
  return ch;
}

FusedChannel2 fuse_cx_channel(const CxNoise& noise) {
  FusedChannel2 ch;
  ch.keep = 1.0 - noise.depolarizing_p;
  ch.quarter_p = 0.25 * noise.depolarizing_p;
  ch.gamma_a = noise.thermal_first.gamma;
  ch.keep_a = 1.0 - ch.gamma_a;
  ch.s_a = std::sqrt(ch.keep_a * (1.0 - noise.thermal_first.lambda));
  ch.gamma_b = noise.thermal_second.gamma;
  ch.keep_b = 1.0 - ch.gamma_b;
  ch.s_b = std::sqrt(ch.keep_b * (1.0 - noise.thermal_second.lambda));
  return ch;
}

CompiledProgram CompiledProgram::compile(const PhysicalCircuit& circuit,
                                         const NoiseModel& noise) {
  require(noise.num_qubits() == 0 || noise.num_qubits() == circuit.num_qubits(),
          "noise model qubit count mismatch");
  const bool noisy = noise.num_qubits() > 0;
  const int nq = circuit.num_qubits();

  CompiledProgram program;
  program.num_qubits_ = nq;
  program.stats_.source_ops = circuit.ops().size();

  std::vector<Pending> pending(static_cast<std::size_t>(nq));
  // Per-qubit fused channels, precomputed once (circuits revisit qubits).
  std::vector<FusedChannel1> pulse_ch;
  if (noisy) {
    pulse_ch.reserve(static_cast<std::size_t>(nq));
    for (int q = 0; q < nq; ++q) pulse_ch.push_back(fuse_pulse_channel(noise.pulse_noise(q)));
  }

  auto flush = [&](int q) {
    Pending& p = pending[static_cast<std::size_t>(q)];
    if (!p.any) return;
    if (!is_global_phase(p.u)) {
      CompiledOp op;
      op.q0 = q;
      op.u = p.u;
      if (is_diagonal(p.u)) {
        op.kind = COpKind::Diag1;
      } else {
        op.kind = COpKind::Unitary1;
        ++program.stats_.fused_unitaries;
      }
      program.ops_.push_back(op);
    }
    p.u = kIdentity2;
    p.any = false;
  };

  auto accumulate = [&](int q, const std::array<cplx, 4>& m) {
    Pending& p = pending[static_cast<std::size_t>(q)];
    p.u = mul2(m, p.u);
    p.any = true;
  };

  auto emit_pulse_noise = [&](int q) {
    if (!noisy) return;
    const FusedChannel1& ch = pulse_ch[static_cast<std::size_t>(q)];
    if (ch.is_identity()) return;
    CompiledOp op;
    op.kind = COpKind::Channel1;
    op.q0 = q;
    op.ch1 = ch;
    program.ops_.push_back(op);
    ++program.stats_.channels;
  };

  // Parameter-space extents come from the SOURCE circuit so that ops elided
  // below (trailing-diagonal drop, global-phase elision) still count toward
  // the gradient vector's size.
  program.num_trainable_ = circuit.num_trainable();
  program.num_inputs_ = circuit.num_inputs();

  for (const PhysOp& phys : circuit.ops()) {
    switch (phys.kind) {
      case PhysOpKind::RZ: {
        if (phys.is_symbolic()) {
          // Data-dependent or trainable: stays symbolic so one program
          // serves every sample and every theta update. Instead of flushing
          // the pending single-qubit chain as a separate pass, absorb it
          // into the symbolic op (SymUni1 = diag(angle) * pending): the
          // dominant ZSX rotation pattern [U, RZ(sym), U, ...] then replays
          // as one fused pass per rotation.
          CompiledOp op;
          Pending& p = pending[static_cast<std::size_t>(phys.q0)];
          if (p.any && !is_global_phase(p.u)) {
            op.kind = COpKind::SymUni1;
            op.u = p.u;
            ++program.stats_.fused_unitaries;
          } else {
            op.kind = COpKind::SymDiag1;
          }
          p.u = kIdentity2;
          p.any = false;
          op.q0 = phys.q0;
          op.angle_offset = phys.angle;
          op.input_index = phys.input_index;
          op.input_scale = phys.input_scale;
          op.theta_index = phys.theta_index;
          op.theta_scale = phys.theta_scale;
          program.ops_.push_back(op);
        } else {
          const std::array<cplx, 4> rz{std::exp(cplx{0.0, -phys.angle / 2.0}),
                                       0.0, 0.0,
                                       std::exp(cplx{0.0, phys.angle / 2.0})};
          accumulate(phys.q0, rz);
        }
        break;
      }
      case PhysOpKind::SX:
        accumulate(phys.q0, sx_as_array2());
        // The error channel must follow the pulse; if this pulse is
        // noiseless the chain keeps fusing through it.
        if (noisy && !pulse_ch[static_cast<std::size_t>(phys.q0)].is_identity()) {
          flush(phys.q0);
          emit_pulse_noise(phys.q0);
        }
        break;
      case PhysOpKind::X:
        accumulate(phys.q0, x_as_array2());
        if (noisy && !pulse_ch[static_cast<std::size_t>(phys.q0)].is_identity()) {
          flush(phys.q0);
          emit_pulse_noise(phys.q0);
        }
        break;
      case PhysOpKind::CX: {
        flush(phys.q0);
        flush(phys.q1);
        CompiledOp op;
        op.kind = COpKind::Cx;
        op.q0 = phys.q0;
        op.q1 = phys.q1;
        program.ops_.push_back(op);
        if (noisy) {
          const int a = std::min(phys.q0, phys.q1);
          const int b = std::max(phys.q0, phys.q1);
          const FusedChannel2 ch = fuse_cx_channel(noise.cx_noise(a, b));
          if (!ch.is_identity()) {
            CompiledOp cop;
            cop.kind = COpKind::Channel2;
            cop.q0 = a;
            cop.q1 = b;
            cop.ch2 = ch;
            program.ops_.push_back(cop);
            ++program.stats_.channels;
          }
        }
        break;
      }
    }
  }
  for (int q = 0; q < nq; ++q) flush(q);

  // Loop to fixpoint: a fusion can bring another CX pair adjacent.
  while (fuse_cx_sandwich_pass(program.ops_, program.stats_)) {
  }

  // Diagonal unitaries commute with every error channel here (depolarizing,
  // thermal relaxation, and classical readout confusion all act
  // block-diagonally w.r.t. the computational basis), so a Diag1/SymDiag1
  // followed only by channels on its qubit cannot change measurement
  // statistics. Walk backwards and drop them.
  std::vector<char> blocked(static_cast<std::size_t>(nq), 0);
  std::vector<CompiledOp> kept;
  kept.reserve(program.ops_.size());
  for (auto it = program.ops_.rbegin(); it != program.ops_.rend(); ++it) {
    const CompiledOp& op = *it;
    switch (op.kind) {
      case COpKind::Diag1:
      case COpKind::SymDiag1:
        if (!blocked[static_cast<std::size_t>(op.q0)]) {
          ++program.stats_.dropped_trailing;
          continue;  // dropped
        }
        break;
      case COpKind::SymUni1:
        // Diagonal only when the absorbed prefix is itself diagonal.
        if (is_diagonal(op.u) && !blocked[static_cast<std::size_t>(op.q0)]) {
          ++program.stats_.dropped_trailing;
          continue;  // dropped
        }
        blocked[static_cast<std::size_t>(op.q0)] = 1;
        break;
      case COpKind::Unitary1:
        blocked[static_cast<std::size_t>(op.q0)] = 1;
        break;
      case COpKind::Cx:
      case COpKind::CRot2:
        blocked[static_cast<std::size_t>(op.q0)] = 1;
        blocked[static_cast<std::size_t>(op.q1)] = 1;
        break;
      case COpKind::Channel1:
      case COpKind::Channel2:
        break;  // channels commute with diagonals: do not block
    }
    kept.push_back(op);
  }
  program.ops_.assign(kept.rbegin(), kept.rend());

  program.stats_.compiled_ops = program.ops_.size();
  return program;
}

std::array<cplx, 4> sym_uni_matrix(const CompiledOp& op, double angle) {
  const auto [d0, d1] = rz_diag(angle);
  return {d0 * op.u[0], d0 * op.u[1], d1 * op.u[2], d1 * op.u[3]};
}

std::array<cplx, 4> crot_inner_matrix(const CompiledOp& op, double angle) {
  const std::array<cplx, 4> du = sym_uni_matrix(op, angle);  // diag * u
  return mul2(op.u2, du);
}

double resolve_sym_angle(const CompiledOp& op, std::span<const double> x,
                         std::span<const double> theta) {
  if (op.input_index >= 0) {
    require(static_cast<std::size_t>(op.input_index) < x.size(),
            "input vector too short for compiled op");
    return op.input_scale * x[static_cast<std::size_t>(op.input_index)] +
           op.angle_offset;
  }
  if (op.theta_index >= 0) {
    require(static_cast<std::size_t>(op.theta_index) < theta.size(),
            "theta vector too short for compiled op");
    return op.theta_scale * theta[static_cast<std::size_t>(op.theta_index)] +
           op.angle_offset;
  }
  return op.angle_offset;  // literal (CRot2 with a fully bound interior)
}

void CompiledProgram::require_inputs(std::span<const double> x) const {
  require(x.size() >= static_cast<std::size_t>(num_inputs_),
          "feature vector too short for compiled program");
}

}  // namespace qucad
