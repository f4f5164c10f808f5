#include "sim/compiled_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/heap_bytes.hpp"
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

/// Per-qubit accumulator for the single-qubit fusion pass: the segment's
/// Bloch map up to its last error site, if it has one, and the unitary chain
/// since then.
struct Pending {
  std::array<cplx, 4> u = kIdentity2;
  bool any = false;
  BlochMap map;
  bool has_site = false;
};

bool is_1q_unitary_kind(COpKind kind) {
  return kind == COpKind::Unitary1 || kind == COpKind::Diag1 ||
         kind == COpKind::SymDiag1 || kind == COpKind::SymUni1;
}

bool is_symbolic_kind(COpKind kind) {
  return kind == COpKind::SymDiag1 || kind == COpKind::SymUni1;
}

bool touches(const CompiledOp& op, int q) {
  if (op.q0 == q) return true;
  return (op.kind == COpKind::Cx || op.kind == COpKind::CRot2 ||
          op.kind == COpKind::Channel2) &&
         op.q1 == q;
}

CompiledOp make_op(COpKind kind, int q0, int q1, std::size_t arg) {
  return {kind, static_cast<std::uint8_t>(q0), static_cast<std::uint8_t>(q1),
          static_cast<std::uint32_t>(arg)};
}

/// Index of `value` in `table`, appending it when no bitwise-equal entry
/// exists: equal coefficient sets are stored once, and every site replays
/// exactly the doubles it was compiled with.
template <typename T>
std::size_t intern(std::vector<T>& table, const T& value) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (std::memcmp(&table[i], &value, sizeof(T)) == 0) return i;
  }
  table.push_back(value);
  return table.size() - 1;
}

/// The real rotation of a 2x2 unitary on the Pauli vector: U (v . sigma)
/// U^dag = (R v) . sigma, R[i][j] = tr(sigma_i U sigma_j U^dag) / 2, so a
/// global phase of U cancels. Column j is sigma_j conjugated by U, read off
/// its (0, 1) entry x - i y and its diagonal difference 2z.
std::array<std::array<double, 3>, 3> bloch_rotation(
    const std::array<cplx, 4>& u) {
  const cplx e = u[0] * std::conj(u[3]);
  const cplx f = u[1] * std::conj(u[2]);
  const cplx g = u[0] * std::conj(u[1]);
  const cplx h = u[2] * std::conj(u[3]);
  const cplx k = u[0] * std::conj(u[2]);
  const cplx m = u[1] * std::conj(u[3]);
  const double z_of_z =
      0.5 * ((std::norm(u[0]) - std::norm(u[1])) -
             (std::norm(u[2]) - std::norm(u[3])));
  return {{{e.real() + f.real(), e.imag() - f.imag(), k.real() - m.real()},
           {-(e.imag() + f.imag()), e.real() - f.real(), m.imag() - k.imag()},
           {g.real() - h.real(), g.imag() - h.imag(), z_of_z}}};
}

/// `after` applied to the output of `before`: with before = (B, b) and
/// after = (A, c), v -> A (B v + b a) + c a.
BlochMap compose(const BlochMap& after, const BlochMap& before) {
  BlochMap out;
  for (int i = 0; i < 3; ++i) {
    const std::array<double, 3>& row = after.m[i];
    for (int j = 0; j < 3; ++j) {
      out.m[i][j] = (row[0] * before.m[0][j] + row[1] * before.m[1][j]) +
                    row[2] * before.m[2][j];
    }
    out.shift[i] = ((row[0] * before.shift[0] + row[1] * before.shift[1]) +
                    row[2] * before.shift[2]) +
                   after.shift[i];
  }
  return out;
}

}  // namespace

BlochMap pulse_site_map(const std::array<cplx, 4>& u, const FusedChannel1& ch) {
  const std::array<std::array<double, 3>, 3> r = bloch_rotation(u);
  const double row_scale[3] = {ch.off, ch.off, ch.c};
  BlochMap map;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) map.m[i][j] = row_scale[i] * r[i][j];
  }
  map.shift = {0.0, 0.0, ch.t};
  return map;
}

FusedChannel1 fuse_pulse_channel(const PulseNoise& noise) {
  // Depolarizing(p) then thermal(gamma, lambda) on the Pauli vector of each
  // 2x2 block aI + xX + yY + zZ. Depolarizing keeps a and scales (x, y, z)
  // by 1 - p. Thermal moves gamma of the |1> population to |0> (z ->
  // (1 - gamma) z + gamma a) and scales the coherences (x, y) by
  // s = sqrt((1-gamma)(1-lambda)). Composing gives:
  const double keep = 1.0 - noise.depolarizing_p;
  const double gamma = noise.thermal.gamma;
  const double kg = 1.0 - gamma;
  FusedChannel1 ch;
  ch.off = keep * std::sqrt(kg * (1.0 - noise.thermal.lambda));
  ch.c = kg * keep;
  ch.t = gamma;
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
  require(circuit.num_qubits() <= 256,
          "compiled programs address at most 256 qubits");
  const bool noisy = noise.num_qubits() > 0;
  const int nq = circuit.num_qubits();

  CompiledProgram program;
  program.num_qubits_ = nq;
  program.stats_.source_ops = circuit.ops().size();

  auto emit = [&](COpKind kind, int q0, int q1, std::size_t arg) {
    program.ops_.push_back(make_op(kind, q0, q1, arg));
  };
  std::vector<Pending> pending(static_cast<std::size_t>(nq));
  // Per-qubit fused channels, precomputed once (circuits revisit qubits).
  std::vector<FusedChannel1> pulse_ch;
  if (noisy) {
    pulse_ch.reserve(static_cast<std::size_t>(nq));
    for (int q = 0; q < nq; ++q) pulse_ch.push_back(fuse_pulse_channel(noise.pulse_noise(q)));
  }

  // A segment with an error site ends as one Channel1 op, its trailing
  // chain rotating its map; any other segment ends as one Diag1 or Unitary1
  // op, or none when it is a global phase.
  auto flush = [&](int q) {
    Pending& p = pending[static_cast<std::size_t>(q)];
    if (p.has_site) {
      if (p.any && !is_global_phase(p.u)) {
        BlochMap rotation;
        rotation.m = bloch_rotation(p.u);
        p.map = compose(rotation, p.map);
      }
      emit(COpKind::Channel1, q, 0, intern(program.bloch_maps_, p.map));
      p = Pending{};
      return;
    }
    if (!p.any) return;
    if (!is_global_phase(p.u)) {
      if (is_diagonal(p.u)) {
        emit(COpKind::Diag1, q, 0, program.diagonals_.size());
        program.diagonals_.push_back({p.u[0], p.u[3]});
      } else {
        emit(COpKind::Unitary1, q, 0, program.unitaries_.size());
        program.unitaries_.push_back(p.u);
        ++program.stats_.fused_unitaries;
      }
    }
    p.u = kIdentity2;
    p.any = false;
  };

  auto accumulate = [&](int q, const std::array<cplx, 4>& m) {
    Pending& p = pending[static_cast<std::size_t>(q)];
    p.u = mul2(m, p.u);
    p.any = true;
  };

  // A pulse with an error site folds the chain that ends in it and the site
  // into its qubit's segment map. A noiseless pulse keeps the chain fusing
  // through it.
  auto pulse = [&](int q, const std::array<cplx, 4>& m) {
    accumulate(q, m);
    if (!noisy) return;
    const FusedChannel1& ch = pulse_ch[static_cast<std::size_t>(q)];
    if (ch.is_identity()) return;
    Pending& p = pending[static_cast<std::size_t>(q)];
    const BlochMap site = pulse_site_map(p.u, ch);
    p.map = p.has_site ? compose(site, p.map) : site;
    p.has_site = true;
    p.u = kIdentity2;
    p.any = false;
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
          // as one fused pass per rotation. A segment with an error site
          // ends here instead, the pending chain folded into its map.
          SymSlot slot;
          slot.angle_offset = phys.angle;
          slot.scale = phys.input_index >= 0 ? phys.input_scale : phys.theta_scale;
          slot.input_index = phys.input_index;
          slot.theta_index = phys.theta_index;
          COpKind kind = COpKind::SymDiag1;
          Pending& p = pending[static_cast<std::size_t>(phys.q0)];
          if (p.has_site) flush(phys.q0);
          if (p.any && !is_global_phase(p.u)) {
            kind = COpKind::SymUni1;
            slot.factor = static_cast<std::uint32_t>(program.unitaries_.size());
            program.unitaries_.push_back(p.u);
            ++program.stats_.fused_unitaries;
          }
          p.u = kIdentity2;
          p.any = false;
          emit(kind, phys.q0, 0, program.slots_.size());
          program.slots_.push_back(slot);
        } else {
          const std::array<cplx, 4> rz{std::exp(cplx{0.0, -phys.angle / 2.0}),
                                       0.0, 0.0,
                                       std::exp(cplx{0.0, phys.angle / 2.0})};
          accumulate(phys.q0, rz);
        }
        break;
      }
      case PhysOpKind::SX:
        pulse(phys.q0, sx_as_array2());
        break;
      case PhysOpKind::X:
        pulse(phys.q0, x_as_array2());
        break;
      case PhysOpKind::CX: {
        flush(phys.q0);
        flush(phys.q1);
        // A CX and its error site replay as one Channel2 pass, which reads
        // the CX relabel through its loads; a CX without one stays a Cx.
        const FusedChannel2 ch =
            noisy ? fuse_cx_channel(noise.cx_noise(std::min(phys.q0, phys.q1),
                                                   std::max(phys.q0, phys.q1)))
                  : FusedChannel2{};
        if (ch.is_identity()) {
          emit(COpKind::Cx, phys.q0, phys.q1, 0);
        } else {
          emit(COpKind::Channel2, phys.q0, phys.q1,
               intern(program.channel2_table_, ch));
          ++program.stats_.channels;
        }
        break;
      }
    }
  }
  for (int q = 0; q < nq; ++q) flush(q);

  // Loop to fixpoint: a fusion can bring another CX pair adjacent.
  while (program.fuse_cx_sandwiches()) {
  }
  program.drop_trailing_diagonals();
  program.repack();

  program.stats_.compiled_ops = program.ops_.size();
  return program;
}

std::array<cplx, 4> CompiledProgram::literal_matrix(const CompiledOp& op) const {
  if (op.kind == COpKind::Diag1) {
    const std::array<cplx, 2>& d = diagonal(op);
    return {d[0], cplx{0.0, 0.0}, cplx{0.0, 0.0}, d[1]};
  }
  return unitary(op);
}

/// One left-to-right pass fusing CX(c,t) [1q chain on t, <= 1 symbolic]
/// CX(c,t) patterns into CRot2 ops. Ops on unrelated qubits commute out of
/// the pattern and are re-emitted just before it. Anything touching the
/// control, any channel on the target, or a second symbolic op aborts that
/// candidate. The pool entries of absorbed ops stay behind until repack().
bool CompiledProgram::fuse_cx_sandwiches() {
  std::vector<CompiledOp> out;
  out.reserve(ops_.size());
  bool changed = false;
  std::size_t i = 0;
  while (i < ops_.size()) {
    const CompiledOp op = ops_[i];
    bool fused = false;
    if (op.kind == COpKind::Cx) {
      const int c = op.q0;
      const int t = op.q1;
      std::vector<CompiledOp> mid;
      std::vector<CompiledOp> others;
      int sym_count = 0;
      bool matched = false;
      std::size_t j = i + 1;
      for (; j < ops_.size(); ++j) {
        const CompiledOp& o = ops_[j];
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
        if (is_symbolic_kind(o.kind) && ++sym_count > 1) break;
        mid.push_back(o);
      }
      if (matched) {
        for (const CompiledOp& o : others) out.push_back(o);
        if (!mid.empty()) {
          CRotFactors f{kIdentity2, kIdentity2};
          SymSlot slot;  // the literal angle 0 unless the interior is symbolic
          bool after_sym = false;
          for (const CompiledOp& m : mid) {
            if (is_symbolic_kind(m.kind)) {
              after_sym = true;
              slot = slots_[m.arg];
              if (m.kind == COpKind::SymUni1) f.u = mul2(prefix(m), f.u);
            } else {
              auto& side = after_sym ? f.u2 : f.u;
              side = mul2(literal_matrix(m), side);
            }
          }
          slot.factor = static_cast<std::uint32_t>(crot_factors_.size());
          crot_factors_.push_back(f);
          out.push_back(make_op(COpKind::CRot2, c, t, slots_.size()));
          slots_.push_back(slot);
          ++stats_.fused_cx_sandwiches;
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
  ops_ = std::move(out);
  return changed;
}

void CompiledProgram::drop_trailing_diagonals() {
  // A diagonal unitary on a qubit no later non-diagonal op touches cannot
  // change measurement statistics: it commutes with the readout confusion,
  // which acts block-diagonally w.r.t. the computational basis. Walk
  // backwards and drop such Diag1/SymDiag1 ops. A segment site (Channel1)
  // blocks like a Unitary1: it carries at least one pulse.
  std::vector<char> blocked(static_cast<std::size_t>(num_qubits_), 0);
  std::vector<CompiledOp> kept;
  kept.reserve(ops_.size());
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    const CompiledOp& op = *it;
    switch (op.kind) {
      case COpKind::Diag1:
      case COpKind::SymDiag1:
        if (!blocked[op.q0]) {
          ++stats_.dropped_trailing;
          continue;  // dropped
        }
        break;
      case COpKind::SymUni1:
        // Diagonal only when the absorbed prefix is itself diagonal.
        if (is_diagonal(prefix(op)) && !blocked[op.q0]) {
          ++stats_.dropped_trailing;
          continue;  // dropped
        }
        blocked[op.q0] = 1;
        break;
      case COpKind::Unitary1:
      case COpKind::Channel1:  // a segment with its error sites
        blocked[op.q0] = 1;
        break;
      case COpKind::Cx:
      case COpKind::CRot2:
      case COpKind::Channel2:  // a CX with its error site
        blocked[op.q0] = 1;
        blocked[op.q1] = 1;
        break;
    }
    kept.push_back(op);
  }
  ops_.assign(kept.rbegin(), kept.rend());
}

void CompiledProgram::repack() {
  std::vector<std::array<cplx, 4>> unitaries;
  std::vector<std::array<cplx, 2>> diagonals;
  std::vector<SymSlot> slots;
  std::vector<CRotFactors> crot_factors;
  for (CompiledOp& op : ops_) {
    switch (op.kind) {
      case COpKind::Unitary1:
        op.arg = static_cast<std::uint32_t>(intern(unitaries, unitary(op)));
        break;
      case COpKind::Diag1:
        op.arg = static_cast<std::uint32_t>(intern(diagonals, diagonal(op)));
        break;
      case COpKind::SymDiag1:
      case COpKind::SymUni1:
      case COpKind::CRot2: {
        SymSlot s = slot(op);
        if (op.kind == COpKind::SymUni1) {
          s.factor = static_cast<std::uint32_t>(intern(unitaries, prefix(op)));
        } else if (op.kind == COpKind::CRot2) {
          crot_factors.push_back(crot(op));
          s.factor = static_cast<std::uint32_t>(crot_factors.size() - 1);
        }
        slots.push_back(s);
        op.arg = static_cast<std::uint32_t>(slots.size() - 1);
        break;
      }
      case COpKind::Cx:
      case COpKind::Channel1:
      case COpKind::Channel2:
        break;  // no pool entry, or an interned table entry (never orphaned)
    }
  }
  unitaries_ = std::move(unitaries);
  diagonals_ = std::move(diagonals);
  slots_ = std::move(slots);
  crot_factors_ = std::move(crot_factors);
  ops_.shrink_to_fit();
  unitaries_.shrink_to_fit();
  diagonals_.shrink_to_fit();
  slots_.shrink_to_fit();
  crot_factors_.shrink_to_fit();
  bloch_maps_.shrink_to_fit();
  channel2_table_.shrink_to_fit();
}

std::size_t CompiledProgram::heap_bytes() const {
  return qucad::heap_bytes(ops_) + qucad::heap_bytes(unitaries_) +
         qucad::heap_bytes(diagonals_) + qucad::heap_bytes(slots_) +
         qucad::heap_bytes(crot_factors_) + qucad::heap_bytes(bloch_maps_) +
         qucad::heap_bytes(channel2_table_);
}

std::array<cplx, 4> sym_uni_matrix(const std::array<cplx, 4>& prefix,
                                   double angle) {
  const auto [d0, d1] = rz_diag(angle);
  return {d0 * prefix[0], d0 * prefix[1], d1 * prefix[2], d1 * prefix[3]};
}

std::array<cplx, 4> crot_inner_matrix(const CRotFactors& f, double angle) {
  const std::array<cplx, 4> du = sym_uni_matrix(f.u, angle);  // diag * u
  return mul2(f.u2, du);
}

double resolve_sym_angle(const SymSlot& slot, std::span<const double> x,
                         std::span<const double> theta) {
  if (slot.input_index >= 0) {
    require(static_cast<std::size_t>(slot.input_index) < x.size(),
            "input vector too short for compiled op");
    return slot.scale * x[static_cast<std::size_t>(slot.input_index)] +
           slot.angle_offset;
  }
  if (slot.theta_index >= 0) {
    require(static_cast<std::size_t>(slot.theta_index) < theta.size(),
            "theta vector too short for compiled op");
    return slot.scale * theta[static_cast<std::size_t>(slot.theta_index)] +
           slot.angle_offset;
  }
  return slot.angle_offset;  // literal (CRot2 with a fully bound interior)
}

void CompiledProgram::require_inputs(std::span<const double> x) const {
  require(x.size() >= static_cast<std::size_t>(num_inputs_),
          "feature vector too short for compiled program");
}

}  // namespace qucad
