#include "qnn/eval_cache.hpp"

#include <bit>
#include <iterator>

#include "common/require.hpp"

namespace qucad {

namespace {

/// FNV-1a accumulator; two instances with distinct offsets give a 128-bit
/// content key, making accidental collisions between distinct evaluation
/// configurations negligible.
struct Fnv {
  std::uint64_t state;
  std::uint64_t prime;

  Fnv(std::uint64_t offset, std::uint64_t prime_) : state(offset), prime(prime_) {}

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state ^= (v >> (8 * i)) & 0xffULL;
      state *= prime;
    }
  }
  void mix(int v) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

template <typename Mixer>
void hash_circuit_structure(Mixer& h, const Circuit& c) {
  h.mix(c.num_qubits());
  h.mix(static_cast<std::uint64_t>(c.gates().size()));
  for (const Gate& g : c.gates()) {
    h.mix(static_cast<std::uint64_t>(g.kind));
    h.mix(g.q0);
    h.mix(g.q1);
    h.mix(static_cast<std::uint64_t>(g.param.kind));
    h.mix(g.param.index);
    h.mix(g.value);
  }
}

template <typename Mixer>
void hash_noise_configuration(Mixer& h, const Calibration& calib,
                              const NoiseModelOptions& options) {
  // Calibration content.
  h.mix(calib.num_qubits());
  for (int q = 0; q < calib.num_qubits(); ++q) {
    h.mix(calib.sx_error(q));
    h.mix(calib.t1_us(q));
    h.mix(calib.t2_us(q));
    h.mix(calib.readout(q).p1_given_0);
    h.mix(calib.readout(q).p0_given_1);
  }
  h.mix(static_cast<std::uint64_t>(calib.edges().size()));
  for (const auto& [a, b] : calib.edges()) {
    h.mix(a);
    h.mix(b);
    h.mix(calib.cx_error(a, b));
  }

  // Noise-model options.
  h.mix(options.durations.sx_us);
  h.mix(options.durations.cx_us);
  h.mix(options.include_thermal_relaxation);
  h.mix(options.include_readout_error);
}

template <typename Mixer>
void hash_configuration(Mixer& h, const QnnModel& model,
                        const TranspiledModel& transpiled,
                        std::span<const double> theta,
                        const Calibration& calib,
                        const NoiseModelOptions& options) {
  h.mix(std::uint64_t{0x4e});  // key-domain tag: 'N'oisy executor

  // Readout slots (class order) — they pin the executor's z ordering.
  h.mix(static_cast<std::uint64_t>(model.readout_qubits.size()));
  for (int q : model.readout_qubits) h.mix(q);

  // Routed structure: gate list + final mapping.
  hash_circuit_structure(h, transpiled.routed.circuit);
  for (int p : transpiled.routed.final_mapping) h.mix(p);

  // Bound parameters.
  h.mix(static_cast<std::uint64_t>(theta.size()));
  for (double t : theta) h.mix(t);

  hash_noise_configuration(h, calib, options);
}

/// Physical-circuit key: the lowered op stream itself (including symbolic
/// slot references — two circuits differing only in a literal angle are
/// distinct programs) plus readout slots, calibration and noise options.
template <typename Mixer>
void hash_physical_configuration(Mixer& h, const PhysicalCircuit& circuit,
                                 const Calibration& calib,
                                 const NoiseModelOptions& options) {
  h.mix(std::uint64_t{0x48});  // key-domain tag: p'H'ysical-circuit executor
  h.mix(circuit.num_qubits());
  h.mix(static_cast<std::uint64_t>(circuit.readout_physical().size()));
  for (int q : circuit.readout_physical()) h.mix(q);
  h.mix(static_cast<std::uint64_t>(circuit.ops().size()));
  for (const PhysOp& op : circuit.ops()) {
    h.mix(static_cast<std::uint64_t>(op.kind));
    h.mix(op.q0);
    h.mix(op.q1);
    h.mix(op.angle);
    h.mix(op.input_index);
    h.mix(op.input_scale);
    h.mix(op.theta_index);
    h.mix(op.theta_scale);
  }
  hash_noise_configuration(h, calib, options);
}

/// Pure-executor key: structure + readout slots only. Theta never enters —
/// trainable angles stay symbolic through lowering, so one entry serves
/// every optimizer step (a theta update is a hit, results recomputed at
/// replay time).
template <typename Mixer>
void hash_pure_configuration(Mixer& h, const Circuit& circuit,
                             const std::vector<int>& readout_qubits) {
  h.mix(std::uint64_t{0x50});  // key-domain tag: 'P'ure executor
  h.mix(static_cast<std::uint64_t>(readout_qubits.size()));
  for (int q : readout_qubits) h.mix(q);
  hash_circuit_structure(h, circuit);
}

}  // namespace

PhysicalCircuit lower_noisy_circuit(const QnnModel& model,
                                    const TranspiledModel& transpiled,
                                    std::span<const double> theta) {
  require(!model.readout_qubits.empty(), "model has no readout qubits");
  PhysicalCircuit phys = lower_model(transpiled, theta);
  // Pin readout slots to the model's readout qubits in class order, whatever
  // the transpiled structure declared (hand-built TranspiledModels may have
  // left readout_logical empty): slot k of run_z output is class k.
  phys.readout_physical().clear();
  for (int lq : model.readout_qubits) {
    require(lq >= 0 &&
                static_cast<std::size_t>(lq) <
                    transpiled.routed.final_mapping.size(),
            "readout qubit outside the routed circuit");
    phys.readout_physical().push_back(transpiled.readout_physical(lq));
  }
  return phys;
}

std::shared_ptr<const CompiledExecutor> build_noisy_executor(
    const QnnModel& model, const TranspiledModel& transpiled,
    std::span<const double> theta, const Calibration& calibration,
    const NoiseModelOptions& noise_options) {
  return std::make_shared<const CompiledExecutor>(
      lower_noisy_circuit(model, transpiled, theta),
      NoiseModel(calibration, noise_options));
}

PhysicalCircuit lower_pure_circuit(const Circuit& circuit,
                                   const std::vector<int>& readout_qubits) {
  require(!readout_qubits.empty(), "no readout qubits");
  // Trivial routing: the circuit already lives on its final wires (a logical
  // model circuit, or a routed circuit trained on physical qubits).
  RoutedCircuit wrapped;
  wrapped.circuit = circuit;
  wrapped.final_mapping.resize(static_cast<std::size_t>(circuit.num_qubits()));
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    wrapped.final_mapping[static_cast<std::size_t>(q)] = q;
  }
  BasisOptions basis;
  basis.keep_trainable_symbolic = true;
  PhysicalCircuit phys = lower_to_basis(wrapped, {}, basis);
  phys.readout_physical().clear();
  for (int q : readout_qubits) {
    require(q >= 0 && q < circuit.num_qubits(), "readout qubit out of range");
    phys.readout_physical().push_back(q);
  }
  return phys;
}

std::shared_ptr<const CompiledExecutor> build_pure_executor(
    const Circuit& circuit, const std::vector<int>& readout_qubits) {
  return std::make_shared<const CompiledExecutor>(
      lower_pure_circuit(circuit, readout_qubits));
}

CompiledEvalCache::CompiledEvalCache(std::size_t capacity)
    : capacity_(capacity) {
  require(capacity > 0, "cache capacity must be positive");
  stats_.capacity = capacity;
}

CompiledEvalCache& CompiledEvalCache::global() {
  static CompiledEvalCache cache;
  return cache;
}

template <typename Build>
CompiledEvalCache::Entry CompiledEvalCache::get_or_build_entry(const Key& key,
                                                              Build&& build) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to front
      ++stats_.hits;
      return it->second->second;
    }
    ++stats_.misses;
  }

  // Build outside the lock: compilation is the expensive part and distinct
  // configurations should not serialize on each other.
  Entry entry = build();

  LruList victims;  // released after `lock`, which is declared later
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    // A concurrent caller built the same configuration first; share theirs.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(key, entry);
  index_.emplace(key, lru_.begin());
  evict_to_capacity_locked(victims);
  stats_.entries = lru_.size();
  return entry;
}

std::shared_ptr<const CompiledExecutor> CompiledEvalCache::get_or_build(
    const QnnModel& model, const TranspiledModel& transpiled,
    std::span<const double> theta, const Calibration& calibration,
    const NoiseModelOptions& noise_options) {
  // Two independent 64-bit mixes (distinct offsets and odd multipliers).
  Fnv h1(0xcbf29ce484222325ULL, 0x100000001b3ULL);
  Fnv h2(0x84222325cbf29ce4ULL, 0x9e3779b97f4a7c15ULL);
  hash_configuration(h1, model, transpiled, theta, calibration, noise_options);
  hash_configuration(h2, model, transpiled, theta, calibration, noise_options);
  return get_or_build_entry(Key{h1.state, h2.state}, [&] {
    return build_noisy_executor(model, transpiled, theta, calibration,
                                noise_options);
  });
}

std::shared_ptr<const CompiledExecutor> CompiledEvalCache::get_or_build_pure(
    const Circuit& circuit, const std::vector<int>& readout_qubits) {
  Fnv h1(0xcbf29ce484222325ULL, 0x100000001b3ULL);
  Fnv h2(0x84222325cbf29ce4ULL, 0x9e3779b97f4a7c15ULL);
  hash_pure_configuration(h1, circuit, readout_qubits);
  hash_pure_configuration(h2, circuit, readout_qubits);
  return get_or_build_entry(Key{h1.state, h2.state}, [&] {
    return build_pure_executor(circuit, readout_qubits);
  });
}

std::shared_ptr<const CompiledExecutor>
CompiledEvalCache::get_or_build_physical(
    const PhysicalCircuit& circuit, const Calibration& calibration,
    const NoiseModelOptions& noise_options) {
  Fnv h1(0xcbf29ce484222325ULL, 0x100000001b3ULL);
  Fnv h2(0x84222325cbf29ce4ULL, 0x9e3779b97f4a7c15ULL);
  hash_physical_configuration(h1, circuit, calibration, noise_options);
  hash_physical_configuration(h2, circuit, calibration, noise_options);
  return get_or_build_entry(Key{h1.state, h2.state}, [&] {
    return std::make_shared<const CompiledExecutor>(
        circuit, NoiseModel(calibration, noise_options));
  });
}

void CompiledEvalCache::evict_to_capacity_locked(LruList& victims) {
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    victims.splice(victims.end(), lru_, std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

EvalCacheStats CompiledEvalCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EvalCacheStats out = stats_;
  out.entries = lru_.size();
  out.capacity = capacity_;
  for (const auto& [key, entry] : lru_) {
    out.bytes += entry->footprint_bytes();
  }
  return out;
}

void CompiledEvalCache::clear() {
  LruList victims;  // released after `lock`, which is declared later
  std::lock_guard<std::mutex> lock(mutex_);
  victims.swap(lru_);
  index_.clear();
  stats_ = EvalCacheStats{};
  stats_.capacity = capacity_;
}

void CompiledEvalCache::set_capacity(std::size_t capacity) {
  require(capacity > 0, "cache capacity must be positive");
  LruList victims;  // released after `lock`, which is declared later
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  stats_.capacity = capacity;
  evict_to_capacity_locked(victims);
  stats_.entries = lru_.size();
}

}  // namespace qucad
