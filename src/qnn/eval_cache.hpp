#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "noise/calibration.hpp"
#include "noise/noise_model.hpp"
#include "qnn/model.hpp"
#include "transpile/executor.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {

/// The circuit build_noisy_executor compiles (and the oracles walk): the
/// routed model lowered at theta (compression peephole active), readout
/// slots pinned to the model's readout qubits in class order.
PhysicalCircuit lower_noisy_circuit(const QnnModel& model,
                                    const TranspiledModel& transpiled,
                                    std::span<const double> theta);

/// Builds the noisy executor for one (model, routed structure, theta,
/// calibration, noise options) configuration: compiles lower_noisy_circuit
/// against the calibration's noise model.
std::shared_ptr<const CompiledExecutor> build_noisy_executor(
    const QnnModel& model, const TranspiledModel& transpiled,
    std::span<const double> theta, const Calibration& calibration,
    const NoiseModelOptions& noise_options);

/// Builds the noisy executor for an already-lowered circuit: compiles
/// `circuit` against the calibration's noise model. For callers that hold a
/// PhysicalCircuit rather than a (model, transpiled, theta) triple, such as
/// zne_expectations under each scaled calibration.
std::shared_ptr<const CompiledExecutor> build_physical_executor(
    const PhysicalCircuit& circuit, const Calibration& calibration,
    const NoiseModelOptions& noise_options);

/// The circuit build_pure_executor compiles: `circuit` on a trivial routing
/// (qubit ids kept), lowered with BOTH input and trainable angles symbolic,
/// readout slot k pinned to readout_qubits[k].
PhysicalCircuit lower_pure_circuit(const Circuit& circuit,
                                   const std::vector<int>& readout_qubits);

/// Builds the compiled statevector engine for training/evaluating `circuit`
/// noise-free: compiles lower_pure_circuit once. theta is deliberately NOT
/// an input — the same executor serves every optimizer step.
std::shared_ptr<const CompiledExecutor> build_pure_executor(
    const Circuit& circuit, const std::vector<int>& readout_qubits);

struct EvalCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
  /// Resident bytes of the cached executors (their footprint_bytes()), at
  /// the time stats() was taken.
  std::size_t bytes = 0;
};

/// LRU cache of noisy (density-matrix) executors, keyed by a 128-bit
/// content hash of (readout slots, routed structure, THETA, calibration
/// values, noise options). Theta is part of the key because lowering binds
/// it — the compression peephole specializes the circuit to the parameter
/// values.
///
/// The registry's kDensityNoisy factory (backend/registry.hpp) resolves its
/// engine here when BackendContext::use_cache is set, so building a backend
/// for an already-seen configuration costs a hash lookup plus a thin
/// wrapper. Everything else owns the executor it replays: training and
/// noise-free accuracy build one pure program per call (build_pure_executor)
/// and ZNE one noisy program per scale factor (build_physical_executor).
///
/// Keys are value-based content hashes, so any caller presenting the same
/// configuration shares one compiled executor. Entries are handed out as
/// shared_ptr, so eviction never invalidates a running evaluation.
/// Thread-safe. Eviction, clear() and set_capacity() unlink their victims
/// under the lock but release them after it, so freeing executors never
/// stalls a concurrent lookup.
class CompiledEvalCache {
 public:
  explicit CompiledEvalCache(std::size_t capacity = 64);

  /// Process-wide cache used by the backend registry's density factory
  /// (BackendContext::use_cache — which covers noisy_evaluate, the
  /// longitudinal harness and the serving layer).
  static CompiledEvalCache& global();

  std::shared_ptr<const CompiledExecutor> get_or_build(
      const QnnModel& model, const TranspiledModel& transpiled,
      std::span<const double> theta, const Calibration& calibration,
      const NoiseModelOptions& noise_options);

  EvalCacheStats stats() const;
  void clear();
  /// Shrinks/extends the LRU capacity (evicting immediately if needed).
  void set_capacity(std::size_t capacity);

 private:
  struct Key {
    std::uint64_t h1 = 0;
    std::uint64_t h2 = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.h1 ^ (k.h2 * 0x9e3779b97f4a7c15ULL));
    }
  };
  /// One cached noisy executor.
  using Entry = std::shared_ptr<const CompiledExecutor>;
  using LruList = std::list<std::pair<Key, Entry>>;

  /// Unlinks the least recently used entries past capacity into `victims`,
  /// which the caller releases after unlocking.
  void evict_to_capacity_locked(LruList& victims);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  EvalCacheStats stats_;
};

}  // namespace qucad
