#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace qucad {

class ThreadPool;

/// \file
/// The pluggable execution-backend API: one interface every consumer of
/// "classify this feature vector under some execution regime" goes through
/// (evaluator, longitudinal harness, serving layer, benches), with the
/// concrete regime selected by a BackendConfig instead of hard-coded
/// CompiledExecutor calls. The built-in backends are
///  - kDensityNoisy:     exact density-matrix evolution with calibrated
///                       channels; exact expectations, or finite-shot
///                       readout with BackendConfig::shots,
///  - kPureStatevector:  noise-free statevector expectations,
///  - kSampled:          finite-shot bitstring sampling from the compiled
///                       pure statevector with per-qubit readout confusion —
///                       hardware-like readout at statevector cost.
/// All three are one adapter, CompiledBackend (backend/registry.hpp), over
/// one CompiledExecutor (transpile/executor.hpp), whose lane state follows
/// its program: density matrix when it has error channels, statevector
/// otherwise.
/// New regimes (sharded pools, remote/hardware stubs) plug in through
/// BackendRegistry (backend/registry.hpp) without touching any consumer.

/// The execution regimes a BackendConfig can select.
enum class BackendKind : std::uint8_t {
  /// Exact density-matrix evolution with the calibration's noise channels
  /// folded in. Logits are exact expectations with BackendConfig::shots ==
  /// 0, finite-shot estimates of them otherwise.
  kDensityNoisy = 0,
  /// Noise-free compiled statevector expectations. The training-path engine;
  /// the only gradient-capable kind.
  kPureStatevector = 1,
  /// Finite-shot sampling from the compiled pure statevector with classical
  /// per-qubit readout confusion. BackendConfig::shots must be > 0.
  kSampled = 2,
};

/// Registry name of a kind ("density_noisy", "pure_statevector",
/// "sampled_statevector").
const char* backend_kind_name(BackendKind kind);

/// Introspection snapshot of one built backend, for logs and perf records.
struct BackendDiagnostics {
  std::string name;          ///< registry name of the kind
  BackendKind kind = BackendKind::kDensityNoisy;
  int num_qubits = 0;        ///< width of the compiled program
  int shots = 0;             ///< 0 = exact expectations
  std::size_t source_ops = 0;    ///< PhysOps lowered into the program
  std::size_t compiled_ops = 0;  ///< ops in the fused replay stream
};

/// Selects and parameterizes an execution backend. This is the config every
/// consumer-facing option struct carries (NoisyEvalOptions, HarnessOptions,
/// ServiceConfig) so a scenario picks its execution regime declaratively. Engine knobs that would poison executor-cache keys (noise
/// model options, worker pool, cache bypass) deliberately stay on the
/// consumer option structs; this struct only holds what defines the
/// backend itself.
struct BackendConfig {
  BackendKind kind = BackendKind::kDensityNoisy;

  /// Shots drawn per sample (0 = exact expectations). Required > 0 for
  /// kSampled; optional for kDensityNoisy, whose finite-shot readout ends in
  /// the same SlotReadout kernel; must stay 0 for kPureStatevector (select
  /// kSampled for noise-free finite-shot readout).
  int shots = 0;

  /// Base seed of the per-sample shot streams of every shot-drawing kind
  /// (sample i draws from seed + i, matching CompiledExecutor::run_z_batch).
  /// Unset, a shot-drawing backend draws its base seed from the OS entropy
  /// pool, so its estimates do not reproduce across builds.
  std::optional<std::uint64_t> seed = 99;

  BackendConfig& with_kind(BackendKind value) {
    kind = value;
    return *this;
  }
  BackendConfig& with_shots(int value) {
    shots = value;
    return *this;
  }
  BackendConfig& with_seed(std::optional<std::uint64_t> value) {
    seed = value;
    return *this;
  }

  /// OK when the knob combination is consistent; the first violation
  /// otherwise (negative shots, shots on kPureStatevector, kSampled without
  /// shots).
  Status validate() const;
};

/// One execution regime bound to one evaluation configuration (structure,
/// theta, calibration): the uniform front every consumer classifies
/// through. Instances are immutable after construction; all run methods are
/// const and safe to call concurrently (the epoch hot-swap and batched
/// evaluation paths rely on this).
///
/// Readout contract (same as the concrete engines): logits are ordered by
/// readout slot — entry k is `<Z>` (or its shot estimate) of class k, never
/// indexed by qubit id.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual BackendKind kind() const = 0;
  virtual BackendDiagnostics diagnostics() const = 0;

  /// Batched logits, spread over `pool` (nullptr = the process-global
  /// pool). The one compute entry point every backend implements.
  virtual std::vector<std::vector<double>> run_logits_batch(
      std::span<const std::vector<double>> xs,
      ThreadPool* pool = nullptr) const = 0;

  /// Class logits for one sample: run_logits_batch({x})[0], so it is
  /// bitwise sample 0 of a batch by construction.
  std::vector<double> run_logits(std::span<const double> x) const;
};

}  // namespace qucad
