#pragma once

#include <chrono>
#include <cstddef>

#include "common/status.hpp"
#include "qnn/evaluator.hpp"
#include "repo/manager.hpp"

namespace qucad {

struct Environment;  // core/strategy.hpp

/// One consolidated configuration for the online serving surface. The
/// research pipeline spreads its knobs over nested option structs
/// (`PipelineConfig` holding `NoisyEvalOptions`, `ManagerOptions`, ADMM
/// settings, ...); the serving layer needs exactly two of those groups —
/// how to execute a request (`eval`) and how to react to a calibration
/// event (`manager`) — plus its own sharding/admission knobs, so they live
/// flat in one struct with builder-style setters and validated construction
/// (`InferenceService::create` rejects an invalid config with a Status
/// instead of aborting).
struct ServiceConfig {
  /// What to keep serving when a calibration event ends in a Guidance-2
  /// failure report (the matched repository cluster is invalid).
  enum class FailurePolicy {
    /// Keep the current epoch; the report carries the failure Status. The
    /// operator decides what to do — the service never silently serves a
    /// model the repository flagged as untrustworthy.
    kKeepServing,
    /// Hot-swap to the matched (weak) model anyway — the paper's Table-I
    /// accounting, where failure days still execute and the miss shows up
    /// in accuracy.
    kServeMatched,
  };

  /// Request-execution knobs: noise model options, executor cache, worker
  /// pool, and `eval.backend` — the execution regime every epoch compiles
  /// to (exact density noise by default; `eval.backend.shots` > 0 draws
  /// finite-shot readout from it, and kSampled serves hardware-like
  /// finite-shot predictions at statevector cost). Only shots == 0 gives
  /// predictions invariant under micro-batch boundaries. validate() rejects
  /// inconsistent backend combinations.
  NoisyEvalOptions eval;

  /// Repository-decision knobs for calibration events (the online-compression
  /// ADMM settings).
  ManagerOptions manager;

  FailurePolicy failure_policy = FailurePolicy::kKeepServing;

  /// Independent serving shards, each with its own micro-batch dispatcher
  /// and bounded queue; all of them serve the service's one current epoch.
  /// A request goes to the shard with the fewest outstanding requests
  /// (queued or mid-sweep), ties broken by a deterministic feature hash.
  /// One shard is a single-dispatcher service; more shards remove that
  /// bottleneck under concurrent load. Expectation backends stay
  /// bitwise-identical across shard counts (a request's logits do not
  /// depend on which shard's sweep computed them). Must be in
  /// [1, kMaxShards]: each shard starts one dispatcher thread.
  std::size_t num_shards = 1;

  /// Upper bound on `num_shards`, the same cap a fleet puts on devices.
  /// validate() enforces it, so a config decoded from untrusted artifact
  /// bytes cannot ask create() for an unbounded number of threads.
  static constexpr std::size_t kMaxShards = 256;

  /// Upper bound on requests coalesced into one compiled batch sweep.
  static constexpr std::size_t kMaxBatchSize = 32;

  /// Admission bound: requests queued per shard before submit_async sheds
  /// with kResourceExhausted instead of queuing unboundedly. Must be >= 1.
  std::size_t queue_capacity = 1024;

  /// Per-request deadline budget, measured from submission. A request still
  /// queued when its budget elapses fails with kDeadlineExceeded instead of
  /// being executed late (the dispatcher checks before each sweep). Zero
  /// disables the deadline.
  std::chrono::microseconds deadline_budget{0};

  ServiceConfig& with_failure_policy(FailurePolicy value) {
    failure_policy = value;
    return *this;
  }
  ServiceConfig& with_backend(BackendConfig backend) {
    eval.backend = backend;
    return *this;
  }
  ServiceConfig& with_num_shards(std::size_t value) {
    num_shards = value;
    return *this;
  }
  ServiceConfig& with_queue_capacity(std::size_t value) {
    queue_capacity = value;
    return *this;
  }
  ServiceConfig& with_deadline_budget(std::chrono::microseconds value) {
    deadline_budget = value;
    return *this;
  }

  /// OK when every knob is in range; the first violation otherwise.
  Status validate() const;

  /// Consolidates the serving-relevant groups (eval + manager_options) out
  /// of a prepared Environment — what InferenceService::create defaults to
  /// when no config is given, so a service built from an Environment
  /// evaluates exactly like the research harness did.
  static ServiceConfig from_environment(const Environment& env);
};

}  // namespace qucad
