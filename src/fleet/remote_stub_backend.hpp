#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "backend/registry.hpp"
#include "common/status.hpp"

namespace qucad::fleet {

/// The registry kind the remote stub registers under by default
/// (`static_cast<BackendKind>(16)` — beyond the built-in enumerators, the
/// registry's documented extension range).
inline constexpr BackendKind kRemoteStubBackendKind =
    static_cast<BackendKind>(16);

/// Shaping knobs of the remote stub: how a cloud-queued QPU *feels*, never
/// what it computes.
struct RemoteStubOptions {
  /// The backend kind that actually computes the logits. Must differ from
  /// the kind the stub itself is registered under.
  BackendKind inner_kind = BackendKind::kSampled;

  /// Injected queueing wait per submission (one run_logits_batch call = one
  /// submission; run_logits is a batch of one).
  double queue_latency_seconds = 0.0;

  /// Extra wait per injected transient fault (the client's retry backoff).
  double retry_backoff_seconds = 0.0;

  /// Shot budget per remote job: a request whose per-sample shots exceed
  /// this is split into ceil(shots / max_shots_per_job) jobs, each subject
  /// to its own fault draw. 0 = unlimited (one job per sample).
  int max_shots_per_job = 0;

  /// Per-job probability of a transient unavailability. Each fault costs a
  /// retry (backoff wait + a stats tick); the job then re-runs, so results
  /// are never affected. In [0, 1).
  double fault_rate = 0.0;

  /// Seed of the fault stream. Job j draws from fault_seed + j (j is a
  /// monotone per-backend counter), so the *set* of per-job draws — and
  /// therefore the total fault count — is deterministic even when jobs are
  /// submitted from concurrent threads in varying order.
  std::uint64_t fault_seed = 2033;

  Status validate() const;
};

/// A hardware-in-the-loop stand-in: wraps an inner ExecutionBackend with
/// injected queueing latency, shot-batching limits, and transient
/// unavailability faults, so fleet and serving drills exercise realistic
/// backend stalls without hardware. Timing and stats are shaped; logits are
/// bitwise those of the inner backend — run_logits_batch forwards the WHOLE
/// batch in one inner call (the sampled backend seeds sample i at
/// seed + in-batch index, so splitting a batch would change its results).
///
/// All run methods are const and safe to call concurrently (stats counters
/// are atomics), matching the ExecutionBackend contract.
class RemoteStubBackend final : public ExecutionBackend {
 public:
  struct Stats {
    std::uint64_t submissions = 0;  ///< run_logits_batch calls
    std::uint64_t jobs = 0;         ///< shot-batched jobs submitted
    std::uint64_t faults = 0;       ///< transient unavailabilities injected
    double wait_seconds = 0.0;      ///< total injected queue + backoff wait
  };

  RemoteStubBackend(std::shared_ptr<const ExecutionBackend> inner,
                    RemoteStubOptions options,
                    BackendKind kind = kRemoteStubBackendKind);

  BackendKind kind() const override { return kind_; }
  BackendDiagnostics diagnostics() const override;

  std::vector<std::vector<double>> run_logits_batch(
      std::span<const std::vector<double>> xs,
      ThreadPool* pool = nullptr) const override;

  Stats stats() const;
  const ExecutionBackend& inner() const { return *inner_; }

 private:
  /// Accounts one submission of `samples` samples: assigns job ids, draws
  /// their fault streams, sleeps the injected waits, bumps the counters.
  void account_submission(std::size_t samples) const;

  std::shared_ptr<const ExecutionBackend> inner_;
  RemoteStubOptions options_;
  BackendKind kind_;
  int jobs_per_sample_;

  mutable std::atomic<std::uint64_t> submissions_{0};
  mutable std::atomic<std::uint64_t> jobs_{0};
  mutable std::atomic<std::uint64_t> faults_{0};
  mutable std::atomic<std::uint64_t> wait_micros_{0};
  mutable std::atomic<std::uint64_t> next_job_id_{0};
};

/// Installs a remote-stub factory under `kind` (default
/// kRemoteStubBackendKind) on `registry`. The factory builds the inner
/// backend through the SAME registry with the config's kind remapped to
/// options.inner_kind — every other config field (shots, seed) passes
/// through — then wraps it. After registration any config-driven consumer
/// (evaluator, harness, serving, fleet) selects the stub with
/// `BackendConfig{.kind = kind, ...}`.
Status register_remote_stub_backend(BackendRegistry& registry,
                                    RemoteStubOptions options,
                                    BackendKind kind = kRemoteStubBackendKind);

}  // namespace qucad::fleet
