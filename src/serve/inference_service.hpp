#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "backend/backend.hpp"
#include "common/status.hpp"
#include "core/strategy.hpp"
#include "repo/manager.hpp"
#include "serve/service_config.hpp"
#include "serve/shard.hpp"

namespace qucad {

/// What a calibration event did to the service.
struct CalibrationReport {
  /// The repository decision (reuse / new model / Guidance-2 failure).
  OnlineManager::Decision decision;
  /// The epoch serving AFTER the event (unchanged when swapped is false).
  std::uint64_t epoch = 0;
  /// True when the event installed a new executor.
  bool swapped = false;
  /// OK unless the matched cluster was invalid (Guidance 2); then the
  /// kUnavailable status an operator should alert on. With
  /// FailurePolicy::kKeepServing the old epoch keeps serving; with
  /// kServeMatched the weak matched model was installed despite this.
  Status failure;
};

/// Monitoring counters; all reads are thread-safe snapshots. Serving-path
/// counters (requests/batches/coalesced/shed/deadline_misses/queue_depth)
/// aggregate over every shard plus the direct submit_batch path.
struct ServingStats {
  std::uint64_t requests = 0;        ///< samples served (submit* variants)
  std::uint64_t batches = 0;         ///< compiled batch sweeps executed
  std::uint64_t coalesced = 0;       ///< async requests that shared a sweep
  std::uint64_t swaps = 0;           ///< epochs installed (including the first)
  std::uint64_t reuses = 0;          ///< calibration events answered from the repository
  std::uint64_t compressions = 0;    ///< calibration events that compressed a new model
  std::uint64_t failures = 0;        ///< Guidance-2 failure reports
  std::uint64_t shed = 0;            ///< requests refused with kResourceExhausted
  std::uint64_t deadline_misses = 0; ///< requests expired (kDeadlineExceeded) while queued
  std::uint64_t queue_depth = 0;     ///< instantaneous backlog across all shards
  std::uint64_t cache_hits = 0;      ///< requests answered from the result cache
  std::uint64_t cache_lookups = 0;   ///< result-cache probes (hits + misses)
};

/// Synchronized repository/decision snapshot, taken under the calibration
/// lock — the supported way for monitoring loops to observe repository
/// state while on_calibration events race (the `manager()` accessor is NOT
/// synchronized; see its comment).
struct RepositorySnapshot {
  std::size_t entries = 0;            ///< models stored in the repository
  double threshold = 0.0;             ///< current match threshold
  int optimizations = 0;              ///< online compressions run so far
  int reuses = 0;                     ///< days answered by a stored model
  double total_optimize_seconds = 0.0;///< cumulative online-compression cost
};

/// Thread-safe online serving surface for a compressed-model repository —
/// the deployment shape of the paper's Sec. III-D loop ("each day's
/// calibration picks a model; requests are classified under that day's
/// noise"):
///
///  - `create` validates its inputs (Status, not aborts) and takes
///    ownership of the model, routing, training data and repository BY
///    VALUE: the service cannot dangle, whatever the caller does with the
///    setup-scope objects it was built from.
///  - `submit_async` never blocks on the batch window: the request is
///    routed to one of `ServiceConfig::num_shards` independent shards
///    (least-loaded, with a deterministic feature-hash fallback — or pure
///    hash routing under RoutingPolicy::kHash) and the caller gets a
///    future. Each shard owns a BOUNDED queue and its own micro-batch
///    dispatcher: a full queue sheds the request with kResourceExhausted
///    instead of queuing unboundedly, and a request still queued past
///    `deadline_budget` fails with kDeadlineExceeded instead of executing
///    late — under overload the service degrades by refusing work in
///    microseconds, not by letting tail latency collapse. An optional
///    epoch-keyed result cache answers repeated (quantized) feature
///    vectors without queueing at all. `submit` is a thin blocking shim
///    (`submit_async(...).get()`); `submit_batch` sweeps a caller-assembled
///    batch directly on one shard's epoch, bypassing queue and window.
///  - `on_calibration` runs the repository decision for a new calibration
///    snapshot (reuse / compress-new / failure report) and hot-swaps the
///    compiled backend shard by shard: epochs are immutable shared_ptr
///    snapshots (same id across shards, per-shard backend instance built
///    through the registry), so in-flight batches finish on the program
///    they started with and every prediction names the epoch that produced
///    it.
///
/// Concurrency contract: `submit`, `submit_async`, `submit_batch`,
/// `active_epoch`, `stats`, `shard_stats` and `repository_snapshot` may be
/// called from any number of threads, concurrently with one another and
/// with `on_calibration`. `on_calibration` itself is serialized internally
/// (events are processed one at a time, in arrival order). `manager()`
/// exposes the underlying repository object for single-threaded inspection
/// and is NOT synchronized against concurrent `on_calibration` — monitoring
/// loops read `stats()` / `repository_snapshot()` instead.
///
/// With an expectation backend (the default exact density engine, or
/// kPureStatevector) predictions are exact: a request's logits are
/// bitwise-identical however requests are split into micro-batches and
/// whatever pool serves them. Shot-sampled serving (`eval.backend.shots > 0`
/// on the density engine, or the kSampled backend) draws each batch's RNG
/// streams from the batch layout (sample i of a batch samples from
/// seed + i), so determinism then holds only for a fixed request->batch
/// assignment.
class InferenceService {
 public:
  /// Builds a service serving `env.model` (routed as `env.transpiled`,
  /// pretrained at `env.theta_pretrained`) against `repository`. The first
  /// epoch compiles the pretrained parameters under `initial_calibration`;
  /// feed subsequent calibration snapshots through on_calibration. Pass an
  /// empty repository to bootstrap online (Table-I "QuCAD w/o offline").
  ///
  /// When `config` is not given it is consolidated from the environment
  /// (ServiceConfig::from_environment), so the service evaluates exactly
  /// like the research harness evaluated `env`.
  static StatusOr<InferenceService> create(
      Environment env, ModelRepository repository,
      const Calibration& initial_calibration,
      std::optional<ServiceConfig> config = std::nullopt);

  /// Drains in-flight requests, then stops the dispatcher.
  ~InferenceService();

  InferenceService(InferenceService&&) noexcept;
  InferenceService& operator=(InferenceService&&) noexcept;
  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Classifies one feature vector without blocking on the batch window:
  /// the request is admission-checked, routed to a shard, and the caller
  /// gets a future that resolves when the shard's dispatcher sweeps it (or
  /// immediately, on a result-cache hit). The future carries
  /// kInvalidArgument for a malformed request (wrong feature arity; never
  /// enqueued), kResourceExhausted when the routed shard's queue is full
  /// (shed; never enqueued), kDeadlineExceeded when the request out-waited
  /// its `deadline_budget` in the queue, and kUnavailable once the service
  /// is shutting down. The returned future is always valid and always
  /// resolves — errors arrive through it, not as exceptions.
  std::future<StatusOr<Prediction>> submit_async(std::vector<double> features);

  /// Blocking shim over submit_async: classifies one feature vector and
  /// waits for the result. Concurrent callers are coalesced into shared
  /// compiled sweeps by the shard dispatchers.
  StatusOr<Prediction> submit(std::vector<double> features);

  /// Classifies a caller-assembled batch through one compiled sweep,
  /// bypassing the coalescing window (the batch is already a batch).
  /// All-or-nothing validation: any malformed sample fails the whole call.
  StatusOr<std::vector<Prediction>> submit_batch(
      std::span<const std::vector<double>> batch);

  /// Processes one calibration snapshot: repository match -> reuse, or
  /// online noise-aware compression -> new repository entry, or Guidance-2
  /// failure report — then hot-swaps the active executor (subject to
  /// FailurePolicy). Slow on compression days by design; requests keep
  /// being served from the current epoch throughout.
  StatusOr<CalibrationReport> on_calibration(const Calibration& calibration);

  /// Id of the epoch currently serving (monotonically increasing from 1).
  std::uint64_t active_epoch() const;

  /// Parameters the active epoch serves (the repository entry installed by
  /// the last swap, or the pretrained theta before any swap).
  std::vector<double> active_theta() const;

  ServingStats stats() const;

  /// Per-shard monitoring counters, index-aligned with the configured
  /// shards. Routing tests and dashboards read these to see how the router
  /// spread the traffic.
  std::vector<ShardStats> shard_stats() const;

  /// Repository/decision state, snapshotted under the calibration lock —
  /// safe to call from monitoring loops while on_calibration events race.
  RepositorySnapshot repository_snapshot() const;

  /// Repository/decision state as a live reference. Not synchronized
  /// against a concurrent on_calibration — single-threaded inspection only
  /// (tests, post-shutdown analysis). Monitoring loops use
  /// repository_snapshot() / stats() instead.
  const OnlineManager& manager() const;

 private:
  struct Impl;
  explicit InferenceService(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace qucad
