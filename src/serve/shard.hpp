#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "backend/backend.hpp"
#include "common/bounded_queue.hpp"
#include "common/status.hpp"
#include "serve/admission.hpp"
#include "serve/service_config.hpp"

namespace qucad {

/// One classified request.
struct Prediction {
  /// argmax over `logits` — the predicted class.
  int label = -1;
  /// Class logits, read positionally per the readout-slot contract: entry k
  /// is `<Z>` of readout slot k (class k), never indexed by qubit id.
  std::vector<double> logits;
  /// The serving epoch that produced this prediction. Every request of one
  /// micro-batch carries the same epoch, and a hot-swap never changes the
  /// epoch of an in-flight batch.
  std::uint64_t epoch = 0;
  /// Execution regime that produced the logits (the epoch's configured
  /// backend): exact density noise, noise-free statevector, or finite-shot
  /// sampled readout. Lets downstream consumers weigh a prediction by how
  /// it was computed.
  BackendKind backend = BackendKind::kDensityNoisy;
};

/// One immutable serving snapshot: the model one calibration event chose,
/// compiled once for that day's noise. A hot-swap publishes a new snapshot;
/// batches that already hold one finish on it untouched.
struct Epoch {
  std::uint64_t id = 0;
  std::vector<double> theta;
  std::shared_ptr<const ExecutionBackend> backend;
};

/// The service's one current epoch. Every shard dispatcher and the
/// service's submit paths read it; the service replaces it in a single
/// store, so every shard moves to a new epoch at once or not at all.
class EpochSlot {
 public:
  std::shared_ptr<const Epoch> load() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return epoch_;
  }

  void store(std::shared_ptr<const Epoch> epoch) {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch_ = std::move(epoch);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const Epoch> epoch_;
};

/// Deterministic request-to-shard assignment: FNV-1a over the feature bit
/// patterns, reduced mod `num_shards`. The same feature vector routes to
/// the same shard on every call, every service instance, every process —
/// the fallback the router uses to break outstanding-request ties.
std::size_t route_by_hash(std::span<const double> features,
                          std::size_t num_shards);

/// Monitoring snapshot of one shard (all counters relaxed-atomic reads).
struct ShardStats {
  std::uint64_t requests = 0;         ///< samples served by this shard's sweeps
  std::uint64_t batches = 0;          ///< compiled sweeps executed
  std::uint64_t coalesced = 0;        ///< requests that shared a sweep
  std::uint64_t shed = 0;             ///< requests bounced off the full queue
  std::uint64_t deadline_misses = 0;  ///< requests expired while queued
  std::uint64_t queue_depth = 0;      ///< instantaneous backlog
};

/// One serving shard: a bounded request queue and a micro-batch dispatcher
/// thread. The InferenceService routes submit_async() requests across N of
/// these; each shard is single-consumer by construction, so the dispatcher
/// needs no coordination with its peers — the only cross-shard state is the
/// service's EpochSlot and the AdmissionController (deadline policy and
/// clock).
class ServingShard {
 public:
  /// `config`, `admission` and `epoch` are borrowed and must outlive the
  /// shard (the owning service guarantees it).
  ServingShard(std::size_t index, const ServiceConfig& config,
               const AdmissionController& admission, const EpochSlot& epoch);

  /// Closes the queue, drains in-flight requests, joins the dispatcher.
  ~ServingShard();

  ServingShard(const ServingShard&) = delete;
  ServingShard& operator=(const ServingShard&) = delete;

  /// Spawns the dispatcher. Called once, after the service installed its
  /// first epoch — the dispatcher assumes the slot is never empty.
  /// kUnavailable when the thread cannot be spawned.
  Status start();

  /// Admission-controlled enqueue. The future resolves with the
  /// prediction, kResourceExhausted (queue full — never queued),
  /// kDeadlineExceeded (expired while queued), or kUnavailable (shutdown).
  /// Features are validated by the service before routing.
  std::future<StatusOr<Prediction>> enqueue(std::vector<double> features);

  /// One synchronous compiled sweep on `epoch` (the caller-assembled
  /// submit_batch path — bypasses the queue, counted against this shard).
  /// Throws on library invariant failures; the service converts to Status.
  std::vector<Prediction> run_batch(const Epoch& epoch,
                                    std::span<const std::vector<double>> xs);

  std::size_t index() const { return index_; }
  /// Requests admitted to this shard whose futures are not yet resolved:
  /// queued or inside the current sweep. The router's load signal: a shard
  /// that is mid-sweep has an empty queue but is not idle.
  std::uint64_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }
  ShardStats stats() const;

 private:
  struct QueuedRequest {
    std::vector<double> features;
    std::promise<StatusOr<Prediction>> promise;
    Clock::TimePoint enqueued;
  };

  void dispatch_loop();
  void serve_pending(std::vector<QueuedRequest>& batch);
  /// Releases the request's outstanding slot, then resolves its future: the
  /// promise is the request's last touch of shard state, so a caller whose
  /// future resolved already sees this shard as one request lighter.
  void resolve(std::promise<StatusOr<Prediction>>& promise,
               StatusOr<Prediction> result);

  const std::size_t index_;
  const ServiceConfig& config_;
  const AdmissionController& admission_;
  const EpochSlot& epoch_;

  BoundedQueue<QueuedRequest> queue_;
  std::thread dispatcher_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_misses_{0};
  std::atomic<std::uint64_t> outstanding_{0};
};

}  // namespace qucad
