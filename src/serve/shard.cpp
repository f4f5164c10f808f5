#include "serve/shard.hpp"

#include <bit>
#include <exception>
#include <string>
#include <system_error>
#include <utility>

#include "common/stats.hpp"

namespace qucad {

std::size_t route_by_hash(std::span<const double> features,
                          std::size_t num_shards) {
  // FNV-1a over the feature bit patterns: stable across processes, cheap,
  // and well-spread for the near-identical vectors real sensors emit.
  std::uint64_t h = 14695981039346656037ull;
  for (const double f : features) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(f);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return num_shards == 0 ? 0 : static_cast<std::size_t>(h % num_shards);
}

ServingShard::ServingShard(std::size_t index, const ServiceConfig& config,
                           const AdmissionController& admission,
                           const EpochSlot& epoch)
    : index_(index),
      config_(config),
      admission_(admission),
      epoch_(epoch),
      queue_(config.queue_capacity) {}

ServingShard::~ServingShard() {
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

Status ServingShard::start() {
  try {
    dispatcher_ = std::thread([this] { dispatch_loop(); });
  } catch (const std::system_error& e) {
    return Status::unavailable(
        std::string("cannot start a shard dispatcher: ") + e.what());
  }
  return Status();
}

std::future<StatusOr<Prediction>> ServingShard::enqueue(
    std::vector<double> features) {
  QueuedRequest request;
  request.features = std::move(features);
  request.enqueued = admission_.stamp();
  std::future<StatusOr<Prediction>> result = request.promise.get_future();

  // Counted before the push: once queued, the dispatcher may serve the
  // request (and release its slot) before try_push even returns.
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  const PushResult pushed = queue_.try_push(std::move(request));
  if (pushed == PushResult::kOk) return result;
  outstanding_.fetch_sub(1, std::memory_order_relaxed);

  // The rejected request (promise included) died inside try_push; hand the
  // caller a fresh, already-resolved future instead.
  std::promise<StatusOr<Prediction>> failed;
  result = failed.get_future();
  if (pushed == PushResult::kClosed) {
    failed.set_value(Status::unavailable("service is shutting down"));
  } else {
    shed_.fetch_add(1, std::memory_order_relaxed);
    failed.set_value(AdmissionController::shed(index_, queue_.capacity()));
  }
  return result;
}

std::vector<Prediction> ServingShard::run_batch(
    const Epoch& epoch, std::span<const std::vector<double>> xs) {
  std::vector<std::vector<double>> zs =
      epoch.backend->run_logits_batch(xs, config_.eval.pool);
  std::vector<Prediction> predictions(zs.size());
  for (std::size_t i = 0; i < zs.size(); ++i) {
    predictions[i].label = static_cast<int>(argmax(zs[i]));
    predictions[i].logits = std::move(zs[i]);
    predictions[i].epoch = epoch.id;
    predictions[i].backend = epoch.backend->kind();
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  requests_.fetch_add(predictions.size(), std::memory_order_relaxed);
  return predictions;
}

void ServingShard::dispatch_loop() {
  // Serve whatever is queued on waking: requests that arrive during a sweep
  // share the next one.
  for (;;) {
    std::vector<QueuedRequest> batch =
        queue_.collect(ServiceConfig::kMaxBatchSize);
    if (batch.empty()) return;  // closed and drained
    serve_pending(batch);
  }
}

void ServingShard::resolve(std::promise<StatusOr<Prediction>>& promise,
                           StatusOr<Prediction> result) {
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  promise.set_value(std::move(result));
}

void ServingShard::serve_pending(std::vector<QueuedRequest>& batch) {
  // Deadline gate: a request whose budget elapsed while it queued fails
  // here — late answers are worthless to a deadline-carrying caller, and
  // skipping them sheds exactly the work a saturated shard cannot afford.
  std::vector<QueuedRequest> live;
  live.reserve(batch.size());
  for (QueuedRequest& request : batch) {
    Status status = admission_.admit_for_execution(request.enqueued);
    if (status.ok()) {
      live.push_back(std::move(request));
    } else {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      resolve(request.promise, std::move(status));
    }
  }
  if (live.empty()) return;

  const std::shared_ptr<const Epoch> epoch = epoch_.load();
  std::vector<std::vector<double>> features;
  features.reserve(live.size());
  for (QueuedRequest& request : live) {
    features.push_back(std::move(request.features));
  }
  try {
    std::vector<Prediction> predictions = run_batch(*epoch, features);
    if (live.size() > 1) {
      // Count before fulfilling: a caller that reads stats right after its
      // future resolves must already see its own coalescing.
      coalesced_.fetch_add(live.size(), std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      resolve(live[i].promise, std::move(predictions[i]));
    }
  } catch (const std::exception& e) {
    // Features were validated at submission; anything thrown here is a
    // library invariant failure. Fail the batch, keep the shard up.
    for (QueuedRequest& request : live) {
      resolve(request.promise,
              Status::internal(std::string("batch sweep failed: ") + e.what()));
    }
  }
}

ShardStats ServingShard::stats() const {
  ShardStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_.size();
  return stats;
}

}  // namespace qucad
