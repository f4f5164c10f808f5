#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "common/require.hpp"

namespace qucad {

/// Outcome of a non-blocking push into a BoundedQueue.
enum class PushResult {
  kOk = 0,
  kFull,    ///< at capacity — the caller should shed, not wait
  kClosed,  ///< the consumer is shutting down
};

/// Bounded multi-producer single-consumer queue: the admission-control
/// primitive of the sharded serving layer. Producers never block — a push
/// against a full queue returns kFull immediately so the caller can shed
/// load (Status::resource_exhausted) instead of queuing unboundedly. The
/// single consumer drains with collect(): it waits for the first item and
/// takes whatever else is queued, so items that arrive while the consumer
/// is busy share its next batch. Capacity measures true backlog, and
/// producers feel backpressure the moment the consumer falls behind.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    require(capacity > 0, "BoundedQueue capacity must be at least 1");
  }

  /// Non-blocking; kFull at capacity, kClosed after close().
  PushResult try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Consumer side. Blocks until at least one item is available, then pops
  /// up to `max_items`. Returns an empty vector only when the queue is
  /// closed AND drained — the consumer's exit signal.
  std::vector<T> collect(std::size_t max_items) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return {};  // closed and drained

    const std::size_t take = std::min(items_.size(), max_items);
    std::vector<T> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return batch;
  }

  /// Producers start getting kClosed; the consumer drains what is queued,
  /// then collect() returns empty.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace qucad
