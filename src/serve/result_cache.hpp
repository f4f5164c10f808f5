#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/shard.hpp"

namespace qucad {

/// Epoch-keyed LRU over quantized feature vectors: repeated requests (a
/// sensor resubmitting near-identical readings, a monitoring probe) are
/// answered without queueing, admission, or a compiled sweep. Keys are
/// (epoch id, quantized features) — a hot-swap changes the id, so stale
/// answers are unreachable by construction and no invalidation pass exists.
/// With quantum == 0 features key on their exact bit patterns; a positive
/// quantum buckets each feature to its nearest multiple, trading exactness
/// for hit rate on analog inputs. The full quantized vector is stored in
/// the key (not just its hash), so a collision can never serve the wrong
/// prediction; a request with a feature whose bucket falls outside the
/// int64 range (NaN, inf, huge) is uncacheable — lookup misses, insert
/// drops it. Thread-safe; all methods may race.
class ResultCache {
 public:
  /// `capacity` == 0 disables the cache (lookup always misses, insert
  /// drops). `quantum` semantics as above.
  ResultCache(std::size_t capacity, double quantum);

  bool enabled() const { return capacity_ > 0; }

  /// The cached prediction for (epoch, features), or nullopt. A hit
  /// refreshes LRU recency.
  std::optional<Prediction> lookup(std::uint64_t epoch,
                                   std::span<const double> features);

  /// Stores a computed prediction; evicts the least-recently-used entry at
  /// capacity. Re-inserting an existing key refreshes its value.
  void insert(std::uint64_t epoch, std::span<const double> features,
              const Prediction& prediction);

  std::uint64_t hits() const;
  std::uint64_t lookups() const;
  std::size_t entries() const;

 private:
  struct Key {
    std::uint64_t epoch = 0;
    std::vector<std::int64_t> quantized;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };
  using Entry = std::pair<Key, Prediction>;

  /// nullopt when the request is uncacheable (see the class comment).
  std::optional<Key> make_key(std::uint64_t epoch,
                              std::span<const double> features) const;

  const std::size_t capacity_;
  const double quantum_;

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t lookups_ = 0;
};

}  // namespace qucad
