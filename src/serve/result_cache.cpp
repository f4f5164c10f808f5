#include "serve/result_cache.hpp"

#include <bit>
#include <cmath>

namespace qucad {

ResultCache::ResultCache(std::size_t capacity, double quantum)
    : capacity_(capacity), quantum_(quantum) {}

std::optional<ResultCache::Key> ResultCache::make_key(
    std::uint64_t epoch, std::span<const double> features) const {
  Key key;
  key.epoch = epoch;
  key.quantized.reserve(features.size());
  for (const double f : features) {
    if (quantum_ > 0.0) {
      // A bucket outside the int64 range (NaN, inf, huge readings) has no
      // key: llround would map all of them to one value.
      const double bucket = std::round(f / quantum_);
      if (!(bucket >= -0x1p63 && bucket < 0x1p63)) return std::nullopt;
      key.quantized.push_back(static_cast<std::int64_t>(bucket));
    } else {
      key.quantized.push_back(std::bit_cast<std::int64_t>(f));
    }
  }
  return key;
}

std::size_t ResultCache::KeyHash::operator()(const Key& key) const {
  // FNV-1a over the epoch and the quantized lanes.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(key.epoch);
  for (const std::int64_t q : key.quantized) {
    mix(static_cast<std::uint64_t>(q));
  }
  return static_cast<std::size_t>(h);
}

std::optional<Prediction> ResultCache::lookup(std::uint64_t epoch,
                                              std::span<const double> features) {
  if (!enabled()) return std::nullopt;
  const std::optional<Key> key = make_key(epoch, features);
  std::lock_guard<std::mutex> lock(mutex_);
  ++lookups_;
  if (!key.has_value()) return std::nullopt;
  const auto it = index_.find(*key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++hits_;
  return it->second->second;
}

void ResultCache::insert(std::uint64_t epoch, std::span<const double> features,
                         const Prediction& prediction) {
  if (!enabled()) return;
  std::optional<Key> key = make_key(epoch, features);
  if (!key.has_value()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(*key); it != index_.end()) {
    it->second->second = prediction;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (index_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(*std::move(key), prediction);
  index_.emplace(lru_.front().first, lru_.begin());
}

std::uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ResultCache::lookups() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lookups_;
}

std::size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

}  // namespace qucad
