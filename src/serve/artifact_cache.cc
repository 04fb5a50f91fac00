#include "serve/artifact_cache.h"

#include <exception>
#include <utility>

namespace rstlab::serve {

std::uint64_t HashContent(std::string_view content) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV offset basis
  for (const char c : content) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV prime
  }
  return hash;
}

ArtifactCache::ArtifactCache(std::size_t capacity,
                             obs::MetricsRegistry* metrics)
    : capacity_(capacity == 0 ? 1 : capacity), metrics_(metrics) {}

void ArtifactCache::CountLocked(std::uint64_t Stats::*counter,
                                const char* metric) {
  ++(stats_.*counter);
  if (metrics_ != nullptr) metrics_->Add(metric);
}

std::shared_ptr<const void> ArtifactCache::GetOrCreateErased(
    std::string_view kind, std::uint64_t content_hash,
    std::string_view content,
    const std::function<std::shared_ptr<const void>()>& factory) {
  Key key{std::string(kind), content_hash};
  std::unique_lock<std::mutex> lock(mutex_);
  // Same 64-bit FNV-1a hash, different bytes: serving the resident (or
  // in-flight) artifact would hand this request another payload's
  // results, and a crafted collision would let one tenant poison
  // another's. Build fresh and leave the resident entry alone.
  const auto collide = [&] {
    CountLocked(&Stats::collisions, "serve.cache.collisions");
    lock.unlock();
    return factory();
  };
  if (const auto it = index_.find(key); it != index_.end()) {
    if (it->second->content != content) return collide();
    lru_.splice(lru_.begin(), lru_, it->second);  // move to MRU
    CountLocked(&Stats::hits, "serve.cache.hits");
    return it->second->value;
  }
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    if (it->second.content != content) return collide();
    CountLocked(&Stats::hits, "serve.cache.hits");
    const std::shared_future<std::shared_ptr<const void>> result =
        it->second.result;
    lock.unlock();
    return result.get();
  }

  CountLocked(&Stats::misses, "serve.cache.misses");
  std::promise<std::shared_ptr<const void>> promise;
  inflight_.emplace(
      key, Flight{std::string(content), promise.get_future().share()});
  lock.unlock();
  std::shared_ptr<const void> value;
  try {
    value = factory();
  } catch (...) {
    lock.lock();
    inflight_.erase(key);
    lock.unlock();
    promise.set_exception(std::current_exception());
    throw;
  }
  lock.lock();
  // Retiring the flight and publishing the entry under one lock hold
  // leaves no window in which a request finds neither and rebuilds.
  std::string stored = std::move(inflight_.extract(key).mapped().content);
  if (value != nullptr) {
    lru_.push_front(Entry{key, std::move(stored), value});
    index_[std::move(key)] = lru_.begin();
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      CountLocked(&Stats::evictions, "serve.cache.evictions");
    }
  }
  lock.unlock();
  promise.set_value(value);
  return value;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.entries = lru_.size();
  return out;
}

}  // namespace rstlab::serve
