#ifndef RSTLAB_SERVE_ARTIFACT_CACHE_H_
#define RSTLAB_SERVE_ARTIFACT_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.h"

namespace rstlab::serve {

/// 64-bit FNV-1a over `content` — the content hash the cache keys on.
/// Stable across platforms and processes, so a sharded deployment's
/// caches key identically.
std::uint64_t HashContent(std::string_view content);

/// A content-hash-keyed LRU cache for the per-request artifacts the
/// experiment service would otherwise rebuild on every request:
/// fingerprint setups, parsed and generated instances, parsed XML
/// documents and queries, analyzer certificates.
///
/// Lookup keys on (kind, HashContent(content)) — the kind string
/// partitions the namespace so two artifact types can never collide,
/// and the content hash means two requests carrying byte-identical
/// payloads share one artifact regardless of tenant or request id.
/// FNV-1a is fast but not collision-resistant, so every entry also
/// stores the full content and a hit verifies it byte-for-byte: a
/// colliding payload (accidental, or crafted by one tenant against
/// another's cached bytes) falls back to the factory instead of
/// silently observing the wrong artifact. Values are type-erased
/// shared_ptrs: readers hold their reference for as long as they need
/// it, so eviction never invalidates an in-flight request.
///
/// Thread safety: every public method is safe to call concurrently.
/// Factories run outside the cache lock, with single-flight per key: a
/// miss leaves an in-flight entry for its key while it builds, and
/// concurrent requests for the same key wait for that one build
/// instead of starting their own (they count as hits). Requests for
/// any other key never wait on it, however slow the factory is. A
/// factory that throws rethrows to its waiters and leaves no in-flight
/// entry behind, so the next request builds afresh.
///
/// Hit/miss/eviction totals are published to an optional
/// `obs::MetricsRegistry` as `serve.cache.hits`, `serve.cache.misses`
/// and `serve.cache.evictions`.
class ArtifactCache {
 public:
  struct Stats {
    /// Includes requests that waited on another request's build.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Hash matched but the stored content did not; served fresh from
    /// the factory, never from the cache.
    std::uint64_t collisions = 0;
    std::size_t entries = 0;

    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  /// A cache holding at most `capacity` artifacts (>= 1), publishing
  /// counters to `metrics` when non-null (not owned).
  explicit ArtifactCache(std::size_t capacity,
                         obs::MetricsRegistry* metrics = nullptr);

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// The artifact for (kind, content), building it via `factory` on
  /// miss. A null result from `factory` is not cached (failed builds
  /// retry on the next request); requests that waited on that build get
  /// null too.
  template <typename T>
  std::shared_ptr<const T> GetOrCreate(
      std::string_view kind, std::string_view content,
      const std::function<std::shared_ptr<const T>()>& factory) {
    std::shared_ptr<const void> erased = GetOrCreateErased(
        kind, HashContent(content), content,
        [&factory]() -> std::shared_ptr<const void> { return factory(); });
    return std::static_pointer_cast<const T>(erased);
  }

  /// Type-erased core. The hash is a separate parameter (exposed for
  /// tests) so a collision — same hash, different `content` — can be
  /// injected without searching for real FNV-1a colliding strings.
  std::shared_ptr<const void> GetOrCreateErased(
      std::string_view kind, std::uint64_t content_hash,
      std::string_view content,
      const std::function<std::shared_ptr<const void>()>& factory);

  Stats stats() const;

  std::size_t capacity() const { return capacity_; }

 private:
  struct Key {
    std::string kind;
    std::uint64_t hash = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return std::hash<std::string>()(key.kind) ^ key.hash;
    }
  };
  struct Entry {
    Key key;
    // The exact bytes the artifact was built from; hits verify against
    // it so a hash collision can never serve another payload's value.
    std::string content;
    std::shared_ptr<const void> value;
  };
  // A build in progress: its content (verified like an entry's) and
  // the future its waiters block on.
  struct Flight {
    std::string content;
    std::shared_future<std::shared_ptr<const void>> result;
  };

  void CountLocked(std::uint64_t Stats::*counter, const char* metric);

  std::size_t capacity_;
  obs::MetricsRegistry* metrics_;
  mutable std::mutex mutex_;
  // Most-recently-used at the front; map values point into the list.
  std::list<Entry> lru_;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  // Keys whose factory is running; never also in index_.
  std::unordered_map<Key, Flight, KeyHash> inflight_;
  Stats stats_;
};

}  // namespace rstlab::serve

#endif  // RSTLAB_SERVE_ARTIFACT_CACHE_H_
