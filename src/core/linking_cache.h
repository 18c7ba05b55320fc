// Sharded LRU cache for JIT linking results, keyed by
// (phrase, KG identity, mode).
//
// The linker's endpoint round-trips — the potentialRelevantVertices text
// query per entity phrase and the description lookup per cryptic predicate
// — are pure functions of the phrase and the KG contents, so repeated
// questions ("Who is the president of Egypt?", "Who is the president of
// France?") can skip them entirely.  The KG identity component of the key
// is the endpoint's name plus its update generation, so live AddNTriples
// updates invalidate naturally instead of serving stale links.
//
// The cache is sharded (key-hash → shard, each with its own mutex and LRU
// list) so the parallel linking fan-out does not serialize on one lock.
// Hit/miss counters are global atomics surfaced through the eval harness;
// every lookup is additionally mirrored into the process-wide metrics
// registry (linking_cache.hits/misses/evictions) and attributed to the
// calling thread's active obs::Trace for per-question accounting.

#ifndef KGQAN_CORE_LINKING_CACHE_H_
#define KGQAN_CORE_LINKING_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/agp.h"
#include "obs/metrics.h"

namespace kgqan::core {

struct LinkingCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  size_t entries = 0;

  double HitRate() const {
    size_t total = hits + misses;
    return total == 0 ? 0.0 : double(hits) / double(total);
  }
};

class LinkingCache {
 public:
  // `capacity` is the total entry budget per mode, split evenly across the
  // shards (minimum 1 per shard).
  explicit LinkingCache(size_t capacity);

  LinkingCache(const LinkingCache&) = delete;
  LinkingCache& operator=(const LinkingCache&) = delete;

  // Entity mode: relevant vertices of a node label.
  std::optional<std::vector<RelevantVertex>> GetVertices(
      std::string_view phrase, std::string_view kg) const;
  void PutVertices(std::string_view phrase, std::string_view kg,
                   const std::vector<RelevantVertex>& vertices);

  // Relation mode: human-readable description of a (cryptic) predicate.
  std::optional<std::string> GetPredicateDescription(std::string_view iri,
                                                     std::string_view kg) const;
  void PutPredicateDescription(std::string_view iri, std::string_view kg,
                               const std::string& description);

  LinkingCacheStats stats() const;
  void Clear();

 private:
  template <typename Value>
  class ShardedLru {
   public:
    static constexpr size_t kNumShards = 8;

    explicit ShardedLru(size_t capacity)
        : per_shard_capacity_(
              capacity / kNumShards > 0 ? capacity / kNumShards : 1) {}

    std::optional<Value> Get(const std::string& key) {
      Shard& shard = ShardFor(key);
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.index.find(key);
      if (it == shard.index.end()) return std::nullopt;
      // Move to front (most recently used).
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return it->second->second;
    }

    void Put(const std::string& key, const Value& value, size_t* evictions) {
      Shard& shard = ShardFor(key);
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        it->second->second = value;
        shard.order.splice(shard.order.begin(), shard.order, it->second);
        return;
      }
      shard.order.emplace_front(key, value);
      shard.index.emplace(key, shard.order.begin());
      if (shard.order.size() > per_shard_capacity_) {
        shard.index.erase(shard.order.back().first);
        shard.order.pop_back();
        ++*evictions;
      }
    }

    size_t TotalEntries() const {
      size_t n = 0;
      for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        n += shard.order.size();
      }
      return n;
    }

    void Clear() {
      for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.order.clear();
        shard.index.clear();
      }
    }

   private:
    struct Shard {
      mutable std::mutex mutex;
      // Front = most recently used.
      std::list<std::pair<std::string, Value>> order;
      std::unordered_map<std::string,
                         typename std::list<std::pair<std::string, Value>>::
                             iterator>
          index;
    };

    Shard& ShardFor(const std::string& key) {
      return shards_[std::hash<std::string>{}(key) % kNumShards];
    }

    size_t per_shard_capacity_;
    mutable std::array<Shard, kNumShards> shards_;
  };

  static std::string MakeKey(std::string_view phrase, std::string_view kg);

  // Bumps the internal counters, the registry mirrors, and the calling
  // thread's trace attribution for one lookup / `n` evictions.
  void RecordLookup(bool hit) const;
  void RecordEvictions(size_t n) const;

  // Mutable: Get() reorders the LRU lists and bumps counters; the cache is
  // logically read-only to const callers (the linker's const query path).
  mutable ShardedLru<std::vector<RelevantVertex>> vertices_;
  mutable ShardedLru<std::string> descriptions_;
  mutable std::atomic<size_t> hits_{0};
  mutable std::atomic<size_t> misses_{0};
  mutable std::atomic<size_t> evictions_{0};
  // Registry mirrors (shared by every cache in the process).
  obs::Counter* metric_hits_;
  obs::Counter* metric_misses_;
  obs::Counter* metric_evictions_;
};

}  // namespace kgqan::core

#endif  // KGQAN_CORE_LINKING_CACHE_H_
