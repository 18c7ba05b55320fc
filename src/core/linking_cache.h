// Cache for JIT linking results, scoped by KG identity.
//
// The linker's endpoint round-trips are pure functions of their input and
// the KG contents, so repeated questions ("Who is the president of
// Egypt?", "Who is the president of France?") can skip them.  Three modes:
//
//   * entity mode — the potentialRelevantVertices text probe's ranked
//     vertices per node label (Alg. 1), in a sharded LRU;
//   * description mode — the description of a cryptic predicate, in a
//     sharded LRU;
//   * anchor mode — the predicate IRIs of Alg. 2's outgoingPredicate(v) /
//     incomingPredicate(v) probe per (anchor vertex, direction), in probe
//     order, in a generation-scoped table.
//
// The KG identity is the endpoint's name plus its update generation
// (Endpoint::cache_identity()), so live AddNTriples updates invalidate
// naturally instead of serving stale links.  The LRU modes key entries by
// (phrase, identity).  The anchor table holds one identity at a time and
// is emptied when a lookup or put arrives under another one; its entries
// are interned predicate ids, and inserts stop at kAnchorTableCapacity
// entries (no eviction).  A hit hands out views of the interned IRIs,
// which stay valid for the cache's lifetime.
//
// The LRU modes are sharded (key-hash → shard, each with its own mutex and
// LRU list) so concurrent questions (QaServer workers) do not serialize on
// one lock; the anchor table sits behind one readers-writer lock.  Hit/miss
// counters are global atomics surfaced through the eval harness; every
// lookup of every mode is additionally mirrored into the process-wide
// metrics registry (linking_cache.hits/misses/evictions) and attributed to
// the calling thread's active obs::Trace for per-question accounting.

#ifndef KGQAN_CORE_LINKING_CACHE_H_
#define KGQAN_CORE_LINKING_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <optional>
#include <shared_mutex>
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
};

class LinkingCache {
 public:
  // Most (anchor, direction) predicate lists the anchor table holds for
  // one KG identity; puts past it are dropped.
  static constexpr size_t kAnchorTableCapacity = 32768;
  // Most distinct predicate IRIs the anchor table interns over the cache's
  // lifetime; a put that would intern more is dropped.
  static constexpr size_t kInternedPredicateCapacity = 65536;

  // `capacity` is the total entry budget of each LRU mode, split evenly
  // across the shards (minimum 1 per shard).
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

  // Anchor mode: the predicate IRIs of one (anchor, direction) probe —
  // `incoming` false for outgoingPredicate(anchor), true for
  // incomingPredicate(anchor) — in probe order.  On a hit fills
  // `predicates` (cleared first) with views of interned IRIs that outlive
  // every later Put and Clear, and returns true.
  bool GetAnchorPredicates(const std::string& anchor, bool incoming,
                           std::string_view kg,
                           std::vector<std::string_view>* predicates) const;
  void PutAnchorPredicates(const std::string& anchor, bool incoming,
                           std::string_view kg,
                           const std::vector<std::string_view>& predicates);

  // `entries` counts LRU entries of both modes plus stored anchor lists.
  LinkingCacheStats stats() const;
  // Empties every mode; interned predicate IRIs (and views of them) stay.
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

  // Anchor mode's store: one KG identity's (anchor, direction) predicate
  // lists as spans of a shared id arena, over an append-only interner.
  class AnchorTable {
   public:
    // Returns whether (anchor, incoming) is stored under `kg`; a lookup
    // under another identity empties the table first.
    bool Get(const std::string& anchor, bool incoming, std::string_view kg,
             std::vector<std::string_view>* predicates);
    void Put(const std::string& anchor, bool incoming, std::string_view kg,
             const std::vector<std::string_view>& predicates);
    size_t Entries() const;
    void Clear();

   private:
    static constexpr uint32_t kAbsent = UINT32_MAX;
    // Per anchor and direction: where its ids start in `ids_` (kAbsent
    // when that direction is not stored) and how many there are.
    struct Lists {
      uint32_t begin[2] = {kAbsent, kAbsent};
      uint32_t count[2] = {0, 0};
    };

    // Requires the exclusive lock.  Empties the lists (not the interner)
    // and adopts `kg`.
    void ResetTo(std::string_view kg);

    mutable std::shared_mutex mutex_;
    std::string identity_;
    std::unordered_map<std::string, Lists> lists_;
    std::vector<uint32_t> ids_;
    size_t entries_ = 0;
    // Interned predicate IRIs by id; deque elements never move, so views
    // of them stay valid while the interner grows.
    std::deque<std::string> iris_;
    std::unordered_map<std::string_view, uint32_t> iri_ids_;
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
  mutable AnchorTable anchors_;
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
