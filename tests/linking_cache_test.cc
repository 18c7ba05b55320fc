// Tests for the sharded LRU linking cache: hit/miss accounting, LRU
// eviction, KG-identity invalidation, and concurrent access.

#include "core/linking_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace kgqan::core {
namespace {

std::vector<RelevantVertex> SomeVertices(double score) {
  return {RelevantVertex{"http://x/a", score}, RelevantVertex{"http://x/b", score / 2}};
}

TEST(LinkingCacheTest, MissThenHit) {
  LinkingCache cache(64);
  EXPECT_FALSE(cache.GetVertices("president", "kg#0").has_value());
  cache.PutVertices("president", "kg#0", SomeVertices(0.9));
  auto hit = cache.GetVertices("president", "kg#0");
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->size(), 2u);
  EXPECT_EQ((*hit)[0].iri, "http://x/a");
  EXPECT_DOUBLE_EQ((*hit)[0].score, 0.9);

  LinkingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LinkingCacheTest, KgIdentitySeparatesEntries) {
  LinkingCache cache(64);
  cache.PutVertices("president", "kg#0", SomeVertices(0.9));
  // Same phrase, updated KG (generation bumped): a distinct key, so stale
  // links are never served after AddNTriples.
  EXPECT_FALSE(cache.GetVertices("president", "kg#1").has_value());
  EXPECT_TRUE(cache.GetVertices("president", "kg#0").has_value());
}

TEST(LinkingCacheTest, ModesDoNotCollide) {
  LinkingCache cache(64);
  cache.PutVertices("label", "kg#0", SomeVertices(1.0));
  EXPECT_FALSE(cache.GetPredicateDescription("label", "kg#0").has_value());
  cache.PutPredicateDescription("label", "kg#0", "a description");
  EXPECT_EQ(cache.GetPredicateDescription("label", "kg#0").value(),
            "a description");
  EXPECT_EQ(cache.GetVertices("label", "kg#0")->size(), 2u);
}

TEST(LinkingCacheTest, PutOverwritesAndRefreshes) {
  LinkingCache cache(64);
  cache.PutVertices("x", "kg", SomeVertices(0.1));
  cache.PutVertices("x", "kg", SomeVertices(0.7));
  auto hit = cache.GetVertices("x", "kg");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ((*hit)[0].score, 0.7);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(LinkingCacheTest, EvictsLeastRecentlyUsed) {
  // Capacity 8 over 8 shards = 1 entry per shard: any two same-shard keys
  // evict each other, so total entries stay bounded by capacity.
  LinkingCache cache(8);
  for (int i = 0; i < 100; ++i) {
    cache.PutVertices("phrase" + std::to_string(i), "kg", SomeVertices(0.5));
  }
  LinkingCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_GE(stats.evictions, 92u);
}

TEST(LinkingCacheTest, ClearEmptiesEverything) {
  LinkingCache cache(64);
  cache.PutVertices("a", "kg", SomeVertices(0.5));
  cache.PutPredicateDescription("p", "kg", "desc");
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.GetVertices("a", "kg").has_value());
}

TEST(LinkingCacheTest, ConcurrentReadersAndWriters) {
  LinkingCache cache(256);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t]() {
      for (int i = 0; i < 500; ++i) {
        std::string phrase = "p";
        phrase += std::to_string(i % 37);
        if ((i + t) % 2 == 0) {
          cache.PutVertices(phrase, "kg", SomeVertices(double(i % 10) / 10));
        } else {
          auto hit = cache.GetVertices(phrase, "kg");
          if (hit.has_value()) {
            EXPECT_EQ(hit->size(), 2u);  // Never a torn value.
          }
        }
        cache.PutPredicateDescription(phrase, "kg", "d" + phrase);
        auto d = cache.GetPredicateDescription(phrase, "kg");
        if (d.has_value()) {
          EXPECT_EQ(*d, "d" + phrase);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Per thread-iteration: one vertex Get on odd turns (250 of 500) and one
  // description Get every turn; Puts do not touch the hit/miss counters.
  LinkingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * (250u + 500u));
}

}  // namespace
}  // namespace kgqan::core
