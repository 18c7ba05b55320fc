// Unit and integration coverage for the cross-question answer cache:
// the sharded LRU itself (hit/miss accounting, eviction order, per-KG key
// separation, Clear), the engine's cache path (repeated questions hit,
// answers byte-identical to the uncached pipeline), generation-keyed
// invalidation (a live AddNTriples makes every prior entry unreachable —
// stale answers are never served), cache sharing across engines, and the
// QaServer stats roll-up.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/answer_cache.h"
#include "core/config.h"
#include "core/engine.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "serve/qa_server.h"
#include "sparql/canonical.h"
#include "sparql/endpoint.h"
#include "sparql/parser.h"
#include "sparql/result_set.h"

namespace kgqan::core {
namespace {

using rdf::StringLiteral;

constexpr const char* kDbr = "http://dbpedia.org/resource/";
constexpr const char* kDbo = "http://dbpedia.org/ontology/";
constexpr const char* kLabel = "http://www.w3.org/2000/01/rdf-schema#label";
constexpr const char* kType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

std::string R(const std::string& x) { return kDbr + x; }
std::string O(const std::string& x) { return kDbo + x; }

rdf::Graph MiniKg() {
  rdf::Graph g;
  auto label = [&](const std::string& iri, const std::string& text) {
    g.AddIri(iri, kLabel, StringLiteral(text));
  };
  g.AddIris(R("Barack_Obama"), O("spouse"), R("Michelle_Obama"));
  g.AddIris(R("Barack_Obama"), kType, O("Person"));
  g.AddIris(R("Michelle_Obama"), kType, O("Person"));
  label(R("Barack_Obama"), "Barack Obama");
  label(R("Michelle_Obama"), "Michelle Obama");
  g.AddIris(R("France"), O("capital"), R("Paris"));
  g.AddIris(R("Paris"), kType, O("City"));
  label(R("France"), "France");
  label(R("Paris"), "Paris");
  return g;
}

KgqanConfig CachedConfig() {
  KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  cfg.answer_cache = true;
  cfg.answer_cache_capacity = 64;
  return cfg;
}

KgqanConfig UncachedConfig() {
  KgqanConfig cfg = CachedConfig();
  cfg.answer_cache = false;
  return cfg;
}

std::shared_ptr<const sparql::ResultSet> OneRow(const std::string& iri) {
  auto rs = std::make_shared<sparql::ResultSet>(
      std::vector<std::string>{"v0"});
  rs->AddRow({rdf::Iri(iri)});
  return rs;
}

std::vector<std::string> AnswerStrings(const QaResponse& response) {
  std::vector<std::string> out;
  for (const rdf::Term& term : response.answers) {
    out.push_back(rdf::ToNTriples(term));
  }
  return out;
}

TEST(AnswerCacheUnitTest, PutGetRoundTripAndStats) {
  AnswerCache cache(/*capacity=*/8, /*shards=*/2);
  EXPECT_EQ(cache.Get("k1", "kg#0"), nullptr);
  cache.Put("k1", "kg#0", OneRow(R("Paris")));
  auto hit = cache.Get("k1", "kg#0");
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->NumRows(), 1u);
  EXPECT_EQ(rdf::ToNTriples(*hit->At(0, 0)), "<" + R("Paris") + ">");

  AnswerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(AnswerCacheUnitTest, KgIdentityPartitionsTheKeySpace) {
  AnswerCache cache(/*capacity=*/8, /*shards=*/1);
  cache.Put("k1", "kg#0", OneRow(R("Paris")));
  // Same canonical query against a different KG — or the same KG after a
  // generation bump — must miss: the identity is part of the key.
  EXPECT_EQ(cache.Get("k1", "kg#1"), nullptr);
  EXPECT_EQ(cache.Get("k1", "other#0"), nullptr);
  EXPECT_NE(cache.Get("k1", "kg#0"), nullptr);
}

TEST(AnswerCacheUnitTest, LruEvictsColdestAndGetRefreshes) {
  // One shard of capacity 2 makes the eviction order deterministic.
  AnswerCache cache(/*capacity=*/2, /*shards=*/1);
  cache.Put("a", "kg", OneRow(R("A")));
  cache.Put("b", "kg", OneRow(R("B")));
  ASSERT_NE(cache.Get("a", "kg"), nullptr);  // Refresh "a"; "b" is coldest.
  cache.Put("c", "kg", OneRow(R("C")));      // Evicts "b".
  EXPECT_NE(cache.Get("a", "kg"), nullptr);
  EXPECT_EQ(cache.Get("b", "kg"), nullptr);
  EXPECT_NE(cache.Get("c", "kg"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(AnswerCacheUnitTest, PutRefreshesExistingKeyWithoutGrowth) {
  AnswerCache cache(/*capacity=*/4, /*shards=*/1);
  cache.Put("k", "kg", OneRow(R("Old")));
  cache.Put("k", "kg", OneRow(R("New")));
  EXPECT_EQ(cache.stats().entries, 1u);
  auto hit = cache.Get("k", "kg");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(rdf::ToNTriples(*hit->At(0, 0)), "<" + R("New") + ">");
}

TEST(AnswerCacheUnitTest, ClearDropsEntriesButKeepsCounters) {
  AnswerCache cache(/*capacity=*/8, /*shards=*/4);
  cache.Put("a", "kg", OneRow(R("A")));
  cache.Put("b", "kg", OneRow(R("B")));
  ASSERT_NE(cache.Get("a", "kg"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Get("a", "kg"), nullptr);
  EXPECT_EQ(cache.stats().insertions, 2u);  // Cumulative, not reset.
}

TEST(AnswerCacheUnitTest, ShardCountIsRespected) {
  AnswerCache cache(/*capacity=*/16, /*shards=*/5);
  EXPECT_EQ(cache.shard_count(), 5u);
  // Capacity smaller than the shard count still yields one slot per shard.
  AnswerCache tiny(/*capacity=*/1, /*shards=*/8);
  for (int i = 0; i < 32; ++i) {
    tiny.Put("k" + std::to_string(i), "kg", OneRow(R("X")));
  }
  EXPECT_LE(tiny.stats().entries, 8u);
}

TEST(AnswerCacheEngineTest, RepeatedQuestionHitsAndAnswersAreIdentical) {
  sparql::Endpoint endpoint("mini", MiniKg());
  KgqanEngine cached(CachedConfig());
  KgqanEngine uncached(UncachedConfig());
  ASSERT_NE(cached.answer_cache(), nullptr);
  EXPECT_EQ(uncached.answer_cache(), nullptr);

  const std::string q = "Who is the spouse of Barack Obama?";
  QaResponse first = cached.Answer(q, endpoint);
  RuntimeCounters after_first = cached.Counters();
  EXPECT_EQ(after_first.answer_cache_hits, 0u);
  EXPECT_GT(after_first.answer_cache_misses, 0u);
  EXPECT_GT(cached.answer_cache()->stats().insertions, 0u);

  QaResponse second = cached.Answer(q, endpoint);
  RuntimeCounters after_second = cached.Counters();
  EXPECT_GT(after_second.answer_cache_hits, 0u);

  QaResponse reference = uncached.Answer(q, endpoint);
  EXPECT_EQ(first.understood, reference.understood);
  EXPECT_EQ(AnswerStrings(first), AnswerStrings(reference));
  EXPECT_EQ(AnswerStrings(second), AnswerStrings(reference));
  ASSERT_FALSE(reference.answers.empty());
  EXPECT_EQ(AnswerStrings(reference)[0], "<" + R("Michelle_Obama") + ">");
}

TEST(AnswerCacheEngineTest, BooleanQuestionsCacheToo) {
  sparql::Endpoint endpoint("mini", MiniKg());
  KgqanEngine cached(CachedConfig());
  KgqanEngine uncached(UncachedConfig());
  const std::string q = "Is Paris the capital of France?";
  QaResponse first = cached.Answer(q, endpoint);
  QaResponse second = cached.Answer(q, endpoint);
  QaResponse reference = uncached.Answer(q, endpoint);
  EXPECT_EQ(first.is_boolean, reference.is_boolean);
  EXPECT_EQ(first.boolean_answer, reference.boolean_answer);
  EXPECT_EQ(second.boolean_answer, reference.boolean_answer);
  EXPECT_GT(cached.Counters().answer_cache_hits, 0u);
}

// The invalidation contract: AddNTriples bumps the endpoint generation, so
// every entry inserted before the update stops matching — the next ask is
// a miss that recomputes against the live data, and its answers equal a
// never-cached engine's.
TEST(AnswerCacheEngineTest, GenerationBumpInvalidatesPriorEntries) {
  sparql::Endpoint endpoint("mini", MiniKg());
  KgqanEngine cached(CachedConfig());
  KgqanEngine uncached(UncachedConfig());
  const std::string q = "Who is the spouse of Barack Obama?";

  QaResponse before = cached.Answer(q, endpoint);
  ASSERT_FALSE(before.answers.empty());
  RuntimeCounters warm = cached.Counters();
  cached.Answer(q, endpoint);
  ASSERT_GT(cached.Counters().answer_cache_hits, warm.answer_cache_hits);

  size_t old_generation = endpoint.generation();
  std::string update =
      "<" + R("Barack_Obama") + "> <" + O("spouse") + "> <" + R("Jane_Doe") +
      "> .\n<" + R("Jane_Doe") + "> <" + kType + "> <" + O("Person") +
      "> .\n<" + R("Jane_Doe") + "> <" + kLabel + "> \"Jane Doe\" .\n";
  auto added = endpoint.AddNTriples(update);
  ASSERT_TRUE(added.ok());
  ASSERT_GT(endpoint.generation(), old_generation);

  RuntimeCounters pre = cached.Counters();
  QaResponse after = cached.Answer(q, endpoint);
  RuntimeCounters post = cached.Counters();
  // The post-update ask must not be served from any pre-update entry.
  EXPECT_EQ(post.answer_cache_hits, pre.answer_cache_hits);
  EXPECT_GT(post.answer_cache_misses, pre.answer_cache_misses);

  QaResponse reference = uncached.Answer(q, endpoint);
  EXPECT_EQ(AnswerStrings(after), AnswerStrings(reference));
  // The update is answer-affecting, so serving the stale entry would also
  // be visible in the payload itself.
  EXPECT_NE(AnswerStrings(after), AnswerStrings(before));
}

TEST(AnswerCacheEngineTest, SharedCacheHitsAcrossEngines) {
  sparql::Endpoint endpoint("mini", MiniKg());
  auto shared = std::make_shared<AnswerCache>(64, 4);
  KgqanEngine first(CachedConfig(), shared);
  KgqanEngine second(CachedConfig(), shared);
  ASSERT_EQ(first.answer_cache().get(), shared.get());
  ASSERT_EQ(second.answer_cache().get(), shared.get());

  const std::string q = "Who is the spouse of Barack Obama?";
  QaResponse warm = first.Answer(q, endpoint);
  size_t hits_before = shared->stats().hits;
  QaResponse served = second.Answer(q, endpoint);
  EXPECT_GT(shared->stats().hits, hits_before);
  EXPECT_EQ(AnswerStrings(served), AnswerStrings(warm));
}

TEST(AnswerCacheEngineTest, ServerStatsAggregateDistinctCachesOnce) {
  sparql::Endpoint endpoint("mini", MiniKg());
  auto shared = std::make_shared<AnswerCache>(64, 4);
  KgqanEngine first(CachedConfig(), shared);
  KgqanEngine second(CachedConfig(), shared);
  {
    serve::QaServerOptions options;
    options.num_workers = 2;
    serve::QaServer server({&first, &second}, &endpoint, options);
    for (int i = 0; i < 4; ++i) {
      auto response = server.Ask("Who is the spouse of Barack Obama?");
      ASSERT_TRUE(response.ok());
    }
    server.Drain();
    serve::QaServerStats stats = server.stats();
    AnswerCacheStats cache_stats = shared->stats();
    // The two engines share one cache: the roll-up counts it once.
    EXPECT_EQ(stats.answer_cache_hits, cache_stats.hits);
    EXPECT_EQ(stats.answer_cache_misses, cache_stats.misses);
    EXPECT_EQ(stats.answer_cache_entries, cache_stats.entries);
    EXPECT_GT(stats.answer_cache_hits, 0u);
  }
}

// Direct engine-level check that two textually different but semantically
// identical candidate queries share one cache entry: the second engine
// call parses a renamed/reordered variant through the same canonical key.
TEST(AnswerCacheEngineTest, CanonicalKeyUnifiesRenamedQueries) {
  auto canon_a = sparql::Canonicalize(*sparql::ParseQuery(
      "SELECT DISTINCT ?x ?c WHERE { ?x <" + O("capital") + "> ?y . "
      "OPTIONAL { ?x <" + std::string(kType) + "> ?c . } }"));
  auto canon_b = sparql::Canonicalize(*sparql::ParseQuery(
      "SELECT DISTINCT ?s ?k WHERE { OPTIONAL { ?s <" + std::string(kType) +
      "> ?k . } ?s <" + O("capital") + "> ?z . }"));
  ASSERT_TRUE(canon_a.cacheable);
  ASSERT_TRUE(canon_b.cacheable);
  EXPECT_EQ(canon_a.key, canon_b.key);
  EXPECT_EQ(canon_a.projection_canonical, canon_b.projection_canonical);

  auto limited = sparql::Canonicalize(*sparql::ParseQuery(
      "SELECT DISTINCT ?x ?c WHERE { ?x <" + O("capital") + "> ?y . "
      "OPTIONAL { ?x <" + std::string(kType) + "> ?c . } } LIMIT 5"));
  EXPECT_NE(limited.key, canon_a.key);
}

}  // namespace
}  // namespace kgqan::core
