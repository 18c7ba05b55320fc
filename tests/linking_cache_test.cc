// Tests for the linking cache: hit/miss accounting, LRU eviction,
// KG-identity invalidation and concurrent access of the LRU modes; the
// anchor table's miss/hit, identity reset, capacity and concurrency; and
// the engine with the anchor table against the uncached engine (identical
// AGPs and answers, writes seen, no repeated predicate probes).

#include "core/linking_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "benchgen/benchmark.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "rdf/graph.h"
#include "sparql/endpoint.h"

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

// ---------------------------------------------------------------------------
// Anchor mode.

// The predicate list stored for (anchor `a`, direction `incoming`) in the
// tests below: a deterministic function of both, so a torn or misfiled
// list shows.
std::vector<std::string> PredicatesOf(int a, bool incoming) {
  std::vector<std::string> out;
  for (int k = 0; k <= a % 4; ++k) {
    std::string iri = "http://p/";
    iri += std::to_string(a);
    iri += incoming ? "/in/" : "/out/";
    iri += std::to_string(k);
    out.push_back(std::move(iri));
  }
  return out;
}

std::string AnchorOf(int a) {
  std::string iri = "http://x/anchor";
  iri += std::to_string(a);
  return iri;
}

void PutAnchor(LinkingCache& cache, int a, bool incoming,
               std::string_view kg) {
  std::vector<std::string> owned = PredicatesOf(a, incoming);
  cache.PutAnchorPredicates(AnchorOf(a), incoming, kg,
                            std::vector<std::string_view>(owned.begin(),
                                                          owned.end()));
}

std::vector<std::string> Strings(const std::vector<std::string_view>& views) {
  return std::vector<std::string>(views.begin(), views.end());
}

TEST(LinkingCacheAnchorTest, MissThenHitInProbeOrder) {
  LinkingCache cache(64);
  std::vector<std::string_view> predicates;
  EXPECT_FALSE(cache.GetAnchorPredicates(AnchorOf(3), false, "kg#0",
                                         &predicates));
  PutAnchor(cache, 3, false, "kg#0");
  ASSERT_TRUE(cache.GetAnchorPredicates(AnchorOf(3), false, "kg#0",
                                        &predicates));
  EXPECT_EQ(Strings(predicates), PredicatesOf(3, false));
  // The other direction of the same anchor is its own entry.
  EXPECT_FALSE(cache.GetAnchorPredicates(AnchorOf(3), true, "kg#0",
                                         &predicates));
  PutAnchor(cache, 3, true, "kg#0");
  ASSERT_TRUE(cache.GetAnchorPredicates(AnchorOf(3), true, "kg#0",
                                        &predicates));
  EXPECT_EQ(Strings(predicates), PredicatesOf(3, true));
  // An anchor without predicates is a stored, empty list.
  cache.PutAnchorPredicates(AnchorOf(9), false, "kg#0", {});
  EXPECT_TRUE(cache.GetAnchorPredicates(AnchorOf(9), false, "kg#0",
                                        &predicates));
  EXPECT_TRUE(predicates.empty());

  LinkingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(LinkingCacheAnchorTest, NewIdentityEmptiesTheTable) {
  LinkingCache cache(64);
  PutAnchor(cache, 1, false, "kg#0");
  PutAnchor(cache, 2, true, "kg#0");
  std::vector<std::string_view> predicates;
  ASSERT_TRUE(cache.GetAnchorPredicates(AnchorOf(1), false, "kg#0",
                                        &predicates));
  const std::vector<std::string_view> held = predicates;
  EXPECT_EQ(cache.stats().entries, 2u);

  // A lookup under the next generation empties the table ...
  EXPECT_FALSE(cache.GetAnchorPredicates(AnchorOf(1), false, "kg#1",
                                         &predicates));
  EXPECT_EQ(cache.stats().entries, 0u);
  // ... so the old generation's lists are gone for good.
  EXPECT_FALSE(cache.GetAnchorPredicates(AnchorOf(2), true, "kg#0",
                                         &predicates));
  // A put under another identity empties it too.
  PutAnchor(cache, 1, false, "kg#0");
  PutAnchor(cache, 1, false, "kg#2");
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_FALSE(cache.GetAnchorPredicates(AnchorOf(1), false, "kg#0",
                                         &predicates));
  // Views handed out earlier still read their IRIs after the resets and
  // after Clear.
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(Strings(held), PredicatesOf(1, false));
}

TEST(LinkingCacheAnchorTest, InsertsStopAtCapacity) {
  LinkingCache cache(64);
  const int capacity = static_cast<int>(LinkingCache::kAnchorTableCapacity);
  // Every anchor shares one schema's predicates, as in a real KG.
  std::vector<std::string> owned = PredicatesOf(3, false);
  const std::vector<std::string_view> shared(owned.begin(), owned.end());
  for (int a = 0; a < capacity + 10; ++a) {
    cache.PutAnchorPredicates(AnchorOf(a), false, "kg", shared);
  }
  EXPECT_EQ(cache.stats().entries, LinkingCache::kAnchorTableCapacity);
  EXPECT_EQ(cache.stats().evictions, 0u);
  std::vector<std::string_view> predicates;
  // The first lists stay (no eviction); the ones past the bound were
  // dropped.
  ASSERT_TRUE(cache.GetAnchorPredicates(AnchorOf(0), false, "kg",
                                        &predicates));
  EXPECT_EQ(Strings(predicates), owned);
  ASSERT_TRUE(cache.GetAnchorPredicates(AnchorOf(capacity - 1), false, "kg",
                                        &predicates));
  EXPECT_EQ(Strings(predicates), owned);
  EXPECT_FALSE(cache.GetAnchorPredicates(AnchorOf(capacity), false, "kg",
                                         &predicates));
  // A new identity frees the room again.
  cache.PutAnchorPredicates(AnchorOf(capacity), false, "kg#next", shared);
  EXPECT_TRUE(cache.GetAnchorPredicates(AnchorOf(capacity), false, "kg#next",
                                        &predicates));
}

TEST(LinkingCacheAnchorTest, PutsStopWhenTheInternerIsFull) {
  LinkingCache cache(64);
  std::vector<std::string> owned;
  for (size_t k = 0; k < LinkingCache::kInternedPredicateCapacity; ++k) {
    owned.push_back("http://p/" + std::to_string(k));
  }
  cache.PutAnchorPredicates(AnchorOf(0), false, "kg",
                            std::vector<std::string_view>(owned.begin(),
                                                          owned.end()));
  EXPECT_EQ(cache.stats().entries, 1u);
  // Every IRI is interned: a list needing one more is not stored, a list
  // of known IRIs is.
  const std::string fresh = "http://p/fresh";
  cache.PutAnchorPredicates(AnchorOf(1), false, "kg", {owned[7], fresh});
  cache.PutAnchorPredicates(AnchorOf(2), false, "kg", {owned[7], owned[3]});
  std::vector<std::string_view> predicates;
  EXPECT_FALSE(cache.GetAnchorPredicates(AnchorOf(1), false, "kg",
                                         &predicates));
  ASSERT_TRUE(cache.GetAnchorPredicates(AnchorOf(2), false, "kg",
                                        &predicates));
  EXPECT_EQ(Strings(predicates),
            (std::vector<std::string>{owned[7], owned[3]}));
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(LinkingCacheAnchorTest, ConcurrentReadersAndWriters) {
  // Four threads look up and store lists of 40 anchors while the identity
  // moves on every 250 iterations, so resets race with lookups and puts.
  LinkingCache cache(64);
  constexpr int kIterations = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t]() {
      std::vector<std::string_view> predicates;
      std::vector<std::string_view> first_hit;
      std::vector<std::string> first_expected;
      for (int i = 0; i < kIterations; ++i) {
        const int a = (i * 7 + t) % 40;
        const bool incoming = (i + t) % 2 == 1;
        std::string kg = "kg#";
        kg += std::to_string(i / 250);
        if (cache.GetAnchorPredicates(AnchorOf(a), incoming, kg,
                                      &predicates)) {
          EXPECT_EQ(Strings(predicates), PredicatesOf(a, incoming));
          if (first_hit.empty()) {
            first_hit = predicates;
            first_expected = PredicatesOf(a, incoming);
          }
        } else {
          PutAnchor(cache, a, incoming, kg);
        }
      }
      // Views outlive every reset the other threads caused.
      EXPECT_EQ(Strings(first_hit), first_expected);
    });
  }
  for (std::thread& t : threads) t.join();
  LinkingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * kIterations);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.entries, 80u);
}

// ---------------------------------------------------------------------------
// The engine with the anchor table.

KgqanConfig EngineConfig(bool linking_cache) {
  KgqanConfig config;
  config.qu.inference.enabled = false;
  config.linking_cache = linking_cache;
  return config;
}

void ExpectSameAgp(const Agp& a, const Agp& b) {
  ASSERT_EQ(a.node_vertices.size(), b.node_vertices.size());
  for (size_t n = 0; n < a.node_vertices.size(); ++n) {
    ASSERT_EQ(a.node_vertices[n].size(), b.node_vertices[n].size());
    for (size_t i = 0; i < a.node_vertices[n].size(); ++i) {
      EXPECT_EQ(a.node_vertices[n][i].iri, b.node_vertices[n][i].iri);
      EXPECT_EQ(a.node_vertices[n][i].score, b.node_vertices[n][i].score);
    }
  }
  ASSERT_EQ(a.edge_predicates.size(), b.edge_predicates.size());
  for (size_t e = 0; e < a.edge_predicates.size(); ++e) {
    ASSERT_EQ(a.edge_predicates[e].size(), b.edge_predicates[e].size());
    for (size_t i = 0; i < a.edge_predicates[e].size(); ++i) {
      const RelevantPredicate& x = a.edge_predicates[e][i];
      const RelevantPredicate& y = b.edge_predicates[e][i];
      EXPECT_EQ(x.iri, y.iri);
      EXPECT_EQ(x.anchor_iri, y.anchor_iri);
      EXPECT_EQ(x.anchor_node, y.anchor_node);
      EXPECT_EQ(x.vertex_is_object, y.vertex_is_object);
      EXPECT_EQ(x.score, y.score);
    }
  }
}

TEST(AnchorModeEngineTest, CachedEnginesMatchTheUncachedEngine) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kLcQuad, 0.1);
  ASSERT_GT(b.questions.size(), 0u);
  KgqanEngine uncached(EngineConfig(false));
  KgqanEngine cached(EngineConfig(true));
  size_t relation_linked = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const benchgen::BenchQuestion& q : b.questions) {
      SCOPED_TRACE("pass " + std::to_string(pass) + ": " + q.text);
      KgqanResult want = uncached.AnswerFull(q.text, *b.endpoint);
      KgqanResult got = cached.AnswerFull(q.text, *b.endpoint);
      ExpectSameAgp(got.agp, want.agp);
      EXPECT_EQ(got.response.answers, want.response.answers);
      EXPECT_EQ(got.response.boolean_answer, want.response.boolean_answer);
      EXPECT_EQ(got.queries_generated, want.queries_generated);
      for (const auto& predicates : want.agp.edge_predicates) {
        if (!predicates.empty()) ++relation_linked;
      }
    }
  }
  EXPECT_GT(relation_linked, 0u);
  // The second pass was answered from the table.
  EXPECT_GT(cached.linking_cache()->stats().hits, 0u);
  EXPECT_GT(cached.linking_cache()->stats().entries, 0u);
}

constexpr const char* kDbr = "http://dbpedia.org/resource/";
constexpr const char* kDbo = "http://dbpedia.org/ontology/";
constexpr const char* kLabel = "http://www.w3.org/2000/01/rdf-schema#label";

rdf::Graph SpouseKg() {
  rdf::Graph g;
  g.AddIris(std::string(kDbr) + "Barack_Obama", std::string(kDbo) + "spouse",
            std::string(kDbr) + "Michelle_Obama");
  g.AddIri(std::string(kDbr) + "Barack_Obama", kLabel,
           rdf::StringLiteral("Barack Obama"));
  g.AddIri(std::string(kDbr) + "Michelle_Obama", kLabel,
           rdf::StringLiteral("Michelle Obama"));
  return g;
}

bool HasPredicate(const Agp& agp, const std::string& iri) {
  for (const auto& predicates : agp.edge_predicates) {
    for (const RelevantPredicate& rp : predicates) {
      if (rp.iri == iri) return true;
    }
  }
  return false;
}

TEST(AnchorModeEngineTest, WriteGivingAnAnchorAPredicateShowsInTheNextAgp) {
  sparql::Endpoint endpoint("spouse", SpouseKg());
  KgqanEngine engine(EngineConfig(true));
  const std::string question = "Who is the spouse of Barack Obama?";
  const std::string partner = std::string(kDbo) + "partner";
  KgqanResult before = engine.AnswerFull(question, endpoint);
  ASSERT_TRUE(HasPredicate(before.agp, std::string(kDbo) + "spouse"));
  ASSERT_FALSE(HasPredicate(before.agp, partner));
  // Asked again, the anchor's lists come from the table.
  KgqanResult cached = engine.AnswerFull(question, endpoint);
  EXPECT_FALSE(HasPredicate(cached.agp, partner));

  std::string triple = "<";
  triple += kDbr;
  triple += "Barack_Obama> <" + partner + "> <";
  triple += kDbr;
  triple += "Michelle_Obama> .\n";
  ASSERT_TRUE(endpoint.AddNTriples(triple).ok());
  KgqanResult after = engine.AnswerFull(question, endpoint);
  EXPECT_TRUE(HasPredicate(after.agp, partner));
  KgqanEngine fresh(EngineConfig(false));
  ExpectSameAgp(after.agp, fresh.AnswerFull(question, endpoint).agp);
}

// Number of linking.predicate_probe spans below a linking.relation span.
size_t ProbesUnderRelation(const obs::Trace& trace) {
  const std::vector<obs::SpanRecord> spans = trace.spans();
  size_t probes = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "linking.predicate_probe") continue;
    for (size_t up = span.parent; up != obs::kNoSpan;
         up = spans[up].parent) {
      if (spans[up].name == "linking.relation") {
        ++probes;
        break;
      }
    }
  }
  return probes;
}

TEST(AnchorModeEngineTest, RepeatedQuestionIssuesNoPredicateProbes) {
  sparql::Endpoint endpoint("spouse", SpouseKg());
  KgqanEngine engine(EngineConfig(true));
  const std::string question = "Who is the spouse of Barack Obama?";
  obs::Trace first(obs::Trace::Mode::kFull);
  engine.AnswerFull(question, endpoint, &first);
  EXPECT_GT(ProbesUnderRelation(first), 0u);

  obs::Trace repeated(obs::Trace::Mode::kFull);
  KgqanResult result = engine.AnswerFull(question, endpoint, &repeated);
  EXPECT_NE(repeated.FindSpan("linking.relation"), obs::kNoSpan);
  EXPECT_EQ(ProbesUnderRelation(repeated), 0u);
  EXPECT_EQ(result.linking_requests, 0u);
}

}  // namespace
}  // namespace kgqan::core
