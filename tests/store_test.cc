// Unit and property tests for the hexastore-style TripleStore and the store
// gauges its endpoint publishes.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/graph.h"
#include "sparql/endpoint.h"
#include "store/triple_store.h"
#include "util/rng.h"

namespace kgqan::store {
namespace {

using rdf::Graph;
using rdf::Iri;
using rdf::StringLiteral;
using rdf::Term;
using rdf::TermId;

Graph SmallGraph() {
  Graph g;
  g.AddIris("http://x/danish_straits", "http://x/outflow", "http://x/baltic");
  g.AddIris("http://x/baltic", "http://x/nearestCity", "http://x/kaliningrad");
  g.AddIris("http://x/baltic", "http://x/type", "http://x/Sea");
  g.AddIri("http://x/baltic", "http://x/label", StringLiteral("Baltic Sea"));
  g.AddIris("http://x/kaliningrad", "http://x/country", "http://x/russia");
  return g;
}

// The linker's predicate probe (outgoingPredicate / incomingPredicate of
// Sec. 5.2): the distinct predicates of the triples with `iri` as subject
// (or, `incoming`, as object), asked through the endpoint's SPARQL API.
std::set<std::string> ProbePredicates(sparql::Endpoint& endpoint,
                                      const std::string& iri, bool incoming) {
  auto rs = endpoint.Query(
      incoming ? "SELECT DISTINCT ?p WHERE { ?sub ?p <" + iri + "> . }"
               : "SELECT DISTINCT ?p WHERE { <" + iri + "> ?p ?obj . }");
  std::set<std::string> preds;
  EXPECT_TRUE(rs.ok()) << rs.status();
  if (!rs.ok()) return preds;
  for (const sparql::Row& row : rs->rows()) {
    if (row[0].has_value()) preds.insert(row[0]->value);
  }
  // DISTINCT: no predicate is listed twice.
  EXPECT_EQ(preds.size(), rs->NumRows());
  return preds;
}

TEST(TripleStoreTest, DeduplicatesOnBuild) {
  Graph g;
  g.AddIris("http://x/a", "http://x/p", "http://x/b");
  g.AddIris("http://x/a", "http://x/p", "http://x/b");
  TripleStore store(std::move(g));
  EXPECT_EQ(store.size(), 1u);
}

TEST(TripleStoreTest, FullyBoundLookup) {
  Graph g = SmallGraph();
  TermId s = *g.dictionary().FindIri("http://x/danish_straits");
  TermId p = *g.dictionary().FindIri("http://x/outflow");
  TermId o = *g.dictionary().FindIri("http://x/baltic");
  TripleStore store(std::move(g));
  EXPECT_TRUE(store.Contains(s, p, o));
  EXPECT_FALSE(store.Contains(o, p, s));
  EXPECT_EQ(store.CountMatches(s, p, o), 1u);
}

TEST(TripleStoreTest, SubjectScan) {
  Graph g = SmallGraph();
  TermId baltic = *g.dictionary().FindIri("http://x/baltic");
  TripleStore store(std::move(g));
  EXPECT_EQ(store.CountMatches(baltic, rdf::kNullTermId, rdf::kNullTermId),
            3u);
}

TEST(TripleStoreTest, ObjectScan) {
  Graph g = SmallGraph();
  TermId baltic = *g.dictionary().FindIri("http://x/baltic");
  TripleStore store(std::move(g));
  auto triples =
      store.MatchAll(rdf::kNullTermId, rdf::kNullTermId, baltic);
  EXPECT_EQ(triples.size(), 1u);
}

TEST(TripleStoreTest, MatchAllRespectsLimit) {
  Graph g = SmallGraph();
  TripleStore store(std::move(g));
  auto triples =
      store.MatchAll(rdf::kNullTermId, rdf::kNullTermId, rdf::kNullTermId, 2);
  EXPECT_EQ(triples.size(), 2u);
}

TEST(TripleStoreTest, OutgoingAndIncomingPredicates) {
  sparql::Endpoint endpoint("predicates", SmallGraph());
  EXPECT_EQ(ProbePredicates(endpoint, "http://x/baltic", /*incoming=*/false),
            (std::set<std::string>{"http://x/label", "http://x/nearestCity",
                                   "http://x/type"}));
  EXPECT_EQ(ProbePredicates(endpoint, "http://x/baltic", /*incoming=*/true),
            (std::set<std::string>{"http://x/outflow"}));
}

TEST(TripleStoreTest, EarlyTerminationInMatch) {
  Graph g = SmallGraph();
  TripleStore store(std::move(g));
  int count = 0;
  store.Match(rdf::kNullTermId, rdf::kNullTermId, rdf::kNullTermId,
              [&](const rdf::Triple&) {
                ++count;
                return count < 2;
              });
  EXPECT_EQ(count, 2);
}

TEST(TripleStoreTest, LocateAndMatchRangeCoverExactly) {
  Graph g;
  for (int i = 0; i < 500; ++i) {
    g.AddIris("http://x/s" + std::to_string(i % 40), "http://x/p",
              "http://x/o" + std::to_string(i % 60));
  }
  TermId p = *g.dictionary().FindIri("http://x/p");
  TripleStore store(std::move(g));

  ScanRange range = store.Locate(rdf::kNullTermId, p, rdf::kNullTermId);
  EXPECT_EQ(range.size(), store.size());  // p matches every triple.

  // Scanning the located range visits exactly the Match sequence.
  std::vector<rdf::Triple> serial, ranged;
  store.Match(rdf::kNullTermId, p, rdf::kNullTermId,
              [&](const rdf::Triple& t) {
                serial.push_back(t);
                return true;
              });
  store.MatchRange(range, rdf::kNullTermId, p, rdf::kNullTermId,
                   [&](const rdf::Triple& t) {
                     ranged.push_back(t);
                     return true;
                   });
  EXPECT_EQ(serial.size(), range.size());
  EXPECT_EQ(serial, ranged);
}

TEST(TripleStoreTest, IndexBytesScaleWithSize) {
  Graph small = SmallGraph();
  TripleStore s1(std::move(small));
  Graph big;
  for (int i = 0; i < 1000; ++i) {
    big.AddIris("http://x/s" + std::to_string(i), "http://x/p",
                "http://x/o" + std::to_string(i % 100));
  }
  TripleStore s2(std::move(big));
  EXPECT_GT(s2.ApproxIndexBytes(), s1.ApproxIndexBytes());
}

TEST(TripleStoreTest, InsertMergesNewTriples) {
  Graph g = SmallGraph();
  TripleStore store(std::move(g));
  size_t before = store.size();

  std::vector<std::array<Term, 3>> batch;
  batch.push_back({Iri("http://x/volga"), Iri("http://x/riverMouth"),
                   Iri("http://x/caspian")});
  batch.push_back({Iri("http://x/danish_straits"), Iri("http://x/outflow"),
                   Iri("http://x/baltic")});  // Duplicate of existing.
  size_t added = store.Insert(batch);
  EXPECT_EQ(added, 1u);
  EXPECT_EQ(store.size(), before + 1);

  TermId volga = *store.dictionary().FindIri("http://x/volga");
  TermId mouth = *store.dictionary().FindIri("http://x/riverMouth");
  TermId caspian = *store.dictionary().FindIri("http://x/caspian");
  EXPECT_TRUE(store.Contains(volga, mouth, caspian));
  // All five orderings answer for the new triple.
  EXPECT_EQ(store.CountMatches(rdf::kNullTermId, rdf::kNullTermId, caspian),
            1u);
  EXPECT_EQ(store.CountMatches(rdf::kNullTermId, mouth, rdf::kNullTermId),
            1u);
}

TEST(TripleStoreTest, InsertEmptyAndDuplicateBatches) {
  Graph g = SmallGraph();
  TripleStore store(std::move(g));
  size_t before = store.size();
  EXPECT_EQ(store.Insert({}), 0u);
  std::vector<std::array<Term, 3>> twice;
  twice.push_back({Iri("http://x/new"), Iri("http://x/p"), Iri("http://x/q")});
  twice.push_back({Iri("http://x/new"), Iri("http://x/p"), Iri("http://x/q")});
  EXPECT_EQ(store.Insert(twice), 1u);
  EXPECT_EQ(store.size(), before + 1);
}

// The endpoint publishes its store's footprint on construction and
// republishes it after an AddNTriples that changes the store.
TEST(TripleStoreTest, EndpointPublishesStoreGauges) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto gauge = [&](const char* name) {
    return registry.GetGauge(name).Value();
  };
  sparql::Endpoint endpoint("gauge-test", SmallGraph());
  const int64_t index_bytes = gauge("store.index_bytes");
  EXPECT_GT(index_bytes, 0);
  EXPECT_GT(gauge("store.dict_bytes"), 0);

  auto added = endpoint.AddNTriples(
      "<http://x/gauge_s> <http://x/gauge_p> <http://x/gauge_o> .\n");
  ASSERT_TRUE(added.ok()) << added.status();
  ASSERT_EQ(*added, 1u);
  EXPECT_GT(gauge("store.index_bytes"), index_bytes);

  // After several more writes the two gauges still add up exactly to the
  // endpoint's footprint.
  for (int i = 0; i < 5; ++i) {
    const std::string n = std::to_string(i);
    added = endpoint.AddNTriples("<http://x/gauge_s" + n +
                                 "> <http://x/label> \"gauge label " + n +
                                 "\" .\n<http://x/gauge_s" + n +
                                 "> <http://x/gauge_p> <http://x/baltic> .\n");
    ASSERT_TRUE(added.ok()) << added.status();
    ASSERT_EQ(*added, 2u);
  }
  EXPECT_EQ(gauge("store.index_bytes") + gauge("store.dict_bytes"),
            static_cast<int64_t>(endpoint.ApproxIndexBytes()));
}

// The endpoint's startup phases and its writes are spans of the caller's
// trace; `endpoint.update` carries the number of new triples and of
// literals it indexed.
TEST(TripleStoreTest, EndpointRecordsBuildAndUpdateSpans) {
  obs::Trace trace(obs::Trace::Mode::kFull);
  {
    obs::ScopedSpan root(&trace, "test");
    sparql::Endpoint endpoint("span-test", SmallGraph());
    // Three new triples: one reuses the indexed "Baltic Sea" literal, one
    // adds a new literal, one adds an IRI object; the fourth is a duplicate.
    auto added = endpoint.AddNTriples(
        "<http://x/gulf> <http://x/label> \"Baltic Sea\" .\n"
        "<http://x/gulf> <http://x/name> \"Gulf of Riga\"@en .\n"
        "<http://x/gulf> <http://x/partOf> <http://x/baltic> .\n"
        "<http://x/baltic> <http://x/type> <http://x/Sea> .\n");
    ASSERT_TRUE(added.ok()) << added.status();
    ASSERT_EQ(*added, 3u);
  }
  EXPECT_NE(trace.FindSpan("store.build"), obs::kNoSpan);
  EXPECT_NE(trace.FindSpan("text.build"), obs::kNoSpan);
  const size_t span = trace.FindSpan("endpoint.update");
  ASSERT_NE(span, obs::kNoSpan);
  const obs::SpanRecord record = trace.spans()[span];
  EXPECT_GE(record.duration_ns, 0);
  using Attr = std::pair<std::string, std::string>;
  EXPECT_EQ(record.attributes,
            (std::vector<Attr>{{"triples", "3"}, {"literals_indexed", "1"}}));
}

// ---- Property tests: every bound-component combination must agree with a
// naive scan, across several random graphs. ----

class TripleStorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Probes `probes` random triples of `expected` (the store's full contents)
// under all 8 bound/unbound combinations: MatchAll and CountMatches must
// agree with a naive scan.
void ExpectAgreesWithNaiveScan(const TripleStore& store,
                               const std::set<rdf::Triple>& expected,
                               util::Rng& rng, int probes) {
  std::vector<rdf::Triple> universe(expected.begin(), expected.end());
  for (int probe = 0; probe < probes; ++probe) {
    const rdf::Triple& t = universe[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(universe.size()) - 1))];
    for (int mask = 0; mask < 8; ++mask) {
      TermId s = (mask & 1) ? t.s : rdf::kNullTermId;
      TermId p = (mask & 2) ? t.p : rdf::kNullTermId;
      TermId o = (mask & 4) ? t.o : rdf::kNullTermId;
      std::set<rdf::Triple> naive;
      for (const rdf::Triple& u : universe) {
        if (s != rdf::kNullTermId && u.s != s) continue;
        if (p != rdf::kNullTermId && u.p != p) continue;
        if (o != rdf::kNullTermId && u.o != o) continue;
        naive.insert(u);
      }
      auto got_vec = store.MatchAll(s, p, o);
      std::set<rdf::Triple> got(got_vec.begin(), got_vec.end());
      EXPECT_EQ(got, naive) << "mask=" << mask;
      EXPECT_EQ(store.CountMatches(s, p, o), naive.size()) << "mask=" << mask;
    }
  }
}

TEST_P(TripleStorePropertyTest, MatchesAgreeWithNaiveScan) {
  util::Rng rng(GetParam());
  Graph g;
  const int kSubjects = 20, kPredicates = 6, kObjects = 25;
  const int kTriples = 300;
  for (int i = 0; i < kTriples; ++i) {
    g.AddIris("http://x/s" + std::to_string(rng.UniformInt(0, kSubjects - 1)),
              "http://x/p" + std::to_string(rng.UniformInt(0, kPredicates - 1)),
              "http://x/o" + std::to_string(rng.UniformInt(0, kObjects - 1)));
  }
  // Snapshot triples (deduplicated) before the store consumes the graph.
  std::set<rdf::Triple> expected_all(g.triples().begin(), g.triples().end());
  TripleStore store(std::move(g));
  ASSERT_EQ(store.size(), expected_all.size());
  ExpectAgreesWithNaiveScan(store, expected_all, rng, 50);
}

TEST_P(TripleStorePropertyTest, PredicateListsAgreeWithNaiveScan) {
  util::Rng rng(GetParam() ^ 0xABCDEF);
  Graph g;
  std::map<std::string, std::set<std::string>> out_naive, in_naive;
  for (int i = 0; i < 200; ++i) {
    std::string s = "http://x/s" + std::to_string(rng.UniformInt(0, 14));
    std::string p = "http://x/p" + std::to_string(rng.UniformInt(0, 9));
    std::string o = "http://x/s" + std::to_string(rng.UniformInt(0, 14));
    g.AddIris(s, p, o);
    out_naive[s].insert(p);
    in_naive[o].insert(p);
  }
  sparql::Endpoint endpoint("predicates", std::move(g));
  for (int v = 0; v < 15; ++v) {
    std::string iri = "http://x/s" + std::to_string(v);
    EXPECT_EQ(ProbePredicates(endpoint, iri, /*incoming=*/false),
              out_naive[iri]) << iri;
    EXPECT_EQ(ProbePredicates(endpoint, iri, /*incoming=*/true),
              in_naive[iri]) << iri;
  }
}

// Live inserts keep all five permutation indexes in step: after each
// round every bound-component combination still agrees with a naive scan
// of the expected triple set.
TEST_P(TripleStorePropertyTest, InsertsKeepPermutationsInStep) {
  util::Rng rng(GetParam() ^ 0x5EED);
  auto iri = [&](const char* prefix, int n) {
    return Iri("http://x/" + std::string(prefix) +
               std::to_string(rng.UniformInt(0, n - 1)));
  };
  Graph g;
  for (int i = 0; i < 150; ++i) {
    Term s = iri("s", 12), p = iri("p", 4), o = iri("o", 15);
    g.Add(s, p, o);
  }
  std::set<rdf::Triple> expected(g.triples().begin(), g.triples().end());
  TripleStore store(std::move(g));
  for (int round = 0; round < 6; ++round) {
    std::vector<std::array<Term, 3>> batch;
    for (int i = 0; i < 20; ++i) {
      Term s = iri("s", 16), p = iri("p", 5), o = iri("o", 20);
      batch.push_back({s, p, o});
    }
    const size_t before = expected.size();
    const size_t added = store.Insert(batch);
    for (const auto& [s, p, o] : batch) {
      expected.insert(rdf::Triple{*store.dictionary().Find(s),
                                  *store.dictionary().Find(p),
                                  *store.dictionary().Find(o)});
    }
    EXPECT_EQ(added, expected.size() - before);
    ASSERT_EQ(store.size(), expected.size());
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectAgreesWithNaiveScan(store, expected, rng, 30);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripleStorePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

}  // namespace
}  // namespace kgqan::store
