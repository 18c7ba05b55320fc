// Property tests for the SPARQL evaluator: randomly generated graphs and
// queries, checked against an independent brute-force reference
// implementation (enumerate all variable bindings, test every pattern).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "sparql/endpoint.h"
#include "util/rng.h"

namespace kgqan::sparql {
namespace {

using rdf::Graph;
using rdf::TermId;

// A tiny relational view of the random graph: triples as int tuples.
struct MiniKg {
  // (s, p, o) over entity ids 0..n-1 and predicate ids 0..p-1.
  std::set<std::array<int, 3>> triples;
  int num_entities = 0;
  int num_predicates = 0;

  static std::string E(int i) { return "http://x/e" + std::to_string(i); }
  static std::string P(int i) { return "http://x/p" + std::to_string(i); }

  Graph ToGraph() const {
    Graph g;
    for (const auto& [s, p, o] : triples) {
      g.AddIris(E(s), P(p), E(o));
    }
    return g;
  }
};

MiniKg RandomKg(util::Rng& rng) {
  MiniKg kg;
  kg.num_entities = static_cast<int>(rng.UniformInt(8, 20));
  kg.num_predicates = static_cast<int>(rng.UniformInt(2, 4));
  int n_triples = static_cast<int>(rng.UniformInt(30, 120));
  for (int i = 0; i < n_triples; ++i) {
    kg.triples.insert({static_cast<int>(rng.UniformInt(0, kg.num_entities - 1)),
                       static_cast<int>(rng.UniformInt(0, kg.num_predicates - 1)),
                       static_cast<int>(rng.UniformInt(0, kg.num_entities - 1))});
  }
  return kg;
}

// Reference evaluation of a 2-variable query family by brute force.

// Query family A: ?x p0 ?y . ?y p1 ?z  with optional { ?z p2 ?w }.
TEST(SparqlReferenceTest, ChainJoinWithOptionalMatchesBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    util::Rng rng(seed);
    MiniKg kg = RandomKg(rng);
    Endpoint ep("prop", kg.ToGraph());

    // Brute force: tuples (x, y, z, w?) with w = -1 when unbound.
    std::set<std::array<int, 4>> expected;
    for (const auto& t1 : kg.triples) {
      if (t1[1] != 0) continue;
      for (const auto& t2 : kg.triples) {
        if (t2[1] != 1 % kg.num_predicates) continue;
        if (t2[0] != t1[2]) continue;
        bool any_optional = false;
        for (const auto& t3 : kg.triples) {
          if (t3[1] != 2 % kg.num_predicates) continue;
          if (t3[0] != t2[2]) continue;
          expected.insert({t1[0], t1[2], t2[2], t3[2]});
          any_optional = true;
        }
        if (!any_optional) expected.insert({t1[0], t1[2], t2[2], -1});
      }
    }

    std::string p0 = MiniKg::P(0);
    std::string p1 = MiniKg::P(1 % kg.num_predicates);
    std::string p2 = MiniKg::P(2 % kg.num_predicates);
    auto rs = ep.Query("SELECT DISTINCT ?x ?y ?z ?w WHERE { ?x <" + p0 +
                       "> ?y . ?y <" + p1 + "> ?z . OPTIONAL { ?z <" + p2 +
                       "> ?w . } }");
    ASSERT_TRUE(rs.ok()) << rs.status();
    std::set<std::array<int, 4>> got;
    for (size_t r = 0; r < rs->NumRows(); ++r) {
      auto id_of = [&](size_t col) {
        const auto& term = rs->At(r, col);
        if (!term.has_value()) return -1;
        return std::atoi(term->value.c_str() + std::string("http://x/e").size());
      };
      got.insert({id_of(0), id_of(1), id_of(2), id_of(3)});
    }
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

// Query family B: { ?x p0 ?y } UNION { ?y p1 ?x } with FILTER (?x != ?y).
TEST(SparqlReferenceTest, UnionWithFilterMatchesBruteForce) {
  for (uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    util::Rng rng(seed);
    MiniKg kg = RandomKg(rng);
    Endpoint ep("prop", kg.ToGraph());

    std::set<std::array<int, 2>> expected;
    for (const auto& t : kg.triples) {
      if (t[1] == 0 && t[0] != t[2]) expected.insert({t[0], t[2]});
      if (t[1] == 1 % kg.num_predicates && t[2] != t[0]) {
        expected.insert({t[2], t[0]});
      }
    }

    std::string p0 = MiniKg::P(0);
    std::string p1 = MiniKg::P(1 % kg.num_predicates);
    auto rs = ep.Query(
        "SELECT DISTINCT ?x ?y WHERE { { ?x <" + p0 + "> ?y . } UNION { ?y <" +
        p1 + "> ?x . } FILTER (?x != ?y) }");
    ASSERT_TRUE(rs.ok()) << rs.status();
    std::set<std::array<int, 2>> got;
    for (size_t r = 0; r < rs->NumRows(); ++r) {
      auto id_of = [&](size_t col) {
        return std::atoi(rs->At(r, col)->value.c_str() +
                         std::string("http://x/e").size());
      };
      got.insert({id_of(0), id_of(1)});
    }
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

// Query family C: star join ?x p0 ?a . ?x p1 ?b with COUNT aggregation.
TEST(SparqlReferenceTest, CountDistinctMatchesBruteForce) {
  for (uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    util::Rng rng(seed);
    MiniKg kg = RandomKg(rng);
    Endpoint ep("prop", kg.ToGraph());

    std::set<int> expected_subjects;
    for (const auto& t1 : kg.triples) {
      if (t1[1] != 0) continue;
      for (const auto& t2 : kg.triples) {
        if (t2[1] != 1 % kg.num_predicates || t2[0] != t1[0]) continue;
        expected_subjects.insert(t1[0]);
      }
    }

    std::string p0 = MiniKg::P(0);
    std::string p1 = MiniKg::P(1 % kg.num_predicates);
    auto rs = ep.Query("SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x <" +
                       p0 + "> ?a . ?x <" + p1 + "> ?b . }");
    ASSERT_TRUE(rs.ok()) << rs.status();
    EXPECT_EQ(rs->At(0, 0)->value, std::to_string(expected_subjects.size()))
        << "seed " << seed;
  }
}

// Query family D: ORDER BY with LIMIT/OFFSET windows must slice the full
// sorted answer sequence consistently.
TEST(SparqlReferenceTest, OrderByWindowsTileTheFullResult) {
  util::Rng rng(31);
  MiniKg kg = RandomKg(rng);
  Endpoint ep("prop", kg.ToGraph());
  std::string p0 = MiniKg::P(0);

  auto all = ep.Query("SELECT ?x ?y WHERE { ?x <" + p0 +
                      "> ?y . } ORDER BY ?x ?y");
  ASSERT_TRUE(all.ok());
  std::vector<std::pair<std::string, std::string>> full;
  for (size_t r = 0; r < all->NumRows(); ++r) {
    full.emplace_back(all->At(r, 0)->value, all->At(r, 1)->value);
  }
  // Sorted?
  EXPECT_TRUE(std::is_sorted(full.begin(), full.end()));
  // Windows of size 3 tile the sequence.
  std::vector<std::pair<std::string, std::string>> tiled;
  for (size_t off = 0; off < full.size(); off += 3) {
    auto window = ep.Query("SELECT ?x ?y WHERE { ?x <" + p0 +
                           "> ?y . } ORDER BY ?x ?y LIMIT 3 OFFSET " +
                           std::to_string(off));
    ASSERT_TRUE(window.ok());
    for (size_t r = 0; r < window->NumRows(); ++r) {
      tiled.emplace_back(window->At(r, 0)->value, window->At(r, 1)->value);
    }
  }
  EXPECT_EQ(tiled, full);
}

// ASK must agree with whether SELECT returns any row, across patterns.
TEST(SparqlReferenceTest, AskAgreesWithSelect) {
  for (uint64_t seed : {41u, 42u, 43u, 44u}) {
    util::Rng rng(seed);
    MiniKg kg = RandomKg(rng);
    Endpoint ep("prop", kg.ToGraph());
    for (int p = 0; p < kg.num_predicates; ++p) {
      for (int probe = 0; probe < 6; ++probe) {
        int e = static_cast<int>(rng.UniformInt(0, kg.num_entities - 1));
        std::string pattern = "{ <" + MiniKg::E(e) + "> <" + MiniKg::P(p) +
                              "> ?o . }";
        auto ask = ep.Query("ASK " + pattern);
        auto select = ep.Query("SELECT ?o WHERE " + pattern);
        ASSERT_TRUE(ask.ok());
        ASSERT_TRUE(select.ok());
        EXPECT_EQ(ask->ask_value(), select->NumRows() > 0);
      }
    }
  }
}

}  // namespace
}  // namespace kgqan::sparql
