// Tests for the SPARQL subset: lexer, parser, evaluator, endpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "rdf/graph.h"
#include "sparql/ast.h"
#include "sparql/endpoint.h"
#include "sparql/lexer.h"
#include "sparql/parser.h"
#include "util/rng.h"

namespace kgqan::sparql {
namespace {

using rdf::Graph;
using rdf::IntLiteral;
using rdf::Iri;
using rdf::StringLiteral;

// ---- Lexer ----

TEST(LexerTest, BasicTokens) {
  auto toks = Lex("SELECT ?x WHERE { <http://a> ?p \"v\" . }");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks->size(), 10u);
  EXPECT_EQ((*toks)[0].kind, TokenKind::kKeyword);
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[1].kind, TokenKind::kVar);
  EXPECT_EQ((*toks)[1].text, "x");
  EXPECT_EQ((*toks)[4].kind, TokenKind::kIriRef);
  EXPECT_EQ((*toks)[4].text, "http://a");
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto toks = Lex("select distinct");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[1].text, "DISTINCT");
}

TEST(LexerTest, LessThanVsIri) {
  auto toks = Lex("FILTER (?x < 5)");
  ASSERT_TRUE(toks.ok());
  bool found_op = false;
  for (const Token& t : *toks) {
    if (t.kind == TokenKind::kOp && t.text == "<") found_op = true;
  }
  EXPECT_TRUE(found_op);
}

TEST(LexerTest, StringEscapes) {
  auto toks = Lex("\"a\\\"b\"");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "a\"b");
}

TEST(LexerTest, NumbersAndTripleDot) {
  auto toks = Lex("?x ?p 42 . ?x ?q 4.5 .");
  ASSERT_TRUE(toks.ok());
  int ints = 0, decs = 0, dots = 0;
  for (const Token& t : *toks) {
    if (t.kind == TokenKind::kInteger) ++ints;
    if (t.kind == TokenKind::kDecimal) ++decs;
    if (t.kind == TokenKind::kPunct && t.text == ".") ++dots;
  }
  EXPECT_EQ(ints, 1);
  EXPECT_EQ(decs, 1);
  EXPECT_EQ(dots, 2);
}

TEST(LexerTest, RejectsBareWord) { EXPECT_FALSE(Lex("hello world").ok()); }

TEST(LexerTest, Comments) {
  auto toks = Lex("SELECT # comment\n ?x");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[1].kind, TokenKind::kVar);
}

TEST(LexerTest, TokensViewTheInputAndCarrySymbols) {
  const std::string input =
      "select ?x WHERE { <http://a> ?p \"plain\" , \"esc\\\"aped\" . "
      "FILTER (?x <= 5 && true) }";
  auto lexed = Lex(input);
  ASSERT_TRUE(lexed.ok()) << lexed.status();
  // Moving the list keeps every view valid, the unescaped one included.
  TokenList toks = std::move(lexed).value();
  auto inside_input = [&](std::string_view text) {
    return text.data() >= input.data() &&
           text.data() + text.size() <= input.data() + input.size();
  };
  EXPECT_EQ(toks[0].symbol, Symbol::kSelect);
  EXPECT_EQ(toks[0].text, "SELECT");
  EXPECT_EQ(toks[1].symbol, Symbol::kNone);
  EXPECT_TRUE(inside_input(toks[1].text));
  EXPECT_EQ(toks[3].symbol, Symbol::kLBrace);
  EXPECT_TRUE(inside_input(toks[4].text));
  EXPECT_EQ(toks[6].text, "plain");
  EXPECT_TRUE(inside_input(toks[6].text));
  EXPECT_EQ(toks[7].symbol, Symbol::kComma);
  EXPECT_EQ(toks[8].text, "esc\"aped");
  EXPECT_FALSE(inside_input(toks[8].text));
  EXPECT_EQ(toks[13].symbol, Symbol::kLe);
  EXPECT_EQ(toks[15].symbol, Symbol::kAnd);
  EXPECT_EQ(toks[16].kind, TokenKind::kBoolean);
  EXPECT_EQ(toks[16].text, "true");
  EXPECT_EQ(toks[toks.size() - 1].kind, TokenKind::kEof);
  // Offsets point at each token's first byte: '?', '<' and the quote.
  EXPECT_EQ(toks[1].offset, input.find("?x"));
  EXPECT_EQ(toks[4].offset, input.find("<http://a>"));
  EXPECT_EQ(toks[6].offset, input.find("\"plain\""));
  EXPECT_EQ(toks[8].offset, input.find("\"esc"));
}

TEST(ParserTest, ErrorsNameTheOffendingTokensOffset) {
  auto q = ParseQuery("SELECT ?x WHERE <http://a> ?p ?o");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().message(), "expected '{' at offset 16");
  q = ParseQuery("SELECT ?x WHERE { \"lit\" ?p ?o . } LIMIT ?x");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().message(), "expected integer after LIMIT at offset 40");
}

// ---- Parser ----

TEST(ParserTest, SelectBasics) {
  auto q = ParseQuery(
      "SELECT DISTINCT ?sea WHERE { ?sea <http://x/outflow> <http://x/a> . } "
      "LIMIT 10");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->form, Query::Form::kSelect);
  EXPECT_TRUE(q->distinct);
  ASSERT_EQ(q->select_vars.size(), 1u);
  EXPECT_EQ(q->select_vars[0].name, "sea");
  EXPECT_EQ(q->limit, 10u);
  ASSERT_EQ(q->where.triples.size(), 1u);
}

TEST(ParserTest, PrefixExpansion) {
  auto q = ParseQuery(
      "PREFIX dbo: <http://dbpedia.org/ontology/> "
      "SELECT ?x WHERE { ?x dbo:spouse ?y . }");
  ASSERT_TRUE(q.ok()) << q.status();
  const TriplePattern& tp = q->where.triples[0];
  EXPECT_EQ(AsTerm(tp.p).value, "http://dbpedia.org/ontology/spouse");
}

TEST(ParserTest, Ask) {
  auto q = ParseQuery("ASK { <http://x/a> <http://x/p> <http://x/b> . }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->form, Query::Form::kAsk);
}

TEST(ParserTest, OptionalAndFilter) {
  auto q = ParseQuery(
      "SELECT ?x ?t WHERE { ?x <http://x/p> ?y . "
      "OPTIONAL { ?x <http://x/type> ?t . } "
      "FILTER (?y != <http://x/b>) }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where.optionals.size(), 1u);
  EXPECT_EQ(q->where.filters.size(), 1u);
}

TEST(ParserTest, BifContains) {
  auto q = ParseQuery(
      "SELECT ?v ?d WHERE { ?v ?p ?d . ?d <bif:contains> "
      "\"'danish' OR 'straits'\" . } LIMIT 400");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->where.text_patterns.size(), 1u);
  EXPECT_EQ(q->where.text_patterns[0].var.name, "d");
}

TEST(ParserTest, CountAggregate) {
  auto q = ParseQuery(
      "SELECT (COUNT(DISTINCT ?x) AS ?c) WHERE { ?x <http://x/p> ?y . }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->aggregates.size(), 1u);
  EXPECT_TRUE(q->aggregates[0].distinct);
  EXPECT_EQ(q->aggregates[0].alias.name, "c");
}

TEST(ParserTest, SemicolonPredicateLists) {
  auto q = ParseQuery(
      "SELECT ?x WHERE { ?x <http://x/p> ?y ; <http://x/q> ?z . }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where.triples.size(), 2u);
}

TEST(ParserTest, SelectStar) {
  auto q = ParseQuery("SELECT * WHERE { ?s ?p ?o . }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->select_all);
}

TEST(ParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("SELECT WHERE { }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x WHERE { ?x ?p }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x WHERE { ?x ?p ?o . ").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x { ?x pfx:undeclared ?o . }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x { ?x ?p ?o . } garbage").ok());
}

TEST(ParserTest, LimitAndOffsetOutOfRangeAreParseErrors) {
  // Past 64 bits (std::stoll used to throw) and negative (used to wrap).
  for (const char* modifier :
       {"LIMIT 99999999999999999999", "LIMIT -5", "OFFSET 99999999999999999999",
        "OFFSET -1", "LIMIT 3 OFFSET -0"}) {
    const std::string text =
        std::string("SELECT ?x WHERE { ?x ?p ?o . } ") + modifier;
    auto q = ParseQuery(text);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), util::StatusCode::kParseError) << text;
  }
  auto largest =
      ParseQuery("SELECT ?x WHERE { ?x ?p ?o . } LIMIT 18446744073709551615");
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(largest->limit, static_cast<size_t>(18446744073709551615ull));
}

TEST(ParserTest, ToSparqlRoundTrips) {
  const char* text =
      "SELECT DISTINCT ?sea WHERE { ?sea <http://x/outflow> <http://x/a> . "
      "OPTIONAL { ?sea <http://x/type> ?c . } } LIMIT 5";
  auto q1 = ParseQuery(text);
  ASSERT_TRUE(q1.ok());
  std::string rendered = ToSparql(*q1);
  auto q2 = ParseQuery(rendered);
  ASSERT_TRUE(q2.ok()) << q2.status() << "\n" << rendered;
  EXPECT_EQ(ToSparql(*q2), rendered);
}

// ---- Evaluator (through Endpoint) ----

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() : endpoint_("test", BuildGraph()) {}

  static Graph BuildGraph() {
    Graph g;
    g.AddIris("http://x/danish_straits", "http://x/outflow",
              "http://x/baltic");
    g.AddIris("http://x/baltic", "http://x/nearestCity",
              "http://x/kaliningrad");
    g.AddIris("http://x/baltic", "http://x/rdf-type", "http://x/Sea");
    g.AddIri("http://x/baltic", "http://x/label", StringLiteral("Baltic Sea"));
    g.AddIri("http://x/danish_straits", "http://x/label",
             StringLiteral("Danish Straits"));
    g.AddIri("http://x/kaliningrad", "http://x/label",
             StringLiteral("Kaliningrad"));
    g.AddIri("http://x/kaliningrad", "http://x/population",
             IntLiteral(489359));
    g.AddIris("http://x/north_sea", "http://x/rdf-type", "http://x/Sea");
    g.AddIri("http://x/north_sea", "http://x/label",
             StringLiteral("North Sea"));
    return g;
  }

  sparql::Endpoint endpoint_;
};

TEST_F(EvalTest, SingleTripleLookup) {
  auto rs = endpoint_.Query(
      "SELECT ?sea WHERE { <http://x/danish_straits> <http://x/outflow> "
      "?sea . }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->At(0, 0)->value, "http://x/baltic");
}

TEST_F(EvalTest, TwoPatternJoin) {
  auto rs = endpoint_.Query(
      "SELECT ?city WHERE { <http://x/danish_straits> <http://x/outflow> "
      "?sea . ?sea <http://x/nearestCity> ?city . }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->At(0, 0)->value, "http://x/kaliningrad");
}

TEST_F(EvalTest, VariablePredicate) {
  auto rs = endpoint_.Query(
      "SELECT DISTINCT ?p WHERE { <http://x/baltic> ?p ?o . }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 3u);
}

TEST_F(EvalTest, AskTrueAndFalse) {
  auto yes = endpoint_.Query(
      "ASK { <http://x/baltic> <http://x/rdf-type> <http://x/Sea> . }");
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(yes->ask_value());
  auto no = endpoint_.Query(
      "ASK { <http://x/kaliningrad> <http://x/rdf-type> <http://x/Sea> . }");
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(no->ask_value());
}

TEST_F(EvalTest, UnknownConstantYieldsEmptyNotError) {
  auto rs = endpoint_.Query(
      "SELECT ?x WHERE { ?x <http://x/outflow> <http://x/unknown-place> . }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 0u);
}

TEST_F(EvalTest, OptionalKeepsUnmatchedRows) {
  auto rs = endpoint_.Query(
      "SELECT ?sea ?city WHERE { ?sea <http://x/rdf-type> <http://x/Sea> . "
      "OPTIONAL { ?sea <http://x/nearestCity> ?city . } }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 2u);
  int unbound = 0;
  for (size_t r = 0; r < rs->NumRows(); ++r) {
    if (!rs->At(r, 1).has_value()) ++unbound;
  }
  EXPECT_EQ(unbound, 1);  // north_sea has no nearestCity.
}

TEST_F(EvalTest, FilterComparison) {
  auto rs = endpoint_.Query(
      "SELECT ?c WHERE { ?c <http://x/population> ?pop . "
      "FILTER (?pop > 100000) }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 1u);
  auto rs2 = endpoint_.Query(
      "SELECT ?c WHERE { ?c <http://x/population> ?pop . "
      "FILTER (?pop > 1000000) }");
  ASSERT_TRUE(rs2.ok());
  EXPECT_EQ(rs2->NumRows(), 0u);
}

TEST_F(EvalTest, FilterNotEqualIri) {
  auto rs = endpoint_.Query(
      "SELECT ?sea WHERE { ?sea <http://x/rdf-type> <http://x/Sea> . "
      "FILTER (?sea != <http://x/north_sea>) }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->At(0, 0)->value, "http://x/baltic");
}

TEST_F(EvalTest, FilterBoundWithOptional) {
  auto rs = endpoint_.Query(
      "SELECT ?sea WHERE { ?sea <http://x/rdf-type> <http://x/Sea> . "
      "OPTIONAL { ?sea <http://x/nearestCity> ?city . } "
      "FILTER (!BOUND(?city)) }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->At(0, 0)->value, "http://x/north_sea");
}

TEST_F(EvalTest, BifContainsSeedsBindings) {
  auto rs = endpoint_.Query(
      "SELECT DISTINCT ?v WHERE { ?v ?p ?d . ?d <bif:contains> "
      "\"'danish' OR 'straits'\" . } LIMIT 400");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->At(0, 0)->value, "http://x/danish_straits");
}

TEST_F(EvalTest, CountAggregate) {
  auto rs = endpoint_.Query(
      "SELECT (COUNT(DISTINCT ?sea) AS ?n) WHERE { ?sea <http://x/rdf-type> "
      "<http://x/Sea> . }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->At(0, 0)->value, "2");
}

TEST_F(EvalTest, OverflowingLimitIsAParseErrorNotAThrow) {
  auto rs = endpoint_.Query(
      "SELECT ?s WHERE { ?s ?p ?o . } LIMIT 99999999999999999999");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), util::StatusCode::kParseError);
}

TEST_F(EvalTest, LimitTruncates) {
  auto rs = endpoint_.Query("SELECT ?s WHERE { ?s ?p ?o . } LIMIT 3");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 3u);
}

TEST_F(EvalTest, DistinctDeduplicates) {
  auto all = endpoint_.Query("SELECT ?s WHERE { ?s ?p ?o . }");
  auto distinct = endpoint_.Query("SELECT DISTINCT ?s WHERE { ?s ?p ?o . }");
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(distinct.ok());
  EXPECT_LT(distinct->NumRows(), all->NumRows());
}

TEST_F(EvalTest, QueryCountIncrements) {
  endpoint_.ResetStats();
  (void)endpoint_.Query("ASK { ?s ?p ?o . }");
  (void)endpoint_.Query("ASK { ?s ?p ?o . }");
  EXPECT_EQ(endpoint_.query_count(), 2u);
}

TEST_F(EvalTest, ValuesBindsTermsAbsentFromTheStore) {
  // Per SPARQL semantics a VALUES term binds even when it does not occur
  // in the KG: the evaluator must bind it from its query-local overlay
  // dictionary rather than dropping the rows.
  auto rs = endpoint_.Query(
      "SELECT ?probe ?s WHERE { VALUES ?probe { 7 } ?s <http://x/outflow> "
      "<http://x/baltic> . }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_GT(rs->NumRows(), 0u);
  auto probe_col = rs->ColumnIndex("probe");
  ASSERT_TRUE(probe_col.has_value());
  ASSERT_TRUE(rs->At(0, *probe_col).has_value());
  EXPECT_EQ(rs->At(0, *probe_col)->value, "7");

  // Absent IRIs in VALUES are bound too (and simply match nothing else).
  auto rs2 = endpoint_.Query(
      "SELECT ?x WHERE { VALUES ?x { <http://nowhere/z> } }");
  ASSERT_TRUE(rs2.ok()) << rs2.status();
  ASSERT_EQ(rs2->NumRows(), 1u);
  EXPECT_EQ(rs2->At(0, 0)->value, "http://nowhere/z");
}

// The evaluator caps solution rows at 100000, like the result caps of
// public SPARQL endpoints: a cross product of two unrelated patterns over
// 400 triples (160000 solutions) stops at the cap and still succeeds.
TEST(EvalRowCapTest, CrossProductStopsAtRowCap) {
  Graph g;
  for (int i = 0; i < 400; ++i) {
    g.AddIris("http://x/s" + std::to_string(i), "http://x/p",
              "http://x/o" + std::to_string(i));
  }
  sparql::Endpoint endpoint("cap", std::move(g));
  auto rs = endpoint.Query(
      "SELECT ?a ?c WHERE { ?a <http://x/p> ?b . ?c <http://x/p> ?d . }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), 100000u);
}

TEST_F(EvalTest, ParseErrorSurfacesAsStatus) {
  auto rs = endpoint_.Query("SELEC ?x WHERE { }");
  EXPECT_FALSE(rs.ok());
}

// Property: on a random graph, a 2-pattern join must agree with a naive
// nested scan.
class SparqlJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparqlJoinPropertyTest, JoinAgreesWithNaiveEvaluation) {
  util::Rng rng(GetParam());
  Graph g;
  const int kN = 30;
  std::vector<std::tuple<int, int, int>> edges;  // (s, p, o) small ints
  for (int i = 0; i < 250; ++i) {
    int s = static_cast<int>(rng.UniformInt(0, kN - 1));
    int p = static_cast<int>(rng.UniformInt(0, 3));
    int o = static_cast<int>(rng.UniformInt(0, kN - 1));
    edges.emplace_back(s, p, o);
    g.AddIris("http://x/e" + std::to_string(s),
              "http://x/p" + std::to_string(p),
              "http://x/e" + std::to_string(o));
  }
  Endpoint ep("prop", std::move(g));
  // Count pairs (a, c) with a -p0-> b -p1-> c via naive scan.
  std::set<std::pair<int, int>> expected;
  for (const auto& [s1, p1, o1] : edges) {
    if (p1 != 0) continue;
    for (const auto& [s2, p2, o2] : edges) {
      if (p2 != 1 || s2 != o1) continue;
      expected.insert({s1, o2});
    }
  }
  auto rs = ep.Query(
      "SELECT DISTINCT ?a ?c WHERE { ?a <http://x/p0> ?b . "
      "?b <http://x/p1> ?c . }");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->NumRows(), expected.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparqlJoinPropertyTest,
                         ::testing::Values(10u, 20u, 30u, 99u));

}  // namespace
}  // namespace kgqan::sparql
