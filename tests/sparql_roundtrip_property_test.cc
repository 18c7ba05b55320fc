// Parser ⇄ serializer round-trip property test: random ASTs from the
// supported SPARQL subset (BGP + UNION + VALUES + FILTER + OPTIONAL, plus
// SELECT modifiers) are serialized with ToSparql, re-parsed, and checked
// for (a) deep AST equality and (b) identical evaluation results on a
// random small KG.  A fuzzer then mutates generated queries and the
// engine's candidate and probe shapes (byte flips, truncation, token
// splices, long digit runs) and checks that every input yields a query or
// a Status.
//
// The binary has its own main: `--seed=N` (or the KGQAN_PROPERTY_SEED
// environment variable) reseeds the generator, so CI can rotate seeds and
// a failure is reproducible locally with the printed flag.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "input_mutator.h"
#include "rdf/graph.h"
#include "sparql/ast.h"
#include "sparql/endpoint.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "util/rng.h"
#include "util/status.h"

namespace kgqan::sparql {

// Set from --seed / KGQAN_PROPERTY_SEED in main() before RUN_ALL_TESTS.
uint64_t g_property_seed = 0xB5EED5u;

namespace {

const char* const kWords[] = {"alpha", "beta",  "gamma",
                              "delta", "omega", "sigma"};
constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);

// Random AST generator over a random KG (IRIs http://x/eN, predicates
// http://x/pN, plus word-literal descriptions so text patterns and literal
// objects can actually match).
class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {
    num_entities_ = static_cast<int>(rng_.UniformInt(6, 14));
    num_predicates_ = static_cast<int>(rng_.UniformInt(2, 4));
  }

  static std::string E(int i) { return "http://x/e" + std::to_string(i); }
  static std::string P(int i) { return "http://x/p" + std::to_string(i); }

  rdf::Graph MakeGraph() {
    rdf::Graph g;
    int n_triples = static_cast<int>(rng_.UniformInt(25, 90));
    for (int i = 0; i < n_triples; ++i) {
      g.AddIris(E(RandEntity()), P(RandPredicate()), E(RandEntity()));
    }
    for (int e = 0; e < num_entities_; ++e) {
      g.AddIri(E(e), P(0),
               rdf::StringLiteral(std::string(RandWord()) + " " + RandWord()));
    }
    return g;
  }

  Query RandQuery() {
    Query q;
    q.where = RandGroup(1);
    if (rng_.UniformInt(0, 9) == 0) {
      // ASK carries no projection or solution modifiers: the serializer
      // would append them after the group but the ASK parse path accepts
      // none, so the generator never attaches them.
      q.form = Query::Form::kAsk;
      return q;
    }
    q.form = Query::Form::kSelect;
    q.distinct = rng_.UniformInt(0, 1) == 1;
    switch (rng_.UniformInt(0, 9)) {
      case 0:
        q.select_all = true;
        break;
      case 1: {
        Aggregate agg;
        agg.op = static_cast<Aggregate::Op>(rng_.UniformInt(0, 4));
        agg.distinct = rng_.UniformInt(0, 1) == 1;
        agg.var = RandVar();
        agg.alias = Var{"n"};
        q.aggregates.push_back(agg);
        break;
      }
      default: {
        int n_vars = static_cast<int>(rng_.UniformInt(1, 3));
        for (int i = 0; i < n_vars; ++i) q.select_vars.push_back(RandVar());
        break;
      }
    }
    if (q.aggregates.empty()) {
      int n_keys = static_cast<int>(rng_.UniformInt(0, 2));
      for (int i = 0; i < n_keys; ++i) {
        q.order_by.push_back(OrderKey{RandVar(), rng_.UniformInt(0, 1) == 1});
      }
    }
    q.limit = static_cast<size_t>(rng_.UniformInt(0, 5));
    q.offset = static_cast<size_t>(rng_.UniformInt(0, 2));
    return q;
  }

 private:
  int RandEntity() {
    return static_cast<int>(rng_.UniformInt(0, num_entities_ - 1));
  }
  int RandPredicate() {
    return static_cast<int>(rng_.UniformInt(0, num_predicates_ - 1));
  }
  const char* RandWord() {
    return kWords[rng_.UniformInt(0, static_cast<int64_t>(kNumWords) - 1)];
  }
  Var RandVar() {
    static const char* const kVars[] = {"a", "b", "c", "d", "e"};
    return Var{kVars[rng_.UniformInt(0, 4)]};
  }

  rdf::Term RandTerm() {
    switch (rng_.UniformInt(0, 6)) {
      case 0:
      case 1:
        return rdf::Iri(E(RandEntity()));
      case 2:
        // Absent from the KG: exercises the evaluator's VALUES overlay.
        return rdf::Iri("http://x/absent" +
                        std::to_string(rng_.UniformInt(0, 3)));
      case 3:
        return rdf::StringLiteral(std::string(RandWord()) + " " + RandWord());
      case 4:
        // Escapes must survive serialize -> lex.
        return rdf::StringLiteral(std::string(RandWord()) + "\n\t\"" +
                                  RandWord());
      case 5:
        return rdf::LangLiteral(RandWord(), "en");
      default:
        return rdf::IntLiteral(rng_.UniformInt(0, 9));
    }
  }

  TermOrVar RandSubject() {
    if (rng_.UniformInt(0, 9) < 6) return TermOrVar{RandVar()};
    return TermOrVar{rdf::Iri(E(RandEntity()))};
  }
  TermOrVar RandPredicateTv() {
    if (rng_.UniformInt(0, 9) < 3) return TermOrVar{RandVar()};
    return TermOrVar{rdf::Iri(P(RandPredicate()))};
  }
  TermOrVar RandObject() {
    if (rng_.UniformInt(0, 9) < 5) return TermOrVar{RandVar()};
    return TermOrVar{RandTerm()};
  }

  Expr Leaf() {
    Expr e;
    if (rng_.UniformInt(0, 1) == 0) {
      e.op = ExprOp::kVar;
      e.var = RandVar();
    } else {
      e.op = ExprOp::kConstant;
      e.constant = RandTerm();
    }
    return e;
  }

  Expr RandExpr(int depth) {
    if (depth == 0 || rng_.UniformInt(0, 2) == 0) {
      switch (rng_.UniformInt(0, 3)) {
        case 0: {
          Expr e;
          e.op = ExprOp::kBound;
          e.var = RandVar();
          return e;
        }
        case 1: {
          Expr e;
          e.op = static_cast<ExprOp>(
              rng_.UniformInt(static_cast<int64_t>(ExprOp::kEq),
                              static_cast<int64_t>(ExprOp::kGe)));
          e.lhs = std::make_unique<Expr>(Leaf());
          e.rhs = std::make_unique<Expr>(Leaf());
          return e;
        }
        case 2: {
          Expr e;
          e.op = rng_.UniformInt(0, 1) == 0 ? ExprOp::kIsIri
                                            : ExprOp::kIsLiteral;
          e.lhs = std::make_unique<Expr>(Leaf());
          return e;
        }
        default: {
          Expr e;
          e.op = ExprOp::kContains;
          Expr str;
          str.op = ExprOp::kStr;
          str.lhs = std::make_unique<Expr>(Leaf());
          e.lhs = std::make_unique<Expr>(std::move(str));
          Expr pat;
          pat.op = ExprOp::kConstant;
          pat.constant = rdf::StringLiteral(RandWord());
          e.rhs = std::make_unique<Expr>(std::move(pat));
          return e;
        }
      }
    }
    Expr e;
    switch (rng_.UniformInt(0, 2)) {
      case 0:
        e.op = ExprOp::kNot;
        e.lhs = std::make_unique<Expr>(RandExpr(depth - 1));
        return e;
      default:
        e.op = rng_.UniformInt(0, 1) == 0 ? ExprOp::kAnd : ExprOp::kOr;
        e.lhs = std::make_unique<Expr>(RandExpr(depth - 1));
        e.rhs = std::make_unique<Expr>(RandExpr(depth - 1));
        return e;
    }
  }

  GroupGraphPattern RandGroup(int depth) {
    GroupGraphPattern g;
    int n_triples = static_cast<int>(rng_.UniformInt(0, 2 + depth));
    for (int i = 0; i < n_triples; ++i) {
      g.triples.push_back(
          TriplePattern{RandSubject(), RandPredicateTv(), RandObject()});
    }
    if (rng_.UniformInt(0, 9) < 3) {
      std::string expr = RandWord();
      if (rng_.UniformInt(0, 1) == 1) {
        expr += rng_.UniformInt(0, 1) == 1 ? " OR " : " AND ";
        expr += RandWord();
      }
      g.text_patterns.push_back(TextPattern{RandVar(), std::move(expr)});
    }
    if (rng_.UniformInt(0, 9) < 4) {
      InlineValues iv;
      iv.var = RandVar();
      int n_values = static_cast<int>(rng_.UniformInt(1, 3));
      for (int i = 0; i < n_values; ++i) iv.values.push_back(RandTerm());
      g.values.push_back(std::move(iv));
    }
    if (rng_.UniformInt(0, 9) < 3) g.filters.push_back(RandExpr(2));
    if (depth > 0) {
      if (rng_.UniformInt(0, 9) < 3) {
        int n_branches = static_cast<int>(rng_.UniformInt(1, 3));
        std::vector<GroupGraphPattern> branches;
        for (int i = 0; i < n_branches; ++i) {
          branches.push_back(RandGroup(depth - 1));
        }
        g.unions.push_back(std::move(branches));
      }
      if (rng_.UniformInt(0, 9) < 2) {
        g.optionals.push_back(RandGroup(depth - 1));
      }
    }
    return g;
  }

  util::Rng rng_;
  int num_entities_ = 0;
  int num_predicates_ = 0;
};

std::string DumpResults(const ResultSet& rs) {
  if (rs.is_ask()) return rs.ask_value() ? "ASK true" : "ASK false";
  std::string out;
  for (const std::string& c : rs.columns()) out += "?" + c + " ";
  out += "\n";
  for (const auto& row : rs.rows()) {
    for (const auto& cell : row) {
      out += cell.has_value() ? rdf::ToNTriples(*cell) : std::string("_");
      out += " ";
    }
    out += "\n";
  }
  return out;
}

::testing::AssertionResult SameResults(const ResultSet& a,
                                       const ResultSet& b) {
  if (a.is_ask() == b.is_ask() && a.ask_value() == b.ask_value() &&
      a.columns() == b.columns() && a.rows() == b.rows()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "original:\n" << DumpResults(a)
                                       << "reparsed:\n" << DumpResults(b);
}

TEST(SparqlRoundTripPropertyTest, SerializeReparseEvaluate) {
  constexpr int kKgRounds = 5;
  constexpr int kCasesPerKg = 120;  // 600 cases per run.
  util::Rng master(g_property_seed);
  for (int round = 0; round < kKgRounds; ++round) {
    uint64_t round_seed = master.Next();
    Generator gen(round_seed);
    Endpoint ep("roundtrip", gen.MakeGraph());
    for (int c = 0; c < kCasesPerKg; ++c) {
      Query query = gen.RandQuery();
      std::string text = ToSparql(query);
      SCOPED_TRACE("seed " + std::to_string(g_property_seed) + " round " +
                   std::to_string(round) + " case " + std::to_string(c) +
                   "\nquery:\n" + text);
      auto reparsed = ParseQuery(text);
      ASSERT_TRUE(reparsed.ok()) << reparsed.status();
      ASSERT_TRUE(query == *reparsed)
          << "re-serialized:\n" << ToSparql(*reparsed);
      auto rs1 = Evaluate(query, ep.store(), ep.text_index());
      auto rs2 = Evaluate(*reparsed, ep.store(), ep.text_index());
      ASSERT_TRUE(rs1.ok()) << rs1.status();
      ASSERT_TRUE(rs2.ok()) << rs2.status();
      EXPECT_TRUE(SameResults(*rs1, *rs2));
    }
  }
}

// Serializing a query twice through a parse must be a fixed point: the
// text of the reparsed AST equals the original text.
TEST(SparqlRoundTripPropertyTest, SerializationIsAFixedPoint) {
  util::Rng master(g_property_seed ^ 0x5A5A5A5Au);
  for (int round = 0; round < 3; ++round) {
    Generator gen(master.Next());
    for (int c = 0; c < 50; ++c) {
      Query query = gen.RandQuery();
      std::string text = ToSparql(query);
      auto reparsed = ParseQuery(text);
      ASSERT_TRUE(reparsed.ok()) << text << "\n" << reparsed.status();
      EXPECT_EQ(ToSparql(*reparsed), text);
    }
  }
}

// ---- Parser fuzzing. ----

// The shapes the engine sends: Alg. 3 candidates (SELECT with the
// OPTIONAL rdf:type clause, and ASK) and the linker's probes.
const char* const kEngineShapes[] = {
    "SELECT DISTINCT ?u1 ?c WHERE {\n"
    "  <http://x/e1> <http://x/p0> ?u1 .\n"
    "  ?u1 <http://x/p1> <http://x/e2> .\n"
    "  OPTIONAL { ?u1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?c . "
    "}\n}\n",
    "ASK {\n  <http://x/e1> <http://x/p0> <http://x/e2> .\n}\n",
    "SELECT DISTINCT ?p WHERE { <http://x/e1> ?p ?obj . }",
    "SELECT DISTINCT ?p WHERE { ?sub ?p <http://x/e1> . }",
    "SELECT ?v ?p ?d WHERE { ?v ?p ?d . ?d <bif:contains> "
    "\"'danish' AND 'straits'\" . } LIMIT 400",
    "SELECT ?d WHERE { <http://x/e1> ?lp ?d . } LIMIT 8",
    "SELECT DISTINCT ?x WHERE { ?x <http://x/p0> <http://x/e1> . } LIMIT 20",
    "PREFIX dbo: <http://dbpedia.org/ontology/> SELECT ?x WHERE { ?x "
    "dbo:spouse ?y . FILTER(?y != \"a\\\"b\"@en && isIRI(?x)) } "
    "ORDER BY DESC(?x) OFFSET 2",
};

// Fragments spliced in at random offsets: keywords, punctuation, the
// lexer's two-character and escape cases, and unterminated openers.
const char* const kSplices[] = {
    "SELECT", "ASK",    "WHERE", "{",       "}",     "(",   ")",    ".",
    ";",      ",",      "*",     "!",       "=",     "!=",  "<",    "<=",
    ">=",     "&&",     "||",    "<http://x/e1>",    "<",   ">",    "?",
    "?u1",    "$v",     "\"",   "'",       "\\",  "\\\"", "^",  "^^",
    "@en",    "@",      "#",     "\n",     "-",     "1.5", "9.",   "OPTIONAL",
    "FILTER", "UNION",  "VALUES ?x {", "LIMIT", "OFFSET", "ORDER BY",
    "DISTINCT", "COUNT(", "AS", "BOUND(", "REGEX(", "PREFIX p: <http://x/>",
    "p:",     "bif:contains", "true", "false", "a:b.c.", "_",
};

// Every mutated input yields a query or a Status: no throw, no crash (the
// sanitizer job runs this too), and no hang (the suite's timeout).  A
// query that does parse serializes to text that parses again.
TEST(SparqlRoundTripPropertyTest, MutatedQueriesYieldAValueOrAStatus) {
  constexpr int kInputs = 20000;
  util::Rng master(g_property_seed ^ 0xF022u);
  Generator gen(master.Next());
  fuzz::InputMutator mutator(master.Next(), kSplices);
  size_t parsed = 0;
  for (int c = 0; c < kInputs; ++c) {
    std::string seed_text =
        c % 2 == 0 ? std::string(kEngineShapes[c / 2 % std::size(kEngineShapes)])
                   : ToSparql(gen.RandQuery());
    const std::string input = mutator.Mutate(std::move(seed_text));
    SCOPED_TRACE("seed " + std::to_string(g_property_seed) + " input " +
                 std::to_string(c) + ":\n" + input);
    util::StatusOr<Query> query = util::Status::Internal("not parsed");
    try {
      query = ParseQuery(input);
    } catch (const std::exception& e) {
      FAIL() << "ParseQuery threw: " << e.what();
    }
    if (!query.ok()) {
      EXPECT_FALSE(query.status().message().empty());
      continue;
    }
    ++parsed;
    const std::string text = ToSparql(*query);
    auto reparsed = ParseQuery(text);
    EXPECT_TRUE(reparsed.ok()) << text << "\n" << reparsed.status();
  }
  // Mild mutations leave some inputs valid, so both outcomes are covered.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, static_cast<size_t>(kInputs));
}

}  // namespace
}  // namespace kgqan::sparql

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  uint64_t seed = kgqan::sparql::g_property_seed;
  if (const char* env = std::getenv("KGQAN_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  kgqan::sparql::g_property_seed = seed;
  std::printf("[property] seed=%llu  (repro: sparql_roundtrip_property_test "
              "--seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  return RUN_ALL_TESTS();
}
