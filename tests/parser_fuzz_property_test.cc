// Mutation property test for the parsers that take outside input besides
// SPARQL (which sparql_roundtrip_property_test covers): N-Triples (what
// Endpoint::AddNTriples feeds to ParseNTriples), Turtle, and the
// `bif:contains` expression language of the text index.  Valid documents
// and expressions are mutated (byte flips, truncation, token splices,
// long digit runs; input_mutator.h), and every mutated input must yield a
// value or a Status: no throw, no crash (the sanitizer job runs this too)
// and no hang (the suite's timeout).  An N-Triples graph that does parse
// writes back to N-Triples that parses again to as many triples.
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
#include <map>
#include <string>
#include <string_view>

#include "input_mutator.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "rdf/turtle.h"
#include "text/text_index.h"
#include "util/rng.h"
#include "util/status.h"

namespace kgqan {

// Set from --seed / KGQAN_PROPERTY_SEED in main() before RUN_ALL_TESTS.
uint64_t g_property_seed = 0xF0221;

namespace {

constexpr int kInputs = 20000;

// Random graphs over a small vocabulary with every term kind the writers
// emit: IRIs, blank nodes, plain, escaped, language-tagged and typed
// literals.
rdf::Graph RandomGraph(util::Rng& rng) {
  auto pick = [&](int64_t n) { return std::to_string(rng.UniformInt(0, n)); };
  rdf::Graph g;
  const int64_t size = rng.UniformInt(1, 6);
  for (int64_t i = 0; i < size; ++i) {
    rdf::Term s = rng.UniformInt(0, 4) == 0 ? rdf::Blank("b" + pick(3))
                                            : rdf::Iri("http://x/s" + pick(5));
    rdf::Term p = rdf::Iri("http://x/p" + pick(3));
    rdf::Term o;
    switch (rng.UniformInt(0, 5)) {
      case 0:
        o = rdf::Iri("http://x/o" + pick(5));
        break;
      case 1:
        o = rdf::Blank("b" + pick(3));
        break;
      case 2:
        o = rdf::LangLiteral("Baltic Sea " + pick(3), "en");
        break;
      case 3:
        o = rdf::IntLiteral(rng.UniformInt(-500, 500));
        break;
      case 4:
        o = rdf::DateLiteral("19" + pick(89) + "-01-01");
        break;
      default:
        o = rdf::StringLiteral("say \"hi\"\\ tab\there\nline " + pick(3));
        break;
    }
    g.Add(s, p, o);
  }
  return g;
}

const char* const kNTriplesSplices[] = {
    "<",   ">",   "<http://x/a>", "_:",  "_:b", "\"", "\\", "\\u",
    "@",   "@en", "^^",  "^^<",   ".",   " .",  "#",  "\n", "\r",
    "\t",  " ",   "\"\"", "<>",  "junk", "'",  "\\\"",
};

const char* const kTurtleSplices[] = {
    "@prefix", "PREFIX", "@base", "ex:", ":",  "a",   ";",   ",",   ".",
    "[",       "]",      "[]",    "(",   ")",  "\"",  "\"\"\"", "'", "'''",
    "<",       ">",      "_:",    "@en", "^^", "true", "false", "1.5e3",
    "-",       "+",      "#",     "\n",  "\\", "\\u00", "xsd:integer",
};

const char* const kContainsSplices[] = {
    "'", "''", "\"", " ", "AND", "and", "OR", "or", " AND ", " OR ",
    "(", ")", "*", "\\", "OR OR", "AND AND", "'a'", "\n", "\t",
};

const char* const kContainsShapes[] = {
    "'danish' AND 'straits' OR 'kaliningrad'",
    "'baltic' OR 'sea'",
    "baltic AND sea",
    "'river'",
    "'sea' OR 'city' OR 'port' AND 'north'",
    "'2022' and 'delta' or 'island'",
};

std::string InputTrace(const char* parser, int c, const std::string& input) {
  return std::string(parser) + " seed " + std::to_string(g_property_seed) +
         " input " + std::to_string(c) + ":\n" + input;
}

TEST(ParserFuzzPropertyTest, MutatedNTriplesYieldAGraphOrAStatus) {
  util::Rng master(g_property_seed ^ 0x0A7u);
  util::Rng graphs(master.Next());
  fuzz::InputMutator mutator(master.Next(), kNTriplesSplices);
  size_t parsed = 0;
  for (int c = 0; c < kInputs; ++c) {
    const std::string input = mutator.Mutate(
        (c % 8 == 0 ? "# a comment\n\n" : "") +
        rdf::WriteNTriples(RandomGraph(graphs)));
    SCOPED_TRACE(InputTrace("N-Triples", c, input));
    util::StatusOr<rdf::Graph> graph = util::Status::Internal("not parsed");
    try {
      graph = rdf::ParseNTriples(input);
    } catch (const std::exception& e) {
      FAIL() << "ParseNTriples threw: " << e.what();
    }
    if (!graph.ok()) {
      EXPECT_EQ(graph.status().code(), util::StatusCode::kParseError);
      continue;
    }
    ++parsed;
    const std::string text = rdf::WriteNTriples(*graph);
    auto reparsed = rdf::ParseNTriples(text);
    ASSERT_TRUE(reparsed.ok()) << text << "\n" << reparsed.status();
    EXPECT_EQ(reparsed->size(), graph->size()) << text;
  }
  // Mild mutations leave some inputs valid, so both outcomes are covered.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, static_cast<size_t>(kInputs));
}

TEST(ParserFuzzPropertyTest, MutatedTurtleYieldsAGraphOrAStatus) {
  util::Rng master(g_property_seed ^ 0x77Cu);
  util::Rng graphs(master.Next());
  fuzz::InputMutator mutator(master.Next(), kTurtleSplices);
  const std::map<std::string, std::string> prefixes = {
      {"ex", "http://x/"}, {"xsd", "http://www.w3.org/2001/XMLSchema#"}};
  const std::string handwritten =
      "@prefix ex: <http://x/> .\n"
      "@base <http://x/ns/> .\n"
      "ex:a a ex:Sea ; ex:near ex:b , ex:c ;\n"
      "  ex:n 42 , 3.5 , true ; ex:l \"nom\"@fr ;\n"
      "  ex:long \"\"\"line1\nline2\"\"\" .\n"
      "_:b1 ex:p [] . <rel> <p> 'single' . # comment\n";
  size_t parsed = 0;
  for (int c = 0; c < kInputs; ++c) {
    const std::string input = mutator.Mutate(
        c % 4 == 0 ? handwritten
                   : rdf::WriteTurtle(RandomGraph(graphs), prefixes));
    SCOPED_TRACE(InputTrace("Turtle", c, input));
    util::StatusOr<rdf::Graph> graph = util::Status::Internal("not parsed");
    try {
      graph = rdf::ParseTurtle(input);
    } catch (const std::exception& e) {
      FAIL() << "ParseTurtle threw: " << e.what();
    }
    if (!graph.ok()) {
      EXPECT_FALSE(graph.status().message().empty());
      continue;
    }
    ++parsed;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, static_cast<size_t>(kInputs));
}

TEST(ParserFuzzPropertyTest, MutatedContainsExpressionsYieldAQueryOrAStatus) {
  util::Rng master(g_property_seed ^ 0xB1Fu);
  fuzz::InputMutator mutator(master.Next(), kContainsSplices);
  size_t parsed = 0;
  for (int c = 0; c < kInputs; ++c) {
    const std::string input =
        mutator.Mutate(kContainsShapes[c % std::size(kContainsShapes)]);
    SCOPED_TRACE(InputTrace("bif:contains", c, input));
    util::StatusOr<text::ContainsQuery> query =
        util::Status::Internal("not parsed");
    try {
      query = text::ParseContainsQuery(input);
    } catch (const std::exception& e) {
      FAIL() << "ParseContainsQuery threw: " << e.what();
    }
    if (!query.ok()) {
      EXPECT_FALSE(query.status().message().empty());
      continue;
    }
    ++parsed;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, static_cast<size_t>(kInputs));
}

}  // namespace
}  // namespace kgqan

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  uint64_t seed = kgqan::g_property_seed;
  if (const char* env = std::getenv("KGQAN_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  kgqan::g_property_seed = seed;
  std::printf(
      "[property] seed=%llu  (repro: parser_fuzz_property_test --seed=%llu)\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(seed));
  return RUN_ALL_TESTS();
}
