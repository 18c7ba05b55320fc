// Unit tests for kgqan::rdf — terms, dictionary, graph, N-Triples I/O.

#include <gtest/gtest.h>

#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "rdf/term_dictionary.h"
#include "util/rng.h"

namespace kgqan::rdf {
namespace {

TEST(TermTest, Factories) {
  Term i = Iri("http://example.org/x");
  EXPECT_TRUE(i.IsIri());
  EXPECT_EQ(i.value, "http://example.org/x");

  Term s = StringLiteral("hello");
  EXPECT_TRUE(s.IsLiteral());
  EXPECT_TRUE(s.IsStringLiteral());
  EXPECT_EQ(s.datatype, vocab::kXsdString);

  Term l = LangLiteral("Bonjour", "fr");
  EXPECT_TRUE(l.IsLiteral());
  EXPECT_EQ(l.lang, "fr");

  Term n = IntLiteral(-42);
  EXPECT_EQ(n.value, "-42");
  EXPECT_EQ(n.datatype, vocab::kXsdInteger);

  Term b = BoolLiteral(true);
  EXPECT_EQ(b.value, "true");

  Term d = DateLiteral("1998-07-12");
  EXPECT_EQ(d.datatype, vocab::kXsdDate);

  Term bl = Blank("b0");
  EXPECT_TRUE(bl.IsBlank());
}

TEST(TermTest, EqualityDistinguishesKindAndDatatype) {
  EXPECT_EQ(Iri("x"), Iri("x"));
  EXPECT_NE(Iri("x"), StringLiteral("x"));
  EXPECT_NE(StringLiteral("5"), IntLiteral(5));
  EXPECT_NE(LangLiteral("x", "en"), LangLiteral("x", "de"));
}

TEST(TermTest, ToNTriplesEscapes) {
  EXPECT_EQ(ToNTriples(Iri("http://x")), "<http://x>");
  EXPECT_EQ(ToNTriples(StringLiteral("a\"b\\c\nd")),
            "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(ToNTriples(LangLiteral("hi", "en")), "\"hi\"@en");
  EXPECT_EQ(ToNTriples(IntLiteral(7)),
            "\"7\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(ToNTriples(Blank("n1")), "_:n1");
}

TEST(TermTest, IriLocalName) {
  EXPECT_EQ(IriLocalName("http://dbpedia.org/ontology/nearestCity"),
            "nearestCity");
  EXPECT_EQ(IriLocalName("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
            "type");
  EXPECT_EQ(IriLocalName("noSeparators"), "noSeparators");
}

TEST(TermTest, IsHumanReadableIri) {
  EXPECT_TRUE(IsHumanReadableIri("http://dbpedia.org/ontology/spouse"));
  EXPECT_FALSE(IsHumanReadableIri("https://makg.org/entity/2279569217"));
  EXPECT_FALSE(IsHumanReadableIri("http://wikidata.org/prop/P227"));
  EXPECT_TRUE(IsHumanReadableIri("http://x/nearestCity2"));
}

TEST(TermDictionaryTest, InternIsIdempotent) {
  TermDictionary dict;
  TermId a = dict.Intern(Iri("http://x/a"));
  TermId b = dict.Intern(Iri("http://x/b"));
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern(Iri("http://x/a")), a);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(TermDictionaryTest, NullIdReserved) {
  TermDictionary dict;
  TermId a = dict.Intern(StringLiteral("x"));
  EXPECT_NE(a, kNullTermId);
}

TEST(TermDictionaryTest, FindAndGetRoundTrip) {
  TermDictionary dict;
  Term t = LangLiteral("Kaliningrad", "en");
  TermId id = dict.Intern(t);
  EXPECT_EQ(dict.Get(id), t);
  ASSERT_TRUE(dict.Find(t).has_value());
  EXPECT_EQ(*dict.Find(t), id);
  EXPECT_FALSE(dict.Find(StringLiteral("Kaliningrad")).has_value());
}

TEST(TermDictionaryTest, DistinguishesDatatypes) {
  TermDictionary dict;
  TermId s = dict.Intern(StringLiteral("5"));
  TermId n = dict.Intern(IntLiteral(5));
  EXPECT_NE(s, n);
}

TEST(TermDictionaryTest, ApproxBytesGrows) {
  TermDictionary dict;
  size_t before = dict.ApproxBytes();
  for (int i = 0; i < 100; ++i) {
    dict.Intern(Iri("http://example.org/entity/" + std::to_string(i)));
  }
  EXPECT_GT(dict.ApproxBytes(), before);
}

// ApproxBytes is a running total kept by Intern; it must equal a full walk
// over the interned terms after any mix of new and repeated terms.
TEST(TermDictionaryTest, ApproxBytesEqualsRecomputation) {
  util::Rng rng(0xD1C7);
  TermDictionary dict;
  // The dictionary grows its term vector by push_back from one reserved
  // slot; a mirror grown the same way has the same capacity.
  std::vector<Term> mirror(1);
  for (int i = 0; i < 600; ++i) {
    const std::string n = std::to_string(rng.UniformInt(0, 199));
    Term term;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        term = Iri("http://example.org/e" + n);
        break;
      case 1:
        term = StringLiteral("label " + n);
        break;
      case 2:
        term = LangLiteral("label " + n, "en");
        break;
      default:
        term = IntLiteral(rng.UniformInt(0, 199));
        break;
    }
    const size_t before = dict.size();
    dict.Intern(term);
    if (dict.size() > before) mirror.push_back(term);

    size_t expected = mirror.capacity() * sizeof(Term);
    for (TermId id = 1; id <= dict.MaxId(); ++id) {
      const Term& t = dict.Get(id);
      const size_t strings = t.value.size() + t.datatype.size() + t.lang.size();
      // The term's strings, plus its hash-map node: the encoded key (kind
      // byte, strings, two separators), the id and a fixed overhead.
      expected += strings + (strings + 3) + sizeof(TermId) + 32;
    }
    ASSERT_EQ(dict.ApproxBytes(), expected) << "after intern " << i;
  }
}

TEST(GraphTest, AddInternsTerms) {
  Graph g;
  g.AddIris("http://x/s", "http://x/p", "http://x/o");
  g.AddIri("http://x/s", "http://x/label", StringLiteral("S"));
  EXPECT_EQ(g.size(), 2u);
  // s and p reused: 4 IRIs + 1 literal = 5 terms.
  EXPECT_EQ(g.dictionary().size(), 5u);
}

TEST(NTriplesTest, WriteParseRoundTrip) {
  Graph g;
  g.AddIris("http://x/danish_straits", "http://x/outflow", "http://x/baltic");
  g.AddIri("http://x/baltic", std::string(vocab::kRdfsLabel),
           LangLiteral("Baltic Sea", "en"));
  g.AddIri("http://x/baltic", "http://x/depth", IntLiteral(459));
  g.AddIri("http://x/baltic", "http://x/note",
           StringLiteral("line1\nline2 \"quoted\""));

  std::string text = WriteNTriples(g);
  auto parsed = ParseNTriples(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), g.size());
  EXPECT_EQ(WriteNTriples(*parsed), text);
}

TEST(NTriplesTest, ParsesCommentsAndBlankLines) {
  auto g = ParseNTriples(
      "# a comment\n"
      "\n"
      "<http://x/a> <http://x/p> \"v\" .\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->size(), 1u);
}

TEST(NTriplesTest, ParsesTypedAndLangLiterals) {
  auto g = ParseNTriples(
      "<http://x/a> <http://x/p> \"4\"^^"
      "<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "<http://x/a> <http://x/q> \"vier\"@de .\n");
  ASSERT_TRUE(g.ok()) << g.status();
  ASSERT_EQ(g->size(), 2u);
  const Term& o1 = g->dictionary().Get(g->triples()[0].o);
  EXPECT_EQ(o1.datatype, vocab::kXsdInteger);
  const Term& o2 = g->dictionary().Get(g->triples()[1].o);
  EXPECT_EQ(o2.lang, "de");
}

TEST(NTriplesTest, ParsesBlankNodes) {
  auto g = ParseNTriples("_:b1 <http://x/p> _:b2 .\n");
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_TRUE(g->dictionary().Get(g->triples()[0].s).IsBlank());
  EXPECT_TRUE(g->dictionary().Get(g->triples()[0].o).IsBlank());
}

TEST(NTriplesTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseNTriples("<http://x/a> <http://x/p> .\n").ok());
  EXPECT_FALSE(ParseNTriples("<http://x/a> <http://x/p> \"v\"\n").ok());
  EXPECT_FALSE(ParseNTriples("<http://x/a> \"lit\" <http://x/o> .\n").ok());
  EXPECT_FALSE(ParseNTriples("<http://x/a <http://x/p> <http://x/o> .\n").ok());
  EXPECT_FALSE(ParseNTriples("<a> <p> \"unterminated .\n").ok());
}

TEST(NTriplesTest, RejectsLiteralSubject) {
  auto g = ParseNTriples("\"x\" <http://x/p> <http://x/o> .\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), util::StatusCode::kParseError);
  EXPECT_TRUE(ParseNTriples("_:x <http://x/p> \"x\" .\n").ok());
}

TEST(NTriplesTest, RejectsEmptyBlankNodeLabel) {
  auto g = ParseNTriples("_: <http://x/p> <http://x/o> .\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), util::StatusCode::kParseError);
  EXPECT_FALSE(ParseNTriples("<http://x/s> <http://x/p> _:\t.\n").ok());
}

TEST(NTriplesTest, RejectsTextAfterTheDot) {
  auto g = ParseNTriples("<http://x/s> <http://x/p> <http://x/o> . junk\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), util::StatusCode::kParseError);
  EXPECT_FALSE(
      ParseNTriples("<http://x/s> <http://x/p> <http://x/o> .. \n").ok());
  // Whitespace or a comment after the dot is still fine.
  auto ok = ParseNTriples(
      "<http://x/s> <http://x/p> <http://x/o> . \t\n"
      "<http://x/s> <http://x/p> <http://x/o2> . # trailing comment\n"
      "<http://x/s> <http://x/p> <http://x/o3> .#tight\n");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->size(), 3u);
}

TEST(NTriplesTest, ErrorsIncludeLineNumbers) {
  auto g = ParseNTriples(
      "<http://x/a> <http://x/p> \"v\" .\n"
      "garbage\n");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

}  // namespace
}  // namespace kgqan::rdf
