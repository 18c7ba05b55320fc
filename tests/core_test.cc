// End-to-end tests for the KGQAn core: JIT linking, BGP generation,
// filtration, and the full engine on a hand-built DBpedia-style KG.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/bgp.h"
#include "core/engine.h"
#include "core/filtration.h"
#include "core/linker.h"
#include "core/multi_intention.h"
#include "rdf/graph.h"
#include "sparql/endpoint.h"

namespace kgqan::core {
namespace {

using rdf::DateLiteral;
using rdf::Graph;
using rdf::IntLiteral;
using rdf::StringLiteral;

constexpr const char* kDbr = "http://dbpedia.org/resource/";
constexpr const char* kDbo = "http://dbpedia.org/ontology/";
constexpr const char* kDbp = "http://dbpedia.org/property/";
constexpr const char* kLabel = "http://www.w3.org/2000/01/rdf-schema#label";
constexpr const char* kType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

std::string R(const std::string& x) { return kDbr + x; }
std::string O(const std::string& x) { return kDbo + x; }
std::string P(const std::string& x) { return kDbp + x; }

Graph MiniDbpedia() {
  Graph g;
  auto label = [&](const std::string& iri, const std::string& text) {
    g.AddIri(iri, kLabel, StringLiteral(text));
  };
  // The running example q^E.
  g.AddIris(R("Danish_Straits"), P("outflow"), R("Baltic_Sea"));
  g.AddIris(R("Baltic_Sea"), O("nearestCity"), R("Kaliningrad"));
  g.AddIris(R("Baltic_Sea"), kType, O("Sea"));
  g.AddIris(R("North_Sea"), kType, O("Sea"));
  g.AddIris(R("Kaliningrad"), kType, O("City"));
  g.AddIris(R("Yantar_Kaliningrad"), kType, O("Company"));
  label(R("Danish_Straits"), "Danish Straits");
  label(R("Baltic_Sea"), "Baltic Sea");
  label(R("North_Sea"), "North Sea");
  label(R("Kaliningrad"), "Kaliningrad");
  label(R("Yantar_Kaliningrad"), "Yantar, Kaliningrad");

  // People facts for single-fact / boolean / date questions.
  g.AddIris(R("Barack_Obama"), O("spouse"), R("Michelle_Obama"));
  g.AddIris(R("Barack_Obama"), kType, O("Person"));
  g.AddIris(R("Michelle_Obama"), kType, O("Person"));
  g.AddIri(R("Barack_Obama"), O("birthDate"), DateLiteral("1961-08-04"));
  g.AddIris(R("Barack_Obama"), O("birthPlace"), R("Honolulu"));
  g.AddIris(R("Honolulu"), kType, O("City"));
  label(R("Barack_Obama"), "Barack Obama");
  label(R("Michelle_Obama"), "Michelle Obama");
  label(R("Honolulu"), "Honolulu");

  // Capital / population facts for path and numerical questions.
  g.AddIris(R("France"), O("capital"), R("Paris"));
  g.AddIris(R("Paris"), kType, O("City"));
  g.AddIris(R("France"), kType, O("Country"));
  g.AddIris(R("Paris"), O("mayor"), R("Anne_Hidalgo"));
  g.AddIris(R("Anne_Hidalgo"), kType, O("Person"));
  g.AddIri(R("Paris"), O("populationTotal"), IntLiteral(2165423));
  label(R("France"), "France");
  label(R("Paris"), "Paris");
  label(R("Anne_Hidalgo"), "Anne Hidalgo");

  // Germany for boolean checks.
  g.AddIris(R("Germany"), O("capital"), R("Berlin"));
  g.AddIris(R("Berlin"), kType, O("City"));
  label(R("Germany"), "Germany");
  label(R("Berlin"), "Berlin");
  return g;
}

KgqanConfig FastConfig() {
  KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  return cfg;
}

class CoreTest : public ::testing::Test {
 protected:
  CoreTest() : endpoint_("mini-dbpedia", MiniDbpedia()), engine_(FastConfig()) {}

  sparql::Endpoint endpoint_;
  KgqanEngine engine_;
};

TEST_F(CoreTest, PotentialRelevantVerticesQueryShape) {
  std::string q =
      JitLinker::PotentialRelevantVerticesQuery("Danish Straits", 400);
  EXPECT_NE(q.find("bif:contains"), std::string::npos);
  EXPECT_NE(q.find("'danish' OR 'straits'"), std::string::npos);
  EXPECT_NE(q.find("LIMIT 400"), std::string::npos);
}

TEST_F(CoreTest, EntityLinkingRanksExactMatchFirst) {
  JitLinker linker(&engine_.config(), &engine_.affinity());
  auto relevant = linker.LinkEntity("Kaliningrad", endpoint_);
  ASSERT_GE(relevant.size(), 2u);
  EXPECT_EQ(relevant[0].iri, R("Kaliningrad"));
  EXPECT_GT(relevant[0].score, relevant[1].score);
}

TEST_F(CoreTest, EntityLinkingUnknownPhraseIsEmpty) {
  JitLinker linker(&engine_.config(), &engine_.affinity());
  EXPECT_TRUE(linker.LinkEntity("Atlantis Zyx", endpoint_).empty());
  EXPECT_TRUE(linker.LinkEntity("", endpoint_).empty());
}

TEST_F(CoreTest, LinkAnnotatesNodesAndEdges) {
  qu::TriplePatterns tps = {
      {qu::Unknown(1, "sea"), "flows", qu::EntityPhrase("Danish Straits")},
      {qu::Unknown(1, "sea"), "city shore", qu::EntityPhrase("Kaliningrad")}};
  qu::Pgp pgp = qu::Pgp::Build(tps);
  JitLinker linker(&engine_.config(), &engine_.affinity());
  Agp agp = linker.Link(pgp, endpoint_);
  ASSERT_EQ(agp.node_vertices.size(), 3u);
  ASSERT_EQ(agp.edge_predicates.size(), 2u);
  // The unknown has no relevant vertices (Alg. 1 line 1).
  EXPECT_TRUE(agp.node_vertices[0].empty());
  // Edge "flows" must surface dbp:outflow as the top predicate.
  ASSERT_FALSE(agp.edge_predicates[0].empty());
  EXPECT_EQ(agp.edge_predicates[0][0].iri, P("outflow"));
  // Edge "city shore" must surface dbo:nearestCity at the top.
  ASSERT_FALSE(agp.edge_predicates[1].empty());
  EXPECT_EQ(agp.edge_predicates[1][0].iri, O("nearestCity"));
}

// Two people and a city, with human-readable predicate IRIs so relation
// linking never issues description lookups: endpoint traffic is exactly
// the text probe plus the per-(anchor, direction) predicate probes.
Graph TinyKg() {
  Graph g;
  g.AddIri("http://kg/Alice", "http://kg/label", StringLiteral("alice smith"));
  g.AddIri("http://kg/Bob", "http://kg/label", StringLiteral("bob jones"));
  g.AddIri("http://kg/Paris", "http://kg/label", StringLiteral("paris city"));
  g.AddIris("http://kg/Alice", "http://kg/birthPlace", "http://kg/Paris");
  g.AddIris("http://kg/Alice", "http://kg/friendOf", "http://kg/Bob");
  g.AddIris("http://kg/Bob", "http://kg/friendOf", "http://kg/Alice");
  return g;
}

TEST(JitLinkerTest, OneRequestPerProbeOnTinyKg) {
  sparql::Endpoint endpoint("tiny", TinyKg());
  KgqanConfig config;
  config.linking_cache = false;
  embed::SemanticAffinity affinity(config.affinity_mode);
  JitLinker linker(&config, &affinity);
  qu::Pgp pgp = qu::Pgp::Build({qu::PhraseTriple{
      qu::Unknown(1), "birth place", qu::EntityPhrase("alice smith")}});

  // One node probe ("alice smith" -> Alice) plus Alice's outgoing and
  // incoming predicate probes.
  const size_t before = endpoint.query_count();
  Agp agp = linker.Link(pgp, endpoint);
  EXPECT_EQ(endpoint.query_count() - before, 3u);
  ASSERT_EQ(agp.node_vertices.size(), 2u);
  bool found_alice = false;
  for (const auto& vertices : agp.node_vertices) {
    for (const RelevantVertex& rv : vertices) {
      if (rv.iri == "http://kg/Alice") found_alice = true;
    }
  }
  EXPECT_TRUE(found_alice);
}

TEST_F(CoreTest, BgpGenerationProducesRankedQueries) {
  qu::TriplePatterns tps = {
      {qu::Unknown(1, "sea"), "flows", qu::EntityPhrase("Danish Straits")}};
  JitLinker linker(&engine_.config(), &engine_.affinity());
  Agp agp = linker.Link(qu::Pgp::Build(tps), endpoint_);
  BgpGenerator gen(&engine_.config());
  std::vector<Bgp> bgps = gen.Generate(agp);
  ASSERT_FALSE(bgps.empty());
  EXPECT_LE(bgps.size(), engine_.config().max_queries);
  for (size_t i = 1; i < bgps.size(); ++i) {
    EXPECT_GE(bgps[i - 1].score, bgps[i].score);
  }
  // The top query should use dbp:outflow.
  EXPECT_EQ(bgps[0].triples[0].predicate, P("outflow"));
  std::string sparql = BgpGenerator::ToSelectSparql(bgps[0], "u1");
  EXPECT_NE(sparql.find("OPTIONAL"), std::string::npos);
  EXPECT_NE(sparql.find("?u1"), std::string::npos);
}

TEST(BgpUnitTest, ConflictingVertexAssignmentsAreSkipped) {
  // Hand-built AGP: two edges sharing the entity node "X", whose relevant
  // predicates are anchored at *different* candidate vertices for X.  The
  // cross-edge product must only keep combinations where X gets one
  // consistent vertex.
  qu::TriplePatterns tps = {
      {qu::Unknown(1, "u"), "p", qu::EntityPhrase("X")},
      {qu::Unknown(1, "u"), "q", qu::EntityPhrase("X")}};
  Agp agp;
  agp.pgp = qu::Pgp::Build(tps);
  ASSERT_EQ(agp.pgp.nodes().size(), 2u);  // ?u1 and X.
  agp.node_vertices.resize(2);
  agp.edge_predicates.resize(2);
  const size_t x_node = 1;
  agp.node_vertices[x_node] = {{"http://x/X1", 0.9}, {"http://x/X2", 0.8}};
  auto rp = [&](const char* pred, const char* anchor) {
    RelevantPredicate p;
    p.iri = pred;
    p.score = 0.5;
    p.anchor_iri = anchor;
    p.anchor_node = x_node;
    p.vertex_is_object = false;
    return p;
  };
  agp.edge_predicates[0] = {rp("http://x/p", "http://x/X1"),
                            rp("http://x/p", "http://x/X2")};
  agp.edge_predicates[1] = {rp("http://x/q", "http://x/X1"),
                            rp("http://x/q", "http://x/X2")};

  KgqanConfig cfg;
  BgpGenerator gen(&cfg);
  std::vector<Bgp> bgps = gen.Generate(agp);
  ASSERT_EQ(bgps.size(), 2u);  // X1-consistent and X2-consistent only.
  for (const Bgp& bgp : bgps) {
    ASSERT_EQ(bgp.triples.size(), 2u);
    EXPECT_EQ(bgp.triples[0].s.value, bgp.triples[1].s.value)
        << "inconsistent vertex assignment survived";
  }
  // Ranked best (X1, score 0.9 anchors) first.
  EXPECT_EQ(bgps[0].triples[0].s.value, "http://x/X1");
}

TEST(BgpUnitTest, UnlinkableEdgeYieldsNoQueries) {
  qu::TriplePatterns tps = {
      {qu::Unknown(1, "u"), "p", qu::EntityPhrase("X")},
      {qu::Unknown(1, "u"), "q", qu::EntityPhrase("Y")}};
  Agp agp;
  agp.pgp = qu::Pgp::Build(tps);
  agp.node_vertices.resize(agp.pgp.nodes().size());
  agp.edge_predicates.resize(2);
  RelevantPredicate p;
  p.iri = "http://x/p";
  p.anchor_iri = "http://x/X1";
  p.anchor_node = 1;
  agp.edge_predicates[0] = {p};
  // Edge 1 has no relevant predicates: the whole question is unanswerable.
  KgqanConfig cfg;
  BgpGenerator gen(&cfg);
  EXPECT_TRUE(gen.Generate(agp).empty());
}

TEST_F(CoreTest, DeriveUnknownVerticesMaterializesIntermediates) {
  // PGP of "Who is the mayor of the capital of France?": edge0 between two
  // unknowns, edge1 anchored at France.
  qu::TriplePatterns tps = {
      {qu::Unknown(1, "person"), "mayor", qu::Unknown(2, "intermediate")},
      {qu::Unknown(2, "intermediate"), "capital", qu::EntityPhrase("France")}};
  JitLinker linker(&engine_.config(), &engine_.affinity());
  Agp agp = linker.Link(qu::Pgp::Build(tps), endpoint_);
  // The intermediate unknown (?u2) received derived candidate vertices,
  // including Paris.
  size_t u2 = 1;  // Node order: ?u1, ?u2, France.
  ASSERT_EQ(agp.pgp.nodes().size(), 3u);
  ASSERT_TRUE(agp.pgp.nodes()[u2].is_unknown);
  bool has_paris = false;
  for (const RelevantVertex& rv : agp.node_vertices[u2]) {
    if (rv.iri == R("Paris")) has_paris = true;
  }
  EXPECT_TRUE(has_paris);
  // And the unknown-unknown edge got predicates (dbo:mayor among them).
  bool has_mayor = false;
  for (const RelevantPredicate& rp : agp.edge_predicates[0]) {
    if (rp.iri == O("mayor")) has_mayor = true;
  }
  EXPECT_TRUE(has_mayor);
}

TEST_F(CoreTest, RunningExampleQE) {
  auto result = engine_.AnswerFull(
      "Name the sea into which Danish Straits flows and has Kaliningrad as "
      "one of the city on the shore.",
      endpoint_);
  EXPECT_TRUE(result.response.understood);
  ASSERT_EQ(result.response.answers.size(), 1u);
  EXPECT_EQ(result.response.answers[0].value, R("Baltic_Sea"));
}

TEST_F(CoreTest, SingleFactQuestion) {
  auto result = engine_.AnswerFull("Who is the spouse of Barack Obama?",
                                   endpoint_);
  ASSERT_EQ(result.response.answers.size(), 1u);
  EXPECT_EQ(result.response.answers[0].value, R("Michelle_Obama"));
}

TEST_F(CoreTest, SynonymRelationLinksAcrossVocabulary) {
  // "wife" must link to dbo:spouse purely via semantic affinity.
  auto result = engine_.AnswerFull("Who is the wife of Barack Obama?",
                                   endpoint_);
  ASSERT_EQ(result.response.answers.size(), 1u);
  EXPECT_EQ(result.response.answers[0].value, R("Michelle_Obama"));
}

TEST_F(CoreTest, DateQuestionFiltersToDateLiterals) {
  auto result = engine_.AnswerFull("When was Barack Obama born?", endpoint_);
  EXPECT_EQ(result.answer_type.data_type, nlp::AnswerDataType::kDate);
  ASSERT_EQ(result.response.answers.size(), 1u);
  EXPECT_EQ(result.response.answers[0].value, "1961-08-04");
}

TEST_F(CoreTest, NumericalQuestion) {
  auto result =
      engine_.AnswerFull("What is the population of Paris?", endpoint_);
  ASSERT_EQ(result.response.answers.size(), 1u);
  EXPECT_EQ(result.response.answers[0].value, "2165423");
}

TEST_F(CoreTest, PathQuestion) {
  auto result = engine_.AnswerFull("Who is the mayor of the capital of "
                                   "France?",
                                   endpoint_);
  EXPECT_TRUE(result.pgp.IsPath());
  ASSERT_EQ(result.response.answers.size(), 1u);
  EXPECT_EQ(result.response.answers[0].value, R("Anne_Hidalgo"));
}

TEST_F(CoreTest, BooleanQuestionTrue) {
  auto result =
      engine_.AnswerFull("Is Berlin the capital of Germany?", endpoint_);
  EXPECT_TRUE(result.response.is_boolean);
  EXPECT_TRUE(result.response.boolean_answer);
}

TEST_F(CoreTest, BooleanQuestionFalse) {
  auto result =
      engine_.AnswerFull("Is Honolulu the capital of Germany?", endpoint_);
  EXPECT_TRUE(result.response.is_boolean);
  EXPECT_FALSE(result.response.boolean_answer);
}

TEST_F(CoreTest, UnknownEntityYieldsNoAnswers) {
  auto result =
      engine_.AnswerFull("Who is the spouse of Zorblax Qwerty?", endpoint_);
  EXPECT_TRUE(result.response.understood);
  EXPECT_TRUE(result.response.answers.empty());
}

TEST_F(CoreTest, GibberishIsAQuFailure) {
  auto result = engine_.AnswerFull("did it and so on", endpoint_);
  EXPECT_FALSE(result.response.understood);
}

TEST_F(CoreTest, TimingsArePopulated) {
  auto result = engine_.AnswerFull("Who is the spouse of Barack Obama?",
                                   endpoint_);
  EXPECT_GE(result.response.timings.qu_ms, 0.0);
  EXPECT_GT(result.response.timings.linking_ms, 0.0);
  EXPECT_GT(result.response.timings.execution_ms, 0.0);
}

TEST_F(CoreTest, PreprocessIsFree) {
  auto stats = engine_.Preprocess(endpoint_);
  EXPECT_EQ(stats.seconds, 0.0);
  EXPECT_EQ(stats.index_bytes, 0u);
}

TEST_F(CoreTest, MultiIntentionSplitAndAnswer) {
  // The paper's future-work extension (footnote 12): two intentions in
  // one question.
  using core::MultiIntentionAnswerer;
  EXPECT_TRUE(MultiIntentionAnswerer::IsMultiIntention(
      "When and where was Barack Obama born?"));
  EXPECT_FALSE(MultiIntentionAnswerer::IsMultiIntention(
      "When was Barack Obama born?"));
  EXPECT_FALSE(MultiIntentionAnswerer::IsMultiIntention(
      "When and when was Barack Obama born?"));

  auto parts = MultiIntentionAnswerer::Split(
      "When and where was Barack Obama born?");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].second, "When was Barack Obama born?");
  EXPECT_EQ(parts[1].second, "Where was Barack Obama born?");

  MultiIntentionAnswerer answerer(&engine_);
  auto answers = answerer.Answer("When and where was Barack Obama born?",
                                 endpoint_);
  ASSERT_EQ(answers.size(), 2u);
  ASSERT_EQ(answers[0].response.answers.size(), 1u);
  EXPECT_EQ(answers[0].response.answers[0].value, "1961-08-04");
  ASSERT_EQ(answers[1].response.answers.size(), 1u);
  EXPECT_EQ(answers[1].response.answers[0].value, R("Honolulu"));
}

TEST_F(CoreTest, ExplainRendersPipelineTrace) {
  auto result = engine_.AnswerFull(
      "Name the sea into which Danish Straits flows and has Kaliningrad as "
      "one of the city on the shore.",
      endpoint_);
  std::string text = Explain(result);
  EXPECT_NE(text.find("understood:  yes"), std::string::npos);
  EXPECT_NE(text.find("Danish Straits"), std::string::npos);
  EXPECT_NE(text.find("dbpedia.org/property/outflow"), std::string::npos);
  EXPECT_NE(text.find("Baltic_Sea"), std::string::npos);
  EXPECT_NE(text.find("answer type: string (sea)"), std::string::npos);

  auto failed = engine_.AnswerFull("did it and so on", endpoint_);
  EXPECT_NE(Explain(failed).find("understood:  no"), std::string::npos);
}

TEST(MultiIntentionTest, NonMultiIntentionYieldsEmpty) {
  core::KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  core::KgqanEngine engine(cfg);
  core::MultiIntentionAnswerer answerer(&engine);
  rdf::Graph g;
  g.AddIris("http://x/a", "http://x/p", "http://x/b");
  sparql::Endpoint ep("tiny", std::move(g));
  EXPECT_TRUE(answerer.Answer("Who founded Microsoft?", ep).empty());
}

TEST(FiltrationTest, DateAndNumberChecks) {
  EXPECT_TRUE(Filtration::LooksLikeDate(DateLiteral("1961-08-04")));
  EXPECT_TRUE(Filtration::LooksLikeDate(StringLiteral("1999")));
  EXPECT_FALSE(Filtration::LooksLikeDate(StringLiteral("next tuesday")));
  EXPECT_FALSE(Filtration::LooksLikeDate(rdf::Iri("http://x/1999")));
  EXPECT_TRUE(Filtration::LooksLikeNumber(IntLiteral(42)));
  EXPECT_TRUE(Filtration::LooksLikeNumber(StringLiteral("3.5")));
  EXPECT_FALSE(Filtration::LooksLikeNumber(StringLiteral("fortytwo")));
}

TEST(FiltrationTest, StringModeDropsNumbersAndMismatchedClasses) {
  embed::SemanticAffinity affinity;
  Filtration f(&affinity);
  nlp::AnswerTypePrediction pred;
  pred.data_type = nlp::AnswerDataType::kString;
  pred.semantic_type = "sea";

  std::vector<CandidateAnswer> candidates;
  candidates.push_back({rdf::Iri("http://x/Baltic_Sea"),
                        {"http://x/ontology/Sea"}});
  candidates.push_back({rdf::Iri("http://x/Kaliningrad"),
                        {"http://x/ontology/City"}});
  candidates.push_back({IntLiteral(7), {}});
  candidates.push_back({rdf::Iri("http://x/NoClassInfo"), {}});

  std::vector<rdf::Term> kept = f.Filter(candidates, pred);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].value, "http://x/Baltic_Sea");
  // No class info: kept (leniency rule).
  EXPECT_EQ(kept[1].value, "http://x/NoClassInfo");
}

TEST(FiltrationTest, SemanticFilterNeverEmptiesTheAnswerSet) {
  // All candidates mismatch the predicted type: the comparative rule keeps
  // everything rather than destroying recall (Sec. 7.3.3).
  embed::SemanticAffinity affinity;
  Filtration f(&affinity);
  nlp::AnswerTypePrediction pred;
  pred.data_type = nlp::AnswerDataType::kString;
  pred.semantic_type = "sea";
  std::vector<CandidateAnswer> candidates;
  candidates.push_back({rdf::Iri("http://x/P1"), {"http://x/onto/Person"}});
  candidates.push_back({rdf::Iri("http://x/P2"), {"http://x/onto/Person"}});
  std::vector<rdf::Term> kept = f.Filter(candidates, pred);
  EXPECT_EQ(kept.size(), 2u);
}

TEST(FiltrationTest, DateModeKeepsOnlyDates) {
  embed::SemanticAffinity affinity;
  Filtration f(&affinity);
  nlp::AnswerTypePrediction pred;
  pred.data_type = nlp::AnswerDataType::kDate;
  std::vector<CandidateAnswer> candidates;
  candidates.push_back({DateLiteral("1961-08-04"), {}});
  candidates.push_back({rdf::Iri("http://x/Honolulu"), {}});
  candidates.push_back({IntLiteral(42), {}});
  candidates.push_back({StringLiteral("1999"), {}});  // Year-like string.
  std::vector<rdf::Term> kept = f.Filter(candidates, pred);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].value, "1961-08-04");
  EXPECT_EQ(kept[1].value, "1999");
}

TEST(FiltrationTest, NumericalModeKeepsOnlyNumbers) {
  embed::SemanticAffinity affinity;
  Filtration f(&affinity);
  nlp::AnswerTypePrediction pred;
  pred.data_type = nlp::AnswerDataType::kNumerical;
  std::vector<CandidateAnswer> candidates;
  candidates.push_back({IntLiteral(42), {}});
  candidates.push_back({rdf::DoubleLiteral(3.5), {}});
  candidates.push_back({rdf::Iri("http://x/a"), {}});
  candidates.push_back({StringLiteral("not a number"), {}});
  EXPECT_EQ(f.Filter(candidates, pred).size(), 2u);
}

}  // namespace
}  // namespace kgqan::core
