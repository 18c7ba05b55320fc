// Tests for the baseline QA systems: curated-rule QU, the two indexing
// philosophies, and their characteristic failure modes.

#include <gtest/gtest.h>

#include "baselines/edgqa_like.h"
#include "baselines/ganswer_like.h"
#include "baselines/label_index.h"
#include "baselines/rule_qu.h"
#include "rdf/graph.h"
#include "sparql/endpoint.h"

namespace kgqan::baselines {
namespace {

using rdf::Graph;
using rdf::StringLiteral;

constexpr const char* kLabel = "http://www.w3.org/2000/01/rdf-schema#label";
constexpr const char* kName = "http://xmlns.com/foaf/0.1/name";

Graph ReadableKg() {
  Graph g;
  g.AddIri("http://x/Barack_Obama", kLabel, StringLiteral("Barack Obama"));
  g.AddIris("http://x/Barack_Obama", "http://x/ontology/spouse",
            "http://x/Michelle_Obama");
  g.AddIri("http://x/Michelle_Obama", kLabel,
           StringLiteral("Michelle Obama"));
  g.AddIris("http://x/Germany", "http://x/ontology/capital",
            "http://x/Berlin");
  g.AddIri("http://x/Germany", kLabel, StringLiteral("Germany"));
  g.AddIri("http://x/Berlin", kLabel, StringLiteral("Berlin"));
  return g;
}

Graph OpaqueKg() {
  Graph g;
  g.AddIri("https://makg.org/entity/2279569217", kName,
           StringLiteral("Jim Gray"));
  g.AddIri("https://makg.org/entity/2111111111", kName,
           StringLiteral("System R paper"));
  g.AddIris("https://makg.org/entity/2111111111",
            "http://ma-graph.org/property/creator",
            "https://makg.org/entity/2279569217");
  return g;
}

// ---- RuleBasedQu ----

TEST(RuleQuTest, GAnswerRulesParseQaldStyle) {
  RuleQuOptions opts;
  opts.lexicon = &QaldCuratedLexicon();
  RuleBasedQu qu(opts);
  auto tps = qu.Extract("Who is the spouse of Barack Obama?");
  ASSERT_EQ(tps.size(), 1u);
  EXPECT_EQ(tps[0].relation, "spouse");
  EXPECT_EQ(tps[0].b.label, "Barack Obama");
}

TEST(RuleQuTest, RejectsImperativesWhenDisabled) {
  RuleQuOptions opts;  // Imperatives off by default.
  RuleBasedQu qu(opts);
  EXPECT_TRUE(qu.Extract("Name the spouse of Barack Obama.").empty());
}

TEST(RuleQuTest, RejectsOffTemplateWords) {
  RuleQuOptions opts;
  opts.lexicon = &QaldCuratedLexicon();
  RuleBasedQu qu(opts);
  // "currently" is not in the curated vocabulary.
  EXPECT_TRUE(
      qu.Extract("Who is currently the spouse of Barack Obama?").empty());
}

TEST(RuleQuTest, RejectsQuotesWhenDisabled) {
  RuleQuOptions opts;
  RuleBasedQu qu(opts);
  EXPECT_TRUE(qu.Extract("Who wrote the paper \"The Transaction "
                         "Concept\"?").empty());
}

TEST(RuleQuTest, LongQuotedTitlesBreakTheRules) {
  RuleQuOptions opts;
  opts.handle_quotes = true;
  opts.max_quote_tokens = 3;
  RuleBasedQu qu(opts);
  // Three content words: fine.
  EXPECT_FALSE(
      qu.Extract("Who wrote the paper \"On the Indexing of Caching\"?")
          .empty());
  // Five content words: understanding fails (Sec. 7.2.3).
  EXPECT_TRUE(qu.Extract("Who wrote the paper \"A Survey of Indexing and "
                         "Caching Techniques for Storage\"?")
                  .empty());
}

TEST(RuleQuTest, ConjunctionsRejectedWithoutAndSplit) {
  RuleQuOptions opts;
  RuleBasedQu qu(opts);
  EXPECT_TRUE(qu.Extract("Which person is the spouse of Ann Weber and was "
                         "born in Berlin?")
                  .empty());
}

TEST(RuleQuTest, EdgqaRulesHandleTemplates) {
  RuleQuOptions opts;
  opts.handle_imperatives = true;
  opts.handle_and_split = true;
  opts.handle_paths = true;
  RuleBasedQu qu(opts);
  auto multi = qu.Extract("Which person is the spouse of Ann Weber and was "
                          "born in Berlin?");
  EXPECT_EQ(multi.size(), 2u);
  auto path = qu.Extract("Who is the mayor of the capital of France?");
  EXPECT_EQ(path.size(), 2u);
  auto imp = qu.Extract("Name the capital of Germany.");
  ASSERT_EQ(imp.size(), 1u);
  EXPECT_EQ(imp[0].relation, "capital");
}

// ---- Index structures ----

TEST(UriTokenIndexTest, LooksUpReadableUris) {
  sparql::Endpoint ep("readable", ReadableKg());
  UriTokenIndex index;
  index.Build(ep);
  auto hits = index.Lookup("Barack Obama", 3);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0], "http://x/Barack_Obama");
  EXPECT_TRUE(index.Lookup("Jim Gray", 3).empty());
  EXPECT_GT(index.ApproxBytes(), 0u);
}

TEST(UriTokenIndexTest, UselessOnOpaqueUris) {
  sparql::Endpoint ep("opaque", OpaqueKg());
  UriTokenIndex index;
  index.Build(ep);
  // The entity exists, but its URI carries no text.
  EXPECT_TRUE(index.Lookup("Jim Gray", 3).empty());
}

TEST(LabelEnsembleIndexTest, RequiresTheRightLabelPredicate) {
  sparql::Endpoint ep("opaque", OpaqueKg());
  LabelEnsembleIndex default_index;
  default_index.Build(ep, {"http://www.w3.org/2000/01/rdf-schema#label"});
  EXPECT_TRUE(default_index.Lookup("Jim Gray", 3).empty());

  LabelEnsembleIndex configured;
  configured.Build(ep, {kName});
  auto hits = configured.Lookup("Jim Gray", 3);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0], "https://makg.org/entity/2279569217");
}

TEST(LabelEnsembleIndexTest, ExactBeatsTokenMatch) {
  Graph g;
  g.AddIri("http://x/A", kLabel, StringLiteral("Kaliningrad"));
  g.AddIri("http://x/B", kLabel, StringLiteral("Yantar Kaliningrad"));
  sparql::Endpoint ep("rank", std::move(g));
  LabelEnsembleIndex index;
  index.Build(ep, {kLabel});
  auto hits = index.Lookup("Kaliningrad", 5);
  ASSERT_GE(hits.size(), 2u);
  EXPECT_EQ(hits[0], "http://x/A");
}

// ---- End-to-end baseline behaviour ----

TEST(GAnswerLikeTest, AnswersSimpleQuestionAfterPreprocessing) {
  sparql::Endpoint ep("readable", ReadableKg());
  GAnswerLike sys;
  auto stats = sys.Preprocess(ep);
  EXPECT_GT(stats.index_bytes, 0u);
  auto resp = sys.Answer("Who is the spouse of Barack Obama?", ep);
  EXPECT_TRUE(resp.understood);
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(resp.answers[0].value, "http://x/Michelle_Obama");
}

TEST(GAnswerLikeTest, SynonymDictionaryCoversWife) {
  auto expanded = GAnswerLike::ExpandSynonyms("wife");
  EXPECT_NE(std::find(expanded.begin(), expanded.end(), "spouse"),
            expanded.end());
}

TEST(GAnswerLikeTest, FailsOnOpaqueKg) {
  sparql::Endpoint ep("opaque", OpaqueKg());
  GAnswerLike sys;
  sys.Preprocess(ep);
  auto resp = sys.Answer("Who is the spouse of Jim Gray?", ep);
  EXPECT_TRUE(resp.answers.empty());
}

TEST(EdgqaLikeTest, AnswersWithDefaultLabelIndex) {
  sparql::Endpoint ep("readable", ReadableKg());
  EdgqaLike sys;
  sys.Preprocess(ep);
  auto resp = sys.Answer("Who is the spouse of Barack Obama?", ep);
  EXPECT_TRUE(resp.understood);
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(resp.answers[0].value, "http://x/Michelle_Obama");
}

TEST(EdgqaLikeTest, NeedsConfigurationForOpaqueKgs) {
  sparql::Endpoint ep("opaque", OpaqueKg());
  EdgqaLike sys;
  sys.Preprocess(ep);  // Default rdfs:label: indexes nothing.
  auto resp =
      sys.Answer("Who wrote the paper \"System R paper\"?", ep);
  EXPECT_TRUE(resp.answers.empty());

  EdgqaLike configured;
  configured.ConfigureLabelPredicates("opaque", {kName});
  configured.Preprocess(ep);
  auto resp2 =
      configured.Answer("Who wrote the paper \"System R paper\"?", ep);
  ASSERT_EQ(resp2.answers.size(), 1u);
  EXPECT_EQ(resp2.answers[0].value, "https://makg.org/entity/2279569217");
}

TEST(EdgqaLikeTest, BooleanQuestions) {
  sparql::Endpoint ep("readable", ReadableKg());
  EdgqaLike sys;
  sys.Preprocess(ep);
  auto yes = sys.Answer("Is Berlin the capital of Germany?", ep);
  EXPECT_TRUE(yes.is_boolean);
  EXPECT_TRUE(yes.boolean_answer);
  auto no = sys.Answer("Is Michelle Obama the capital of Germany?", ep);
  EXPECT_TRUE(no.is_boolean);
  EXPECT_FALSE(no.boolean_answer);
}

}  // namespace
}  // namespace kgqan::baselines
