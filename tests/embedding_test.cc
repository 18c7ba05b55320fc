// Tests for the embedding substrate: vectors, word/char/sentence models,
// semantic affinity (Eq. 1).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "embedding/affinity.h"
#include "embedding/char_embedder.h"
#include "embedding/lexicon.h"
#include "embedding/sentence_embedder.h"
#include "embedding/subword_embedder.h"
#include "embedding/vec.h"

namespace kgqan::embed {
namespace {

TEST(VecTest, DotNormCosine) {
  Vec a{1.0f, 0.0f, 0.0f};
  Vec b{0.0f, 1.0f, 0.0f};
  Vec c{2.0f, 0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(Dot(a, b), 0.0);
  EXPECT_DOUBLE_EQ(Norm(c), 2.0);
  EXPECT_DOUBLE_EQ(Cosine(a, c), 1.0);
  EXPECT_DOUBLE_EQ(Cosine(a, b), 0.0);
}

TEST(VecTest, CosineOfZeroVectorIsZero) {
  Vec z{0.0f, 0.0f};
  Vec a{1.0f, 1.0f};
  EXPECT_DOUBLE_EQ(Cosine(z, a), 0.0);
}

TEST(VecTest, NormalizeMakesUnit) {
  Vec a{3.0f, 4.0f};
  Normalize(a);
  EXPECT_NEAR(Norm(a), 1.0, 1e-6);
}

TEST(LexiconTest, ClustersGroupSynonyms) {
  const Lexicon& lex = DefaultLexicon();
  auto wife = lex.ClusterOf("wife");
  auto spouse = lex.ClusterOf("spouse");
  ASSERT_TRUE(wife.has_value());
  ASSERT_TRUE(spouse.has_value());
  EXPECT_EQ(*wife, *spouse);
  auto author = lex.ClusterOf("author");
  auto creator = lex.ClusterOf("creator");
  ASSERT_TRUE(author.has_value());
  EXPECT_EQ(*author, *creator);
  EXPECT_NE(*wife, *author);
  EXPECT_FALSE(lex.ClusterOf("xylophone").has_value());
}

TEST(LexiconTest, KnownWordRules) {
  EXPECT_TRUE(Lexicon::IsKnownWord("spouse"));
  EXPECT_TRUE(Lexicon::IsKnownWord("xylophone"));  // Any alphabetic word.
  EXPECT_FALSE(Lexicon::IsKnownWord("p227"));
  EXPECT_FALSE(Lexicon::IsKnownWord("2279569217"));
  EXPECT_FALSE(Lexicon::IsKnownWord(""));
}

TEST(SubwordEmbedderTest, DeterministicAndUnit) {
  SubwordEmbedder em;
  const Vec& a = em.Embed("Kaliningrad");
  const Vec& b = em.Embed("kaliningrad");  // Case-insensitive cache hit.
  EXPECT_EQ(&a, &b);
  EXPECT_NEAR(Norm(a), 1.0, 1e-5);

  SubwordEmbedder em2;
  EXPECT_NEAR(Cosine(em.Embed("sea"), em2.Embed("sea")), 1.0, 1e-6);
}

TEST(SubwordEmbedderTest, SynonymsAreClose) {
  SubwordEmbedder em;
  EXPECT_GT(Cosine(em.Embed("wife"), em.Embed("spouse")), 0.6);
  EXPECT_GT(Cosine(em.Embed("author"), em.Embed("creator")), 0.6);
  EXPECT_GT(Cosine(em.Embed("flows"), em.Embed("outflow")), 0.6);
}

TEST(SubwordEmbedderTest, MorphologicalVariantsAreClose) {
  SubwordEmbedder em;
  // Shared character n-grams keep inflections close even without lexicon
  // support (fastText's subword property).
  EXPECT_GT(Cosine(em.Embed("attend"), em.Embed("attended")), 0.45);
  EXPECT_GT(Cosine(em.Embed("citation"), em.Embed("citations")), 0.45);
}

TEST(SubwordEmbedderTest, UnrelatedWordsAreFar) {
  SubwordEmbedder em;
  EXPECT_LT(Cosine(em.Embed("spouse"), em.Embed("elevation")), 0.35);
  EXPECT_LT(Cosine(em.Embed("sea"), em.Embed("university")), 0.35);
}

TEST(SubwordEmbedderTest, RelatedBeatsUnrelated) {
  SubwordEmbedder em;
  double related = Cosine(em.Embed("wife"), em.Embed("spouse"));
  double unrelated = Cosine(em.Embed("wife"), em.Embed("citation"));
  EXPECT_GT(related, unrelated + 0.3);
}

TEST(CharEmbedderTest, SpellingSimilarity) {
  CharEmbedder em;
  double same = Cosine(em.Embed("p227"), em.Embed("p227"));
  double close = Cosine(em.Embed("p227"), em.Embed("p228"));
  double far = Cosine(em.Embed("p227"), em.Embed("zq91x"));
  EXPECT_NEAR(same, 1.0, 1e-6);
  EXPECT_GT(close, far);
}

TEST(SentenceEmbedderTest, PooledPhraseVector) {
  SubwordEmbedder words;
  SentenceEmbedder em(&words);
  Vec a = em.Embed("city on the shore");
  Vec b = em.Embed("nearest city");
  Vec c = em.Embed("doctoral advisor");
  EXPECT_NEAR(Norm(a), 1.0, 1e-5);
  EXPECT_GT(Cosine(a, b), Cosine(a, c));
}

TEST(AffinityTest, IdenticalSingleWordScoresOne) {
  SemanticAffinity aff;
  EXPECT_NEAR(aff.Score("Kaliningrad", "Kaliningrad"), 1.0, 1e-6);
}

TEST(AffinityTest, SynonymRelationsScoreHigh) {
  SemanticAffinity aff;
  EXPECT_GT(aff.Score("wife", "spouse"), 0.6);
  EXPECT_GT(aff.Score("flows", "outflow"), 0.6);
}

TEST(AffinityTest, OrderingMatchesSemantics) {
  SemanticAffinity aff;
  // "city on shore" should prefer nearestCity over country or population.
  double nearest = aff.Score("city on shore", "nearest city");
  double country = aff.Score("city on shore", "country");
  double population = aff.Score("city on shore", "population");
  EXPECT_GT(nearest, country);
  EXPECT_GT(nearest, population);
}

TEST(AffinityTest, StopWordsDoNotDiluteScores) {
  SemanticAffinity aff;
  EXPECT_NEAR(aff.Score("city on the shore", "city shore"),
              aff.Score("city shore", "city shore"), 1e-6);
}

TEST(AffinityTest, CrossModelPairsScoreZero) {
  SemanticAffinity aff;
  // "spouse" uses the word model; "2279569217" is OOV and uses the char
  // model, so per Eq. 1 the pair contributes 0.
  EXPECT_DOUBLE_EQ(aff.Score("spouse", "2279569217"), 0.0);
}

TEST(AffinityTest, OovIdentifiersMatchBySpelling) {
  SemanticAffinity aff;
  EXPECT_GT(aff.Score("2279569217", "2279569217"), 0.99);
  EXPECT_GT(aff.Score("p227", "p227"), aff.Score("p227", "q9134"));
}

TEST(AffinityTest, EmptyPhrasesScoreZero) {
  SemanticAffinity aff;
  EXPECT_DOUBLE_EQ(aff.Score("", "spouse"), 0.0);
  EXPECT_DOUBLE_EQ(aff.Score("", ""), 0.0);
}

TEST(AffinityTest, ScoresAreSymmetricAndBounded) {
  SemanticAffinity aff;
  const std::vector<std::string> phrases = {
      "wife",        "spouse",       "city on shore", "nearest city",
      "flows",       "outflow",      "Jim Gray",      "p227",
      "2279569217",  "alma mater",   "university",    "Danish Straits"};
  for (const std::string& a : phrases) {
    for (const std::string& b : phrases) {
      double s1 = aff.Score(a, b);
      double s2 = aff.Score(b, a);
      EXPECT_NEAR(s1, s2, 1e-9) << a << " / " << b;
      EXPECT_GE(s1, 0.0);
      EXPECT_LE(s1, 1.0 + 1e-9);
    }
  }
}

// Parameterized sweep: every pair of words inside a lexicon cluster must
// be closer than a fixed margin over any cross-cluster pair baseline. The
// words are held as std::string so the printed parameter (and with it the
// discovered test name) is the words themselves, not their addresses.
class ClusterCohesionTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(ClusterCohesionTest, InClusterPairsAreClose) {
  static SubwordEmbedder* em = new SubwordEmbedder();
  auto [a, b] = GetParam();
  EXPECT_GT(Cosine(em->Embed(a), em->Embed(b)), 0.6)
      << a << " / " << b;
}

INSTANTIATE_TEST_SUITE_P(
    SynonymPairs, ClusterCohesionTest,
    ::testing::Values(std::make_pair("wife", "husband"),
                      std::make_pair("spouse", "married"),
                      std::make_pair("author", "writer"),
                      std::make_pair("wrote", "creator"),
                      std::make_pair("flows", "mouth"),
                      std::make_pair("outflow", "drains"),
                      std::make_pair("born", "birth"),
                      std::make_pair("died", "death"),
                      std::make_pair("capital", "capital"),
                      std::make_pair("population", "inhabitants"),
                      std::make_pair("affiliation", "member"),
                      std::make_pair("advisor", "supervisor"),
                      std::make_pair("venue", "journal"),
                      std::make_pair("citations", "cited"),
                      std::make_pair("studied", "attended"),
                      std::make_pair("founded", "established"),
                      std::make_pair("headquarters", "based"),
                      std::make_pair("elevation", "height"),
                      std::make_pair("leader", "president"),
                      std::make_pair("award", "won")));

TEST(AffinityTest, NormalizedScoreProperties) {
  SemanticAffinity aff;
  // Identical phrases normalize to exactly 1, regardless of length.
  EXPECT_NEAR(aff.NormalizedScore("city on the shore", "city on the shore"),
              1.0, 1e-9);
  EXPECT_NEAR(aff.NormalizedScore("a survey of transaction recovery",
                                  "a survey of transaction recovery"),
              1.0, 1e-9);
  // Bounded, symmetric, and order-preserving vs. the raw score.
  double n1 = aff.NormalizedScore("city on shore", "nearest city");
  double n2 = aff.NormalizedScore("city on shore", "population");
  EXPECT_GT(n1, n2);
  EXPECT_LE(n1, 1.0);
  EXPECT_NEAR(aff.NormalizedScore("wife", "spouse"),
              aff.NormalizedScore("spouse", "wife"), 1e-9);
  // The Figure 4 shape: exact entity match 1.0, partial overlap high but
  // clearly below.
  double exact = aff.NormalizedScore("Kaliningrad", "Kaliningrad");
  double partial = aff.NormalizedScore("Kaliningrad", "Yantar, Kaliningrad");
  EXPECT_NEAR(exact, 1.0, 1e-9);
  EXPECT_GT(partial, 0.4);
  EXPECT_LT(partial, 0.95);
}

TEST(AffinityTest, CoarseGrainedModeWorks) {
  SemanticAffinity cg(AffinityMode::kCoarseGrained);
  EXPECT_NEAR(cg.Score("nearest city", "nearest city"), 1.0, 1e-6);
  EXPECT_GT(cg.Score("wife", "spouse"), cg.Score("wife", "elevation"));
}

TEST(AffinityTest, BothModesDetectWordInLongPhrase) {
  SemanticAffinity fg(AffinityMode::kFineGrained);
  SemanticAffinity cg(AffinityMode::kCoarseGrained);
  const char* with = "principles of transaction oriented database recovery";
  const char* without = "a survey of distributed consensus protocols";
  EXPECT_GT(fg.Score("transaction", with), fg.Score("transaction", without));
  EXPECT_GT(cg.Score("transaction", with), cg.Score("transaction", without));
}

}  // namespace
}  // namespace kgqan::embed
