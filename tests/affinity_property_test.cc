// Property battery for the linking hot path's two kernels.
//
//  * Prepared-phrase Eq. 1 scoring must equal, as an exact double, the
//    three-Score formula it replaced (kept below as the oracle), in both
//    affinity modes, over phrases drawn from benchgen names, lexicon words,
//    digit-bearing out-of-vocabulary tokens, stop-word-only phrases and
//    empty strings.
//  * TextIndex::MatchLiterals must equal a brute-force scan of the store's
//    literals for random indexes and random bif:contains queries.
//  * JitLinker::ScoreEntityRows, which memoizes per distinct description,
//    must equal the unmemoized ranking on rows with repeated descriptions.
//  * Scores through SemanticAffinity's prepared-phrase memo must equal the
//    Prepare() path and the oracle, in both modes, below and past the
//    memo's capacity, and when several threads fill the memo at once.
//
// The binary has its own main: `--seed=N` (or the KGQAN_PROPERTY_SEED
// environment variable) reseeds the generator, so CI can rotate seeds and
// a failure is reproducible locally with the printed flag.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "benchgen/names.h"
#include "core/config.h"
#include "core/linker.h"
#include "embedding/affinity.h"
#include "embedding/char_embedder.h"
#include "embedding/lexicon.h"
#include "embedding/sentence_embedder.h"
#include "embedding/subword_embedder.h"
#include "embedding/vec.h"
#include "rdf/graph.h"
#include "store/triple_store.h"
#include "text/text_index.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace kgqan::embed {

// Set from --seed / KGQAN_PROPERTY_SEED in main() before RUN_ALL_TESTS.
uint64_t g_property_seed = 0xAFF1u;

namespace {

// The Eq. 1 kernel as it was before phrases could be prepared: every
// NormalizedScore makes three Score calls, each re-tokenizing and
// re-embedding both phrases and recomputing both norms per cosine.
class ReferenceAffinity {
 public:
  explicit ReferenceAffinity(AffinityMode mode)
      : mode_(mode), sentences_(&words_) {}

  double Score(std::string_view a, std::string_view b) const {
    if (mode_ == AffinityMode::kCoarseGrained) {
      double cos = Cosine(sentences_.Embed(a), sentences_.Embed(b));
      return std::max(0.0, cos);
    }
    struct TokenEmbedding {
      const Vec* vec;
      bool from_word_model;
    };
    auto embed_phrase = [&](std::string_view phrase) {
      std::vector<TokenEmbedding> out;
      for (const std::string& tok : text::ContentTokens(phrase)) {
        if (Lexicon::IsKnownWord(tok)) {
          out.push_back({&words_.Embed(tok), true});
        } else {
          out.push_back({&chars_.Embed(tok), false});
        }
      }
      return out;
    };
    std::vector<TokenEmbedding> xs = embed_phrase(a);
    std::vector<TokenEmbedding> ys = embed_phrase(b);
    if (xs.empty() || ys.empty()) return 0.0;
    double sum = 0.0;
    for (const TokenEmbedding& x : xs) {
      for (const TokenEmbedding& y : ys) {
        if (x.from_word_model != y.from_word_model) continue;
        sum += std::max(0.0, Cosine(*x.vec, *y.vec));
      }
    }
    return sum /
           (static_cast<double>(xs.size()) * static_cast<double>(ys.size()));
  }

  double NormalizedScore(std::string_view a, std::string_view b) const {
    double raw = Score(a, b);
    if (raw <= 0.0) return 0.0;
    double self_a = Score(a, a);
    double self_b = Score(b, b);
    if (self_a <= 0.0 || self_b <= 0.0) return 0.0;
    double norm = raw / std::sqrt(self_a * self_b);
    return std::min(1.0, norm);
  }

 private:
  AffinityMode mode_;
  SubwordEmbedder words_;
  CharEmbedder chars_;
  SentenceEmbedder sentences_;
};

// Random phrases over the vocabularies the linker meets: KG names and
// titles, general English (lexicon cluster names), identifiers with
// digits, function words, punctuation and nothing at all.
class PhraseGen {
 public:
  explicit PhraseGen(uint64_t seed) : rng_(seed), names_(&rng_) {
    const Lexicon& lexicon = DefaultLexicon();
    for (size_t i = 0; i < lexicon.num_clusters(); ++i) {
      lexicon_words_.push_back(lexicon.ClusterName(static_cast<int>(i)));
    }
  }

  std::string Piece() {
    switch (rng_.UniformInt(0, 9)) {
      case 0:
        return names_.PersonName();
      case 1:
        return names_.CityName();
      case 2:
        return rng_.Bernoulli(0.5) ? names_.SeaName() : names_.RiverName();
      case 3:
        return rng_.Bernoulli(0.5) ? names_.FilmTitle() : names_.PaperTitle();
      case 4:
      case 5:
        return rng_.PickOne(lexicon_words_);
      case 6: {  // Digit-bearing out-of-vocabulary token.
        std::string tok(1, static_cast<char>('a' + rng_.UniformInt(0, 25)));
        tok += std::to_string(rng_.UniformInt(0, 99999));
        return rng_.Bernoulli(0.3) ? tok.substr(1) : tok;
      }
      case 7:
        return rng_.PickOne(kStopWords);
      case 8:
        return rng_.PickOne(kPunctuation);
      default:
        return names_.FieldOfStudy();
    }
  }

  std::string Phrase() {
    switch (rng_.UniformInt(0, 9)) {
      case 0:
        return "";
      case 1: {  // Stop words only.
        std::string out = rng_.PickOne(kStopWords);
        for (int64_t n = rng_.UniformInt(0, 2); n > 0; --n) {
          out += " " + rng_.PickOne(kStopWords);
        }
        return out;
      }
      default: {
        std::string out = Piece();
        for (int64_t n = rng_.UniformInt(0, 3); n > 0; --n) {
          out += rng_.Bernoulli(0.2) ? ", " : " ";
          out += Piece();
        }
        return out;
      }
    }
  }

  util::Rng& rng() { return rng_; }

 private:
  inline static const std::vector<std::string> kStopWords = {
      "the", "of", "in", "on", "a", "and", "is", "was", "to", "by"};
  inline static const std::vector<std::string> kPunctuation = {
      ",", "-", "'s", "...", "(", "?"};

  util::Rng rng_;
  benchgen::NamePool names_;
  std::vector<std::string> lexicon_words_;
};

std::string Repro(int round) {
  return "seed " + std::to_string(g_property_seed) + " round " +
         std::to_string(round);
}

TEST(AffinityPropertyTest, PreparedScoresEqualThreeScoreFormula) {
  for (AffinityMode mode :
       {AffinityMode::kFineGrained, AffinityMode::kCoarseGrained}) {
    SemanticAffinity affinity(mode);
    ReferenceAffinity oracle(mode);
    PhraseGen gen(g_property_seed ^ static_cast<uint64_t>(mode));
    for (int round = 0; round < 600; ++round) {
      const std::string a = gen.Phrase();
      // Sometimes score a phrase against itself or a near copy.
      const std::string b = gen.rng().Bernoulli(0.1)   ? a
                            : gen.rng().Bernoulli(0.1) ? a + " " + gen.Piece()
                                                       : gen.Phrase();
      SCOPED_TRACE(Repro(round) + " mode " +
                   std::to_string(static_cast<int>(mode)) + " a='" + a +
                   "' b='" + b + "'");
      const SemanticAffinity::Phrase pa = affinity.Prepare(a);
      const SemanticAffinity::Phrase pb = affinity.Prepare(b);
      EXPECT_EQ(affinity.NormalizedScore(pa, pb), oracle.NormalizedScore(a, b));
      EXPECT_EQ(affinity.NormalizedScore(a, b), oracle.NormalizedScore(a, b));
      EXPECT_EQ(affinity.Score(pa, pb), oracle.Score(a, b));
      EXPECT_EQ(affinity.Score(pa, pa), oracle.Score(a, a));
    }
  }
}

// Builds a store whose objects are literals over a small vocabulary (so
// postings overlap heavily), plus IRIs and typed literals that the text
// index must skip.
store::TripleStore RandomStore(util::Rng& rng,
                               const std::vector<std::string>& vocab) {
  rdf::Graph g;
  const int64_t triples = rng.UniformInt(0, 160);
  for (int64_t t = 0; t < triples; ++t) {
    const std::string s = "http://x/e" + std::to_string(rng.UniformInt(0, 40));
    const std::string p = "http://x/p" + std::to_string(rng.UniformInt(0, 4));
    std::string text;
    for (int64_t n = rng.UniformInt(1, 5); n > 0; --n) {
      if (!text.empty()) text += rng.Bernoulli(0.2) ? ", " : " ";
      text += rng.PickOne(vocab);
    }
    switch (rng.UniformInt(0, 5)) {
      case 0:
        g.AddIris(s, p, "http://x/" + rng.PickOne(vocab));
        break;
      case 1:
        g.AddIri(s, p, rdf::LangLiteral(text, "en"));
        break;
      case 2:
        g.AddIri(s, p, rdf::TypedLiteral(text, "http://x/type"));
        break;
      default:
        g.AddIri(s, p, rdf::StringLiteral(text));
        break;
    }
  }
  return store::TripleStore(std::move(g));
}

// MatchLiterals by definition: every indexable object literal, its
// distinct query-word hits, the OR-of-AND filter, a full sort.
std::vector<rdf::TermId> BruteForceMatch(const store::TripleStore& store,
                                         const text::ContainsQuery& query,
                                         size_t limit) {
  std::set<rdf::TermId> objects;
  store.Match(rdf::kNullTermId, rdf::kNullTermId, rdf::kNullTermId,
              [&](const rdf::Triple& t) {
                objects.insert(t.o);
                return true;
              });
  std::set<std::string> words;
  for (const auto& group : query.or_groups) {
    words.insert(group.begin(), group.end());
  }
  std::vector<std::pair<uint32_t, rdf::TermId>> ranked;
  for (rdf::TermId id : objects) {
    const rdf::Term& term = store.dictionary().Get(id);
    if (!term.IsLiteral() || (!term.IsStringLiteral() && term.lang.empty())) {
      continue;
    }
    std::vector<std::string> toks = text::Tokenize(term.value);
    std::set<std::string> has(toks.begin(), toks.end());
    uint32_t hits = 0;
    for (const std::string& w : words) hits += has.count(w) ? 1 : 0;
    bool ok = false;
    for (const auto& group : query.or_groups) {
      bool all = true;
      for (const std::string& w : group) all = all && has.count(w) > 0;
      ok = ok || all;
    }
    if (ok) ranked.emplace_back(hits, id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<rdf::TermId> out;
  for (size_t i = 0; i < ranked.size() && i < limit; ++i) {
    out.push_back(ranked[i].second);
  }
  return out;
}

TEST(AffinityPropertyTest, MatchLiteralsEqualsBruteForceScan) {
  util::Rng rng(g_property_seed ^ 0x7E47ull);
  const std::vector<std::string> vocab = {
      "baltic", "sea",  "kaliningrad", "danish", "straits", "yantar",
      "river",  "city", "p227",        "2022",   "north",   "port"};
  const std::vector<size_t> limits = {0, 1, 2, 5, 10, 400};
  for (int round = 0; round < 40; ++round) {
    store::TripleStore store = RandomStore(rng, vocab);
    text::TextIndex index(store);
    for (int q = 0; q < 25; ++q) {
      // 1-3 OR groups of 1-3 words, sometimes a quoted phrase (an AND
      // group of its own words) or a word no literal contains.
      std::string expr;
      for (int64_t g = rng.UniformInt(1, 3); g > 0; --g) {
        if (!expr.empty()) expr += " OR ";
        std::string group;
        for (int64_t w = rng.UniformInt(1, 3); w > 0; --w) {
          if (!group.empty()) group += " AND ";
          std::string word =
              rng.Bernoulli(0.1) ? "atlantis" : rng.PickOne(vocab);
          if (rng.Bernoulli(0.15)) word += " " + rng.PickOne(vocab);
          group += "'" + word + "'";
        }
        expr += group;
      }
      auto query = text::ParseContainsQuery(expr);
      ASSERT_TRUE(query.ok()) << expr;
      const size_t limit = rng.PickOne(limits);
      SCOPED_TRACE(Repro(round) + " expr " + expr + " limit " +
                   std::to_string(limit));
      EXPECT_EQ(index.MatchLiterals(*query, limit),
                BruteForceMatch(store, *query, limit));
    }
  }
}

TEST(AffinityPropertyTest, ScoreEntityRowsEqualsUnmemoizedRanking) {
  SemanticAffinity affinity;
  ReferenceAffinity oracle(AffinityMode::kFineGrained);
  core::KgqanConfig config;
  core::JitLinker linker(&config, &affinity);
  PhraseGen gen(g_property_seed ^ 0x5C0Eull);
  for (int round = 0; round < 60; ++round) {
    const std::string label = gen.Phrase();
    // A few descriptions shared by many rows and vertices, as when one
    // literal is reached under several predicates.
    std::vector<std::string> descriptions;
    for (int64_t n = gen.rng().UniformInt(1, 6); n > 0; --n) {
      descriptions.push_back(gen.rng().Bernoulli(0.2) ? label : gen.Phrase());
    }
    std::vector<std::pair<std::string, std::string>> rows;
    for (int64_t n = gen.rng().UniformInt(0, 40); n > 0; --n) {
      rows.emplace_back("http://x/v" + std::to_string(gen.rng().UniformInt(
                                           0, 15)),
                        gen.rng().PickOne(descriptions));
    }
    config.top_k_vertices = static_cast<size_t>(gen.rng().UniformInt(1, 12));

    std::unordered_map<std::string, double> best;
    for (const auto& [v_iri, d_value] : rows) {
      double score = oracle.NormalizedScore(label, d_value);
      auto [it, inserted] = best.emplace(v_iri, score);
      if (!inserted && score > it->second) it->second = score;
    }
    std::vector<core::RelevantVertex> expected;
    for (const auto& [iri, score] : best) {
      expected.push_back(core::RelevantVertex{iri, score});
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.score > b.score;
                     });
    if (expected.size() > config.top_k_vertices) {
      expected.resize(config.top_k_vertices);
    }

    SCOPED_TRACE(Repro(round) + " label '" + label + "'");
    const std::vector<std::pair<std::string_view, std::string_view>> row_views(
        rows.begin(), rows.end());
    std::vector<core::RelevantVertex> got =
        linker.ScoreEntityRows(label, row_views);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].iri, expected[i].iri) << "rank " << i;
      EXPECT_EQ(got[i].score, expected[i].score) << "rank " << i;
    }
  }
}

TEST(AffinityPropertyTest, MemoizedScoresEqualPreparePathAndOracle) {
  for (AffinityMode mode :
       {AffinityMode::kFineGrained, AffinityMode::kCoarseGrained}) {
    SemanticAffinity affinity(mode);
    ReferenceAffinity oracle(mode);
    PhraseGen gen(g_property_seed ^ 0x3E30ull ^ static_cast<uint64_t>(mode));
    // A small pool, so most lookups hit phrases memoized earlier.
    std::vector<std::string> pool;
    for (int i = 0; i < 40; ++i) pool.push_back(gen.Phrase());
    for (int round = 0; round < 400; ++round) {
      const std::string a = gen.rng().Bernoulli(0.8) ? gen.rng().PickOne(pool)
                                                     : gen.Phrase();
      const std::string b = gen.rng().Bernoulli(0.1) ? a
                                                     : gen.rng().PickOne(pool);
      SCOPED_TRACE(Repro(round) + " mode " +
                   std::to_string(static_cast<int>(mode)) + " a='" + a +
                   "' b='" + b + "'");
      SemanticAffinity::Phrase scratch_a;
      SemanticAffinity::Phrase scratch_b;
      const SemanticAffinity::Phrase& ma = affinity.Prepared(a, &scratch_a);
      const SemanticAffinity::Phrase& mb = affinity.Prepared(b, &scratch_b);
      // Below capacity every phrase lives in the memo, once.
      EXPECT_NE(&ma, &scratch_a);
      EXPECT_NE(&mb, &scratch_b);
      EXPECT_EQ(&affinity.Prepared(a, &scratch_b), &ma);
      const SemanticAffinity::Phrase pa = affinity.Prepare(a);
      const SemanticAffinity::Phrase pb = affinity.Prepare(b);
      EXPECT_EQ(affinity.NormalizedScore(ma, mb),
                affinity.NormalizedScore(pa, pb));
      EXPECT_EQ(affinity.NormalizedScore(ma, mb),
                oracle.NormalizedScore(a, b));
      EXPECT_EQ(affinity.Score(ma, mb), oracle.Score(a, b));
      EXPECT_EQ(affinity.Score(ma, ma), oracle.Score(a, a));
    }
    EXPECT_LE(affinity.memo_size(), pool.size() + 400);
  }
}

TEST(AffinityPropertyTest, MemoStopsAtCapacityAndScoresStayIdentical) {
  SemanticAffinity affinity;
  ReferenceAffinity oracle(AffinityMode::kFineGrained);
  util::Rng rng(g_property_seed ^ 0xCA9Aull);
  // Two-word phrases over a 300-token vocabulary: 90,000 distinct texts
  // from only 300 word embeddings.
  std::vector<std::string> vocab;
  const Lexicon& lexicon = DefaultLexicon();
  for (size_t i = 0; i < lexicon.num_clusters(); ++i) {
    vocab.push_back(lexicon.ClusterName(static_cast<int>(i)));
  }
  for (int i = 0; vocab.size() < 300; ++i) {
    vocab.push_back(std::to_string(i) + "w");
  }
  auto phrase = [&](size_t i) {
    return vocab[i % vocab.size()] + " " + vocab[i / vocab.size()];
  };
  constexpr size_t kCapacity = SemanticAffinity::kPhraseMemoCapacity;
  ASSERT_GT(vocab.size() * vocab.size(), kCapacity + 1000);

  SemanticAffinity::Phrase scratch;
  const SemanticAffinity::Phrase& first =
      affinity.Prepared(phrase(0), &scratch);
  for (size_t i = 1; i < kCapacity + 1000; ++i) {
    affinity.Prepared(phrase(i), &scratch);
  }
  EXPECT_EQ(affinity.memo_size(), kCapacity);
  // Memoized entries never move or go.
  EXPECT_EQ(&affinity.Prepared(phrase(0), &scratch), &first);

  for (int round = 0; round < 200; ++round) {
    // Half memoized, half past the capacity (prepared into the scratch).
    const size_t i = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kCapacity) - 1));
    const size_t j = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(kCapacity) + 1000,
        static_cast<int64_t>(vocab.size() * vocab.size()) - 1));
    const std::string a = phrase(i);
    const std::string b = phrase(j);
    SCOPED_TRACE(Repro(round) + " a='" + a + "' b='" + b + "'");
    SemanticAffinity::Phrase scratch_a;
    SemanticAffinity::Phrase scratch_b;
    const SemanticAffinity::Phrase& ma = affinity.Prepared(a, &scratch_a);
    const SemanticAffinity::Phrase& mb = affinity.Prepared(b, &scratch_b);
    EXPECT_NE(&ma, &scratch_a);
    EXPECT_EQ(&mb, &scratch_b);
    EXPECT_EQ(affinity.NormalizedScore(ma, mb),
              affinity.NormalizedScore(affinity.Prepare(a),
                                       affinity.Prepare(b)));
    EXPECT_EQ(affinity.NormalizedScore(ma, mb), oracle.NormalizedScore(a, b));
    EXPECT_EQ(affinity.Score(mb, mb), oracle.Score(b, b));
  }
  EXPECT_EQ(affinity.memo_size(), kCapacity);
}

// Labelled `concurrency` (the binary's labels) so the TSan job runs it.
TEST(AffinityPropertyTest, ConcurrentMemoScoresEqualSerialRun) {
  constexpr int kThreads = 4;
  constexpr int kPairsPerThread = 300;
  PhraseGen gen(g_property_seed ^ 0xC0C0ull);
  std::vector<std::string> pool;
  for (int i = 0; i < 60; ++i) pool.push_back(gen.Phrase());
  // Every thread scores its own draw of pairs from the shared pool, so the
  // threads race to memoize the same phrases.
  std::vector<std::vector<std::pair<size_t, size_t>>> pairs(kThreads);
  for (auto& mine : pairs) {
    for (int n = 0; n < kPairsPerThread; ++n) {
      mine.emplace_back(
          static_cast<size_t>(gen.rng().UniformInt(0, 59)),
          static_cast<size_t>(gen.rng().UniformInt(0, 59)));
    }
  }

  SemanticAffinity shared;
  std::vector<std::vector<double>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      SemanticAffinity::Phrase scratch_a;
      SemanticAffinity::Phrase scratch_b;
      for (const auto& [a, b] : pairs[t]) {
        got[t].push_back(
            shared.NormalizedScore(shared.Prepared(pool[a], &scratch_a),
                                   shared.Prepared(pool[b], &scratch_b)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  SemanticAffinity serial;
  std::unordered_set<std::string> distinct;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), pairs[t].size());
    for (size_t n = 0; n < pairs[t].size(); ++n) {
      const auto& [a, b] = pairs[t][n];
      distinct.insert(pool[a]);
      distinct.insert(pool[b]);
      EXPECT_EQ(got[t][n],
                serial.NormalizedScore(serial.Prepare(pool[a]),
                                       serial.Prepare(pool[b])))
          << "seed " << g_property_seed << " thread " << t << " pair " << n;
    }
  }
  // Racing threads insert each phrase once.
  EXPECT_EQ(shared.memo_size(), distinct.size());
}

}  // namespace
}  // namespace kgqan::embed

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  uint64_t seed = kgqan::embed::g_property_seed;
  if (const char* env = std::getenv("KGQAN_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  kgqan::embed::g_property_seed = seed;
  std::printf("[property] seed=%llu  (repro: affinity_property_test "
              "--seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  return RUN_ALL_TESTS();
}
