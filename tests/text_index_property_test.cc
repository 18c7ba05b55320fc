// Property test for the endpoint's incrementally maintained full-text index.
//
// Random AddNTriples sequences are applied to an endpoint; after each one
// its text index must equal a fresh TextIndex(endpoint.store()): the same
// posting count, and the same MatchLiterals ranking for every word of every
// literal in the delta, and for the OR of each literal's words, plus a
// sample of words already indexed.  The deltas mix duplicate triples,
// all-duplicate batches, existing literals reused as objects, one new
// literal shared by several triples, typed and numeric literals (never
// indexed), language-tagged literals (indexed), literals interned before
// they first became objects (their postings take a sorted insert, not an
// append), and words whose postings already exist.
//
// The binary has its own main: `--seed=N` (or the KGQAN_PROPERTY_SEED
// environment variable) reseeds the generator, so CI can rotate seeds and
// a failure is reproducible locally with the printed flag.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "rdf/term.h"
#include "sparql/endpoint.h"
#include "text/text_index.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace kgqan::text {

// Set from --seed / KGQAN_PROPERTY_SEED in main() before RUN_ALL_TESTS.
uint64_t g_property_seed = 0x7E47D;

namespace {

const std::vector<std::string>& Vocab() {
  static const std::vector<std::string> vocab = {
      "baltic", "sea",   "kaliningrad", "danish", "straits", "yantar",
      "river",  "city",  "north",       "port",   "amber",   "coast",
      "lagoon", "delta", "island",      "2022"};
  return vocab;
}

// Generates terms over a small vocabulary so that words, literals and
// subjects collide often.
class TermGen {
 public:
  explicit TermGen(uint64_t seed) : rng_(seed) {}

  util::Rng& rng() { return rng_; }

  rdf::Term Subject() {
    return rdf::Iri("http://x/s" + std::to_string(rng_.UniformInt(0, 30)));
  }
  rdf::Term Predicate() {
    return rdf::Iri("http://x/p" + std::to_string(rng_.UniformInt(0, 4)));
  }
  // 1-3 vocabulary words, sometimes with a word no other literal has.
  std::string Words() {
    std::string out;
    for (int64_t n = rng_.UniformInt(1, 3); n > 0; --n) {
      if (!out.empty()) out += ' ';
      out += rng_.PickOne(Vocab());
    }
    if (rng_.Bernoulli(0.3)) out += " w" + std::to_string(next_word_++);
    return out;
  }
  // A literal of every kind the index must tell apart.
  rdf::Term Literal() {
    switch (rng_.UniformInt(0, 4)) {
      case 0:
        return rdf::IntLiteral(rng_.UniformInt(0, 50));
      case 1:
        return rdf::TypedLiteral(Words(), std::string(rdf::vocab::kXsdDate));
      case 2:
        return rdf::LangLiteral(Words(), rng_.Bernoulli(0.5) ? "en" : "de");
      default:
        return rdf::StringLiteral(Words());
    }
  }

 private:
  util::Rng rng_;
  int next_word_ = 0;
};

std::string Line(const rdf::Term& s, const rdf::Term& p, const rdf::Term& o) {
  return rdf::ToNTriples(s) + " " + rdf::ToNTriples(p) + " " +
         rdf::ToNTriples(o) + " .\n";
}

// The endpoint's index must answer exactly like a fresh build over the
// same store, for every bif:contains expression in `queries`.
void ExpectEqualsFreshIndex(const sparql::Endpoint& endpoint,
                            const std::set<std::string>& queries) {
  const TextIndex fresh(endpoint.store());
  const TextIndex& live = endpoint.text_index();
  EXPECT_EQ(live.posting_count(), fresh.posting_count());
  for (const std::string& expr : queries) {
    auto query = ParseContainsQuery(expr);
    ASSERT_TRUE(query.ok()) << expr;
    EXPECT_EQ(live.MatchLiterals(*query, SIZE_MAX),
              fresh.MatchLiterals(*query, SIZE_MAX))
        << "query " << expr;
  }
}

TEST(TextIndexPropertyTest, IncrementalIndexEqualsFreshBuild) {
  TermGen gen(g_property_seed);
  util::Rng& rng = gen.rng();

  // Base KG, plus literals interned without any triple: when a delta first
  // uses one as an object, its id is older than the postings it joins.
  rdf::Graph graph;
  for (int i = 0; i < 120; ++i) {
    graph.Add(gen.Subject(), gen.Predicate(),
              rng.Bernoulli(0.6) ? gen.Literal() : gen.Subject());
  }
  std::vector<rdf::Term> orphans;
  for (int i = 0; i < 8; ++i) {
    orphans.push_back(rdf::StringLiteral(gen.Words()));
    graph.dictionary().Intern(orphans.back());
  }
  sparql::Endpoint endpoint("text-index-property", std::move(graph));

  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("seed " + std::to_string(g_property_seed) + " round " +
                 std::to_string(round));
    const rdf::TermDictionary& dict = endpoint.store().dictionary();
    const std::vector<rdf::Triple> existing = endpoint.store().MatchAll(
        rdf::kNullTermId, rdf::kNullTermId, rdf::kNullTermId);
    auto existing_line = [&] {
      const rdf::Triple& t = rng.PickOne(existing);
      return Line(dict.Get(t.s), dict.Get(t.p), dict.Get(t.o));
    };

    std::string delta;
    std::vector<rdf::Term> objects;
    const bool all_duplicates = rng.Bernoulli(0.15);
    if (all_duplicates) {
      for (int64_t n = rng.UniformInt(1, 4); n > 0; --n) {
        delta += existing_line();
      }
    } else {
      for (int64_t n = rng.UniformInt(1, 6); n > 0; --n) {
        rdf::Term o;
        switch (rng.UniformInt(0, 5)) {
          case 0:  // An existing triple again.
            delta += existing_line();
            continue;
          case 1:  // An existing object, literal or not, under a new edge.
            o = dict.Get(rng.PickOne(existing).o);
            break;
          case 2:  // A literal interned before it was ever an object.
            o = rng.PickOne(orphans);
            break;
          case 3:  // An IRI object.
            o = gen.Subject();
            break;
          default:
            o = gen.Literal();
            break;
        }
        // Sometimes the same new triple twice within one batch.
        const std::string line = Line(gen.Subject(), gen.Predicate(), o);
        delta += line;
        if (rng.Bernoulli(0.1)) delta += line;
        objects.push_back(o);
      }
      // One new literal shared by several new triples.
      if (rng.Bernoulli(0.4)) {
        const rdf::Term shared = rdf::StringLiteral(gen.Words());
        for (int64_t n = rng.UniformInt(2, 4); n > 0; --n) {
          delta += Line(gen.Subject(), gen.Predicate(), shared);
        }
        objects.push_back(shared);
      }
    }

    const size_t generation = endpoint.generation();
    auto added = endpoint.AddNTriples(delta);
    ASSERT_TRUE(added.ok()) << added.status() << "\n" << delta;
    if (all_duplicates) {
      EXPECT_EQ(*added, 0u) << delta;
    }
    // Only a write that changes the store bumps the data version.
    EXPECT_EQ(endpoint.generation(), generation + (*added > 0 ? 1 : 0));

    // Every word of the delta's literals, plus a sample of vocabulary words
    // whose postings already existed.  A single-word ranking is by id
    // alone; the OR of a literal's words also ranks by how many words
    // each match shares, which needs every posting list sorted.
    std::set<std::string> queries;
    auto add_words = [&](const std::vector<std::string>& words) {
      std::string any;
      for (const std::string& w : words) {
        queries.insert("'" + w + "'");
        any += (any.empty() ? "'" : " OR '") + w + "'";
      }
      if (!any.empty()) queries.insert(any);
    };
    for (const rdf::Term& o : objects) {
      if (o.IsLiteral()) add_words(Tokenize(o.value));
    }
    add_words({rng.PickOne(Vocab()), rng.PickOne(Vocab()),
               rng.PickOne(Vocab())});
    ExpectEqualsFreshIndex(endpoint, queries);
  }
}

}  // namespace
}  // namespace kgqan::text

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  uint64_t seed = kgqan::text::g_property_seed;
  if (const char* env = std::getenv("KGQAN_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  kgqan::text::g_property_seed = seed;
  std::printf("[property] seed=%llu  (repro: text_index_property_test "
              "--seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  return RUN_ALL_TESTS();
}
