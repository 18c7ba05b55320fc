// Robustness sweep: every public entry point that accepts untrusted text
// (SPARQL parser, N-Triples/Turtle parsers, bif:contains expressions, the
// QA engine itself) must handle arbitrary garbage without crashing —
// returning a Status error or an empty answer, never dying.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "sparql/endpoint.h"
#include "sparql/parser.h"
#include "text/text_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kgqan {
namespace {

// Deterministic garbage: random bytes biased toward the tokens the
// grammars care about, so the fuzz strings reach deep into the parsers.
std::vector<std::string> GarbageStrings(uint64_t seed, size_t count) {
  util::Rng rng(seed);
  const std::string vocab =
      "<>{}()?.;,\"'@^_:#|&!= \n\tSELECTWHEREaskprefixfilterunion"
      "abcdefghij0123456789-+*";
  std::vector<std::string> out;
  for (size_t i = 0; i < count; ++i) {
    size_t len = static_cast<size_t>(rng.UniformInt(0, 80));
    std::string s;
    for (size_t j = 0; j < len; ++j) {
      s += vocab[rng.Next() % vocab.size()];
    }
    out.push_back(std::move(s));
  }
  // Plus hand-picked nasties.
  out.push_back(std::string(1, '\0'));
  out.push_back("SELECT");
  out.push_back("SELECT ?x WHERE {");
  out.push_back("SELECT ?x WHERE { ?x ?p ?o . } LIMIT 99999999999999999");
  out.push_back("ASK { \"lit\" ?p ?o . }");
  out.push_back("@prefix : <");
  out.push_back("<a> <b> \"\\");
  out.push_back("?");
  out.push_back(std::string(5000, '{'));
  out.push_back(std::string(5000, 'a'));
  return out;
}

TEST(RobustnessTest, SparqlParserNeverCrashes) {
  for (const std::string& s : GarbageStrings(1, 300)) {
    auto result = sparql::ParseQuery(s);  // Must not crash.
    (void)result;
  }
}

TEST(RobustnessTest, NTriplesParserNeverCrashes) {
  for (const std::string& s : GarbageStrings(2, 300)) {
    auto result = rdf::ParseNTriples(s);
    (void)result;
  }
}

TEST(RobustnessTest, TurtleParserNeverCrashes) {
  for (const std::string& s : GarbageStrings(3, 300)) {
    auto result = rdf::ParseTurtle(s);
    (void)result;
  }
}

TEST(RobustnessTest, ContainsQueryParserNeverCrashes) {
  for (const std::string& s : GarbageStrings(4, 300)) {
    auto result = text::ParseContainsQuery(s);
    (void)result;
  }
}

TEST(RobustnessTest, EndpointRejectsGarbageGracefully) {
  rdf::Graph g;
  g.AddIris("http://x/a", "http://x/p", "http://x/b");
  sparql::Endpoint ep("robust", std::move(g));
  for (const std::string& s : GarbageStrings(5, 200)) {
    auto result = ep.Query(s);
    if (result.ok()) {
      // A garbage string that happens to parse must still evaluate sanely.
      EXPECT_LE(result->NumRows(), 100000u);
    }
  }
}

TEST(RobustnessTest, EngineAnswersGarbageWithoutCrashing) {
  rdf::Graph g;
  g.AddIri("http://x/a", "http://www.w3.org/2000/01/rdf-schema#label",
           rdf::StringLiteral("Alpha Beta"));
  g.AddIris("http://x/a", "http://x/p", "http://x/b");
  sparql::Endpoint ep("robust", std::move(g));
  core::KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  core::KgqanEngine engine(cfg);
  for (const std::string& s : GarbageStrings(6, 120)) {
    core::QaResponse resp = engine.Answer(s, ep);
    // Whatever happened, the response is internally consistent.
    if (!resp.understood) {
      EXPECT_TRUE(resp.answers.empty());
    }
  }
  // Unicode-ish and pathological questions.
  for (const char* q :
       {"Who is the spouse of \xc3\x9cml\xc3\xa4ut?", "who who who who",
        "Name the", "Is is is?", "\"\"\"", "Who wrote \"\"?"}) {
    (void)engine.Answer(q, ep);
  }
}

// ---- Concurrency robustness ----

// A medium-sized endpoint for the stress tests below.
rdf::Graph StressGraph() {
  rdf::Graph g;
  for (int i = 0; i < 200; ++i) {
    std::string s = "http://x/person" + std::to_string(i);
    g.AddIri(s, "http://www.w3.org/2000/01/rdf-schema#label",
             rdf::StringLiteral("Person Number " + std::to_string(i)));
    g.AddIris(s, "http://x/knows",
              "http://x/person" + std::to_string((i + 1) % 200));
    g.AddIris(s, "http://x/type", "http://x/Human");
  }
  return g;
}

TEST(RobustnessTest, ConcurrentMixedQueriesAgainstOneEndpoint) {
  sparql::Endpoint ep("stress", StressGraph());
  constexpr size_t kThreads = 8;
  constexpr int kQueriesPerThread = 40;
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ep, &errors, t]() {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        util::StatusOr<sparql::ResultSet> rs = [&]() {
          switch ((t + static_cast<size_t>(i)) % 3) {
            case 0:  // Full-text (bif:contains) query.
              return ep.Query(
                  "SELECT ?v ?d WHERE { ?v ?p ?d . ?d <bif:contains> "
                  "\"'person' OR 'number'\" . } LIMIT 50");
            case 1:  // BGP join.
              return ep.Query(
                  "SELECT ?a ?b WHERE { ?a <http://x/knows> ?b . ?b "
                  "<http://x/type> <http://x/Human> . } LIMIT 25");
            default:  // Point lookup.
              return ep.Query("SELECT ?o WHERE { <http://x/person" +
                              std::to_string(i % 200) +
                              "> <http://x/knows> ?o . }");
          }
        }();
        if (!rs.ok() || rs->NumRows() == 0) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(ep.query_count(), kThreads * kQueriesPerThread);
}

TEST(RobustnessTest, ConcurrentQueriesDuringLiveUpdates) {
  sparql::Endpoint ep("stress-update", StressGraph());
  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&ep, &stop, &failures]() {
      while (!stop.load(std::memory_order_acquire)) {
        auto rs = ep.Query(
            "SELECT ?a WHERE { ?a <http://x/type> <http://x/Human> . } "
            "LIMIT 10");
        if (!rs.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  size_t generation_before = ep.generation();
  for (int i = 0; i < 20; ++i) {
    std::string nt = "<http://x/new" + std::to_string(i) +
                     "> <http://x/type> <http://x/Human> .\n";
    auto added = ep.AddNTriples(nt);
    ASSERT_TRUE(added.ok());
    EXPECT_EQ(*added, 1u);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(ep.generation(), generation_before + 20);
}

// Result cells point at the endpoint dictionary's terms.  Writes grow the
// dictionary (past several storage chunks here) while result sets taken
// before them are still held and read, and while readers query.
TEST(RobustnessTest, HeldResultSetsReadTheSameTermsAcrossLiveUpdates) {
  sparql::Endpoint ep("stress-held", StressGraph());
  auto render = [](const sparql::ResultSet& rs) {
    std::vector<std::string> out;
    for (const sparql::Row& row : rs.rows()) {
      for (const sparql::TermRef& cell : row) {
        out.push_back(cell.has_value() ? rdf::ToNTriples(*cell) : "_");
      }
    }
    return out;
  };
  const std::string text_query =
      "SELECT ?v ?d WHERE { ?v ?p ?d . ?d <bif:contains> \"'person'\" . } "
      "LIMIT 50";
  const std::string join_query =
      "SELECT ?a ?b WHERE { ?a <http://x/knows> ?b . } LIMIT 25";
  auto held_text = ep.Query(text_query);
  auto held_join = ep.Query(join_query);
  ASSERT_TRUE(held_text.ok() && held_join.ok());
  ASSERT_GT(held_text->NumRows(), 0u);
  const std::vector<std::string> text_before = render(*held_text);
  const std::vector<std::string> join_before = render(*held_join);

  std::atomic<bool> stop{false};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t]() {
      auto mine = ep.Query(t % 2 == 0 ? text_query : join_query);
      if (!mine.ok()) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const std::vector<std::string> expected = render(*mine);
      while (!stop.load(std::memory_order_acquire)) {
        auto fresh = ep.Query(join_query);
        if (!fresh.ok() || render(*mine) != expected ||
            render(*held_join) != join_before) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  constexpr size_t kWrites = 1000;
  const size_t terms_before = ep.store().dictionary().size();
  for (size_t i = 0; i < kWrites; ++i) {
    const std::string n = std::to_string(i);
    auto added = ep.AddNTriples("<http://x/held" + n +
                                "> <http://x/label> \"held person " + n +
                                "\" .\n");
    ASSERT_TRUE(added.ok()) << added.status();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(ep.store().dictionary().size(),
            terms_before + 2 * kWrites);
  EXPECT_EQ(render(*held_text), text_before);
  EXPECT_EQ(render(*held_join), join_before);
}

TEST(RobustnessTest, ParallelEngineMatchesSerialAnswers) {
  // The same questions answered with the serial pipeline and with the
  // maximum fan-out must produce identical answer sets — parallelism only
  // re-schedules pure work.
  auto build_endpoint = []() {
    rdf::Graph g;
    g.AddIri("http://x/baltic", "http://www.w3.org/2000/01/rdf-schema#label",
             rdf::StringLiteral("Baltic Sea"));
    g.AddIris("http://x/baltic", "http://x/nearestCity",
              "http://x/kaliningrad");
    g.AddIri("http://x/kaliningrad",
             "http://www.w3.org/2000/01/rdf-schema#label",
             rdf::StringLiteral("Kaliningrad"));
    g.AddIris("http://x/kaliningrad", "http://x/type", "http://x/City");
    g.AddIri("http://x/City", "http://www.w3.org/2000/01/rdf-schema#label",
             rdf::StringLiteral("city"));
    return sparql::Endpoint("par", std::move(g));
  };
  const char* questions[] = {
      "What is the nearest city to the Baltic Sea?",
      "Which city is nearest to the Baltic Sea?",
  };

  core::KgqanConfig serial_cfg;
  serial_cfg.qu.inference.enabled = false;
  serial_cfg.num_threads = 1;
  serial_cfg.linking_cache = false;
  core::KgqanConfig parallel_cfg = serial_cfg;
  parallel_cfg.num_threads = 8;
  parallel_cfg.linking_cache = true;

  core::KgqanEngine serial(serial_cfg);
  core::KgqanEngine parallel(parallel_cfg);
  ASSERT_EQ(parallel.effective_threads(), 8u);

  for (const char* q : questions) {
    sparql::Endpoint ep_a = build_endpoint();
    sparql::Endpoint ep_b = build_endpoint();
    core::QaResponse a = serial.Answer(q, ep_a);
    core::QaResponse b = parallel.Answer(q, ep_b);
    EXPECT_EQ(a.understood, b.understood);
    EXPECT_EQ(a.is_boolean, b.is_boolean);
    ASSERT_EQ(a.answers.size(), b.answers.size()) << q;
    for (size_t i = 0; i < a.answers.size(); ++i) {
      EXPECT_EQ(a.answers[i], b.answers[i]) << q;
    }
  }
  // Second pass on the parallel engine: answers must be stable under
  // cache hits, and the cache must have seen traffic.
  sparql::Endpoint ep = build_endpoint();
  core::QaResponse first = parallel.Answer(questions[0], ep);
  core::RuntimeCounters before = parallel.Counters();
  core::QaResponse second = parallel.Answer(questions[0], ep);
  core::RuntimeCounters after = parallel.Counters();
  EXPECT_EQ(first.answers.size(), second.answers.size());
  EXPECT_GT(after.linking_cache_hits, before.linking_cache_hits);
}

TEST(RobustnessTest, OneEngineSharedAcrossQuestionThreads) {
  // AnswerFull is const: a single engine instance must serve questions
  // from several harness threads at once (shared embedder caches, shared
  // linking cache, shared pool).
  core::KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  cfg.num_threads = 2;
  core::KgqanEngine engine(cfg);
  sparql::Endpoint ep("shared", StressGraph());
  std::atomic<size_t> crashes{0};
  std::vector<std::thread> askers;
  for (int t = 0; t < 4; ++t) {
    askers.emplace_back([&engine, &ep, &crashes, t]() {
      const char* questions[] = {
          "Who knows Person Number 3?",
          "Is Person Number 5 a human?",
          "What is Person Number 7?",
      };
      for (int i = 0; i < 6; ++i) {
        core::QaResponse resp =
            engine.Answer(questions[(t + i) % 3], ep);
        if (!resp.understood && !resp.answers.empty()) {
          crashes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : askers) t.join();
  EXPECT_EQ(crashes.load(), 0u);
}

}  // namespace
}  // namespace kgqan
