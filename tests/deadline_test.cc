// Deadline behaviour end-to-end: near-zero deadlines return a prompt
// DeadlineExceeded against a slow endpoint, generous deadlines leave
// answers byte-identical to an undeadlined run, and a cancelled wave
// never poisons the linking cache.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "serve/qa_server.h"
#include "sparql/endpoint.h"
#include "util/cancel.h"

namespace kgqan::serve {
namespace {

constexpr const char* kDbr = "http://dbpedia.org/resource/";
constexpr const char* kDbo = "http://dbpedia.org/ontology/";
constexpr const char* kLabel = "http://www.w3.org/2000/01/rdf-schema#label";

rdf::Graph MiniKg() {
  rdf::Graph g;
  auto label = [&](const std::string& iri, const std::string& text) {
    g.AddIri(iri, kLabel, rdf::StringLiteral(text));
  };
  g.AddIris(std::string(kDbr) + "Barack_Obama", std::string(kDbo) + "spouse",
            std::string(kDbr) + "Michelle_Obama");
  g.AddIris(std::string(kDbr) + "France", std::string(kDbo) + "capital",
            std::string(kDbr) + "Paris");
  label(std::string(kDbr) + "Barack_Obama", "Barack Obama");
  label(std::string(kDbr) + "Michelle_Obama", "Michelle Obama");
  label(std::string(kDbr) + "France", "France");
  label(std::string(kDbr) + "Paris", "Paris");
  return g;
}

core::KgqanConfig ServingConfig() {
  core::KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  return cfg;
}

std::vector<std::string> AnswersOf(const core::KgqanResult& result) {
  std::vector<std::string> out;
  out.reserve(result.response.answers.size());
  for (const rdf::Term& term : result.response.answers) {
    out.push_back(rdf::ToNTriples(term));
  }
  return out;
}

// Each endpoint exchange sleeps 50 ms, so an undeadlined question takes
// hundreds of ms; with a ~1 ms deadline the pipeline must bail at its
// first cancellation poll rather than running to completion.
TEST(DeadlineTest, NearZeroDeadlineFailsPromptly) {
  sparql::Endpoint endpoint("mini", MiniKg());
  endpoint.set_injected_latency_ms(50.0);
  core::KgqanEngine engine(ServingConfig());
  QaServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 4;
  QaServer server(&engine, &endpoint, options);

  auto response = server.Ask("Who is the spouse of Barack Obama?",
                             /*deadline_ms=*/1.0);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->deadline_exceeded);
  EXPECT_TRUE(response->result.deadline_exceeded);
  EXPECT_TRUE(response->result.response.answers.empty());
  // Prompt: one in-flight exchange may run to its 50 ms sleep boundary,
  // but nothing close to the multi-exchange full pipeline.  Counted in
  // exchanges rather than wall time: with one engine thread the expired
  // deadline ends the first exchange, and every later Query() is dropped
  // before it is counted.
  EXPECT_LE(endpoint.query_count(), 1u);
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
  server.Shutdown();
}

// A generous deadline must not perturb the result in any way: identical
// answers, flags, and query counts as a run with no deadline at all.
TEST(DeadlineTest, GenerousDeadlineIsByteIdentical) {
  const std::string kQuestions[] = {
      "Who is the spouse of Barack Obama?",
      "What is the capital of France?",
  };

  sparql::Endpoint endpoint_a("mini", MiniKg());
  core::KgqanEngine plain_engine(ServingConfig());
  std::vector<core::KgqanResult> reference;
  for (const std::string& q : kQuestions) {
    reference.push_back(plain_engine.AnswerFull(q, endpoint_a));
  }

  sparql::Endpoint endpoint_b("mini", MiniKg());
  core::KgqanEngine served_engine(ServingConfig());
  QaServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 4;
  QaServer server(&served_engine, &endpoint_b, options);
  for (size_t i = 0; i < 2; ++i) {
    auto response = server.Ask(kQuestions[i], 60'000.0);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_FALSE(response->deadline_exceeded);
    const core::KgqanResult& ref = reference[i];
    const core::KgqanResult& got = response->result;
    EXPECT_EQ(AnswersOf(got), AnswersOf(ref));
    EXPECT_EQ(got.response.understood, ref.response.understood);
    EXPECT_EQ(got.response.is_boolean, ref.response.is_boolean);
    EXPECT_EQ(got.queries_generated, ref.queries_generated);
    EXPECT_EQ(got.queries_executed, ref.queries_executed);
    EXPECT_EQ(got.linking_requests, ref.linking_requests);
  }
  server.Shutdown();
}

// A cancelled linking wave must leave the cache empty: partial probe
// results from an expired request are worthless and must not be served to
// later requests as if they were complete.
TEST(DeadlineTest, CancelledWaveDoesNotPoisonLinkingCache) {
  sparql::Endpoint endpoint("mini", MiniKg());
  endpoint.set_injected_latency_ms(50.0);
  core::KgqanEngine engine(ServingConfig());
  {
    QaServerOptions options;
    options.num_workers = 1;
    options.queue_capacity = 4;
    QaServer server(&engine, &endpoint, options);
    auto response = server.Ask("Who is the spouse of Barack Obama?",
                               /*deadline_ms=*/1.0);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->deadline_exceeded);
  }
  ASSERT_NE(engine.linking_cache(), nullptr);
  EXPECT_EQ(engine.linking_cache()->stats().entries, 0u)
      << "cancelled linking wave wrote entries into the cache";

  // And the engine is not wedged: rerunning the same question with no
  // deadline on the now-fast endpoint matches a fresh engine exactly.
  endpoint.set_injected_latency_ms(0.0);
  core::KgqanResult rerun =
      engine.AnswerFull("Who is the spouse of Barack Obama?", endpoint);
  core::KgqanEngine fresh_engine(ServingConfig());
  core::KgqanResult fresh =
      fresh_engine.AnswerFull("Who is the spouse of Barack Obama?", endpoint);
  EXPECT_FALSE(rerun.deadline_exceeded);
  EXPECT_EQ(AnswersOf(rerun), AnswersOf(fresh));
  EXPECT_EQ(rerun.response.understood, fresh.response.understood);
  EXPECT_EQ(rerun.queries_generated, fresh.queries_generated);
}

// Deadlines must bite *inside* a join scan, not only between patterns:
// a dense complete digraph makes a variable chain explode combinatorially,
// so with a couple-of-ms deadline the evaluator's join step observes the
// expiry mid-scan and return DeadlineExceeded after the exchange was
// already issued and counted (proving it is not the fail-fast path).
TEST(DeadlineTest, SerialEvaluationCancelsMidScan) {
  rdf::Graph g;
  constexpr int kN = 60;
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      if (i != j) {
        g.AddIris("http://x/e" + std::to_string(i), "http://x/p",
                  "http://x/e" + std::to_string(j));
      }
    }
  }
  sparql::Endpoint endpoint("dense", std::move(g));

  // Timing-dependent: the deadline must expire after admission but before
  // evaluation finishes.  Longer chains take longer, so retry with doubled
  // work until the cancellation lands mid-evaluation.
  bool cancelled_mid_scan = false;
  for (int chain = 3; chain <= 8 && !cancelled_mid_scan; ++chain) {
    std::string query = "SELECT ?v0 WHERE {";
    for (int i = 0; i < chain; ++i) {
      query += " ?v" + std::to_string(i) + " <http://x/p> ?v" +
               std::to_string(i + 1) + " .";
    }
    query += " }";
    for (int attempt = 0; attempt < 4 && !cancelled_mid_scan; ++attempt) {
      size_t count_before = endpoint.query_count();
      util::CancelToken token = util::CancelToken::WithDeadlineMillis(2.0);
      util::ScopedCancelToken bind(token);
      auto result = endpoint.Query(query);
      if (!result.ok() &&
          result.status().code() == util::StatusCode::kDeadlineExceeded &&
          endpoint.query_count() > count_before) {
        // Counted traffic + DeadlineExceeded = the expiry was observed
        // inside evaluation, after the exchange was issued.
        cancelled_mid_scan = true;
      }
    }
  }
  EXPECT_TRUE(cancelled_mid_scan)
      << "no run observed the deadline inside the join scan";
  EXPECT_GT(endpoint.cancelled_count(), 0u);
}

// The injection point itself: an expired token makes the endpoint fail
// fast without counting traffic, and abandon an in-flight injected sleep.
TEST(DeadlineTest, EndpointFailsFastWhenTokenExpired) {
  sparql::Endpoint endpoint("mini", MiniKg());
  const std::string query =
      "SELECT ?o WHERE { <http://dbpedia.org/resource/France> "
      "<http://dbpedia.org/ontology/capital> ?o }";

  util::CancelToken token = util::CancelToken::Cancellable();
  token.Cancel();
  util::ScopedCancelToken bind(token);
  auto results = endpoint.Query(query);
  EXPECT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(endpoint.cancelled_count(), 1u);
  EXPECT_EQ(endpoint.query_count(), 0u)
      << "a fail-fast query must not count as endpoint traffic";
}

}  // namespace
}  // namespace kgqan::serve
