// Functional coverage for serve::QaServer: responses through the server
// are identical to direct Engine::AnswerFull calls, a full admission queue
// rejects with Overloaded, Drain() completes all in-flight work, and
// shutdown is idempotent.

#include <gtest/gtest.h>

#include <future>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/benchmark.h"
#include "core/config.h"
#include "core/engine.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "serve/qa_server.h"
#include "sparql/endpoint.h"
#include "util/status.h"

namespace kgqan::serve {
namespace {

constexpr const char* kDbr = "http://dbpedia.org/resource/";
constexpr const char* kDbo = "http://dbpedia.org/ontology/";
constexpr const char* kLabel = "http://www.w3.org/2000/01/rdf-schema#label";

// Obama + Paris facts: enough for understood questions that issue real
// linking probes and candidate queries.
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

// With one worker and no deadline the server is a FIFO proxy for the
// engine: every response must be identical to a direct AnswerFull call on
// an identically configured engine (same question order, so the linking
// cache warms identically).
TEST(ServingTest, ResponsesIdenticalToDirectAnswerFull) {
  benchgen::Benchmark bench =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kLcQuad, 0.05);

  core::KgqanEngine direct_engine(ServingConfig());
  std::vector<core::KgqanResult> reference;
  reference.reserve(bench.questions.size());
  for (const auto& q : bench.questions) {
    reference.push_back(direct_engine.AnswerFull(q.text, *bench.endpoint));
  }

  core::KgqanEngine served_engine(ServingConfig());
  QaServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  QaServer server(&served_engine, bench.endpoint.get(), options);
  for (size_t i = 0; i < bench.questions.size(); ++i) {
    SCOPED_TRACE("question: " + bench.questions[i].text);
    auto response = server.Ask(bench.questions[i].text);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_FALSE(response->deadline_exceeded);
    EXPECT_EQ(response->question, bench.questions[i].text);
    const core::KgqanResult& ref = reference[i];
    const core::KgqanResult& got = response->result;
    EXPECT_EQ(got.response.understood, ref.response.understood);
    EXPECT_EQ(got.response.is_boolean, ref.response.is_boolean);
    EXPECT_EQ(got.response.boolean_answer, ref.response.boolean_answer);
    EXPECT_EQ(AnswersOf(got), AnswersOf(ref));
    EXPECT_EQ(got.queries_generated, ref.queries_generated);
    EXPECT_EQ(got.queries_executed, ref.queries_executed);
    EXPECT_EQ(got.linking_requests, ref.linking_requests);
    EXPECT_FALSE(got.deadline_exceeded);
  }
  server.Shutdown();
  QaServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, bench.questions.size());
  EXPECT_EQ(stats.completed, bench.questions.size());
  EXPECT_EQ(stats.rejected_overloaded, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

// A slow endpoint with a single worker and a tiny queue: a burst of
// submissions must hit the capacity wall and be rejected immediately with
// Overloaded, while every admitted request still completes.
TEST(ServingTest, FullQueueRejectsWithOverloaded) {
  sparql::Endpoint endpoint("mini", MiniKg());
  endpoint.set_injected_latency_ms(150.0);
  core::KgqanEngine engine(ServingConfig());
  QaServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  QaServer server(&engine, &endpoint, options);

  // The worker can take at most one request in flight during the burst
  // (its first linking probe alone sleeps 150 ms), so of the 8
  // submissions at most 1 + capacity + 1 can be admitted.
  std::vector<std::future<QaServerResponse>> admitted;
  size_t overloaded = 0;
  for (int i = 0; i < 8; ++i) {
    auto future = server.Submit("Who is the spouse of Barack Obama?");
    if (future.ok()) {
      admitted.push_back(std::move(*future));
    } else {
      EXPECT_EQ(future.status().code(), util::StatusCode::kOverloaded);
      ++overloaded;
    }
  }
  EXPECT_GE(overloaded, 4u);
  EXPECT_GE(admitted.size(), 1u);

  server.Drain();
  for (auto& future : admitted) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "Drain returned before an admitted future became ready";
    QaServerResponse response = future.get();
    EXPECT_TRUE(response.result.response.understood);
    EXPECT_FALSE(response.deadline_exceeded);
  }
  QaServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, admitted.size());
  EXPECT_EQ(stats.completed, admitted.size());
  EXPECT_EQ(stats.rejected_overloaded, overloaded);
  EXPECT_EQ(stats.admitted + stats.rejected_overloaded, 8u);
}

// Drain completes in-flight work and subsequently rejects with
// Unavailable (not Overloaded: the server is going away, not busy).
TEST(ServingTest, DrainCompletesInFlightThenRejectsUnavailable) {
  sparql::Endpoint endpoint("mini", MiniKg());
  endpoint.set_injected_latency_ms(20.0);
  core::KgqanEngine engine(ServingConfig());
  QaServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 16;
  QaServer server(&engine, &endpoint, options);

  std::vector<std::future<QaServerResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    auto future = server.Submit("What is the capital of France?");
    ASSERT_TRUE(future.ok()) << future.status();
    futures.push_back(std::move(*future));
  }
  server.Drain();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    QaServerResponse response = future.get();
    EXPECT_TRUE(response.result.response.understood);
  }
  QaServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 6u);
  EXPECT_EQ(stats.completed, 6u);

  auto rejected = server.Submit("What is the capital of France?");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().rejected_unavailable, 1u);
}

TEST(ServingTest, ShutdownIsIdempotent) {
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanEngine engine(ServingConfig());
  QaServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4;
  QaServer server(&engine, &endpoint, options);
  auto response = server.Ask("Who is the spouse of Barack Obama?");
  ASSERT_TRUE(response.ok()) << response.status();
  server.Shutdown();
  server.Shutdown();  // Second call must be a no-op, not a crash/hang.
  server.Drain();     // Drain after shutdown is likewise a no-op.
  EXPECT_EQ(server.stats().completed, 1u);
  // Destructor shuts down again — also a no-op.
}

}  // namespace
}  // namespace kgqan::serve
