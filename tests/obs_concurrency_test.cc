// Concurrency tests for the observability subsystem (run under TSan):
// one MetricsRegistry hammered from several threads, and the engine's
// trace-attributed counters and spans staying per-question when several
// questions share one endpoint concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchgen/benchmark.h"
#include "core/config.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kgqan {
namespace {

TEST(ObsConcurrencyTest, RegistryIsThreadSafeUnderContention) {
  obs::MetricsRegistry registry;
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry]() {
      for (size_t i = 0; i < kIters; ++i) {
        // Lookup-by-name on purpose: the registry mutex is the contended
        // path; the record itself is lock-free.
        registry.GetCounter("hammer.counter").Add(1);
        registry.GetGauge("hammer.gauge").Add(1);
        registry.GetHistogram("hammer.hist").Record(double(i % 7));
        registry.GetGauge("hammer.gauge").Sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("hammer.counter").Value(), kThreads * kIters);
  EXPECT_EQ(registry.GetGauge("hammer.gauge").Value(), 0);
  obs::HistogramSnapshot snap = registry.GetHistogram("hammer.hist").Snapshot();
  EXPECT_EQ(snap.count, kThreads * kIters);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 6.0);
}

TEST(ObsConcurrencyTest, LinkingCountersExactUnderSharedEndpoint) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kLcQuad, 0.02);
  const size_t n = b.questions.size();
  ASSERT_GT(n, 0u);

  // Serial reference: one question at a time, no cache, so per-question
  // linking and execution traffic is deterministic.
  core::KgqanConfig cfg;
  cfg.linking_cache = false;
  core::KgqanEngine serial(cfg);
  std::vector<size_t> expected_requests(n);
  std::vector<size_t> expected_total(n);
  for (size_t i = 0; i < n; ++i) {
    size_t before = b.endpoint->query_count();
    core::KgqanResult r = serial.AnswerFull(b.questions[i].text, *b.endpoint);
    expected_requests[i] = r.linking_requests;
    expected_total[i] = b.endpoint->query_count() - before;
  }

  // Concurrent run: one shared engine and four threads answering
  // different questions against the same endpoint at once.  The old
  // endpoint-delta measurement would mix the questions' traffic here;
  // trace attribution must keep it exact.
  core::KgqanEngine shared(cfg);
  size_t global_requests_before = b.endpoint->query_count();
  std::vector<std::unique_ptr<obs::Trace>> traces;
  for (size_t i = 0; i < n; ++i) {
    traces.push_back(std::make_unique<obs::Trace>(obs::Trace::Mode::kFull));
  }
  std::vector<core::KgqanResult> results(n);
  std::atomic<size_t> next{0};
  std::vector<std::thread> drivers;
  for (size_t d = 0; d < 4; ++d) {
    drivers.emplace_back([&]() {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        results[i] =
            shared.AnswerFull(b.questions[i].text, *b.endpoint,
                              traces[i].get());
      }
    });
  }
  for (std::thread& d : drivers) d.join();

  uint64_t attributed_requests = 0;
  for (size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("question " + std::to_string(i) + ": " +
                 b.questions[i].text);
    EXPECT_EQ(results[i].linking_requests, expected_requests[i]);
    // Per-question attribution: the question's trace holds exactly its own
    // requests, and its span tree has one root, the question's own.
    const obs::Trace& trace = *traces[i];
    EXPECT_EQ(trace.counter(obs::TraceCounter::kEndpointRequests),
              expected_total[i]);
    attributed_requests +=
        trace.counter(obs::TraceCounter::kEndpointRequests);
    std::vector<obs::SpanRecord> spans = trace.spans();
    size_t roots = 0;
    for (const obs::SpanRecord& span : spans) {
      if (span.parent != obs::kNoSpan) continue;
      ++roots;
      EXPECT_EQ(span.name, "question");
      ASSERT_FALSE(span.attributes.empty());
      EXPECT_EQ(span.attributes[0],
                std::make_pair(std::string("question"), b.questions[i].text));
    }
    EXPECT_EQ(roots, 1u);
  }
  // Conservation: every endpoint request of the concurrent run was
  // attributed to exactly one question's trace (linking and execution).
  EXPECT_EQ(attributed_requests,
            b.endpoint->query_count() - global_requests_before);
}

TEST(EngineTraceTest, RootSpanCoversPhaseSpans) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kLcQuad, 0.02);
  ASSERT_GT(b.questions.size(), 0u);
  core::KgqanEngine engine;

  obs::Trace trace(obs::Trace::Mode::kFull);
  core::KgqanResult result =
      engine.AnswerFull(b.questions[0].text, *b.endpoint, &trace);
  ASSERT_TRUE(result.response.understood);

  std::vector<obs::SpanRecord> spans = trace.spans();
  size_t root = trace.FindSpan("question");
  size_t qu = trace.FindSpan("qu");
  size_t linking = trace.FindSpan("linking");
  size_t execution = trace.FindSpan("execution");
  ASSERT_NE(root, obs::kNoSpan);
  ASSERT_NE(qu, obs::kNoSpan);
  ASSERT_NE(linking, obs::kNoSpan);
  ASSERT_NE(execution, obs::kNoSpan);
  EXPECT_EQ(spans[qu].parent, root);
  EXPECT_EQ(spans[linking].parent, root);
  EXPECT_EQ(spans[execution].parent, root);

  // The three phases run back to back inside the root span, so their
  // durations must add up to the root's (loose bounds: span bookkeeping
  // between phases is microseconds, the slack absorbs scheduling noise).
  double phase_sum_ns = double(spans[qu].duration_ns) +
                        double(spans[linking].duration_ns) +
                        double(spans[execution].duration_ns);
  double root_ns = double(spans[root].duration_ns);
  EXPECT_GE(root_ns + 1e6, phase_sum_ns);         // Children fit inside.
  EXPECT_LE(root_ns, phase_sum_ns + 100e6);       // <100ms unaccounted.

  // The engine's phase timings come from the same spans.
  EXPECT_NEAR(result.response.timings.TotalMs(), phase_sum_ns / 1e6, 1.0);

  // Per-query spans hang off the phases, and every executed candidate has
  // a filled stats slot.
  EXPECT_NE(trace.FindSpan("sparql.query"), obs::kNoSpan);
  size_t executed_slots = 0;
  for (const core::CandidateQueryStats& c : result.candidates) {
    if (c.executed) ++executed_slots;
  }
  EXPECT_EQ(executed_slots, result.queries_executed);
  EXPECT_EQ(result.candidates.size(), result.queries_generated);
}

TEST(EngineTraceTest, SparqlParseNestsUnderSparqlQuery) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kLcQuad, 0.02);
  ASSERT_GT(b.questions.size(), 0u);
  core::KgqanEngine engine;

  obs::Trace trace(obs::Trace::Mode::kFull);
  core::KgqanResult result =
      engine.AnswerFull(b.questions[0].text, *b.endpoint, &trace);
  ASSERT_TRUE(result.response.understood);

  // Every endpoint request (no deadline, so none is dropped) parses its
  // query once, inside its own sparql.query span.
  std::vector<obs::SpanRecord> spans = trace.spans();
  size_t queries = 0;
  size_t parses = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "sparql.query") ++queries;
    if (span.name != "sparql.parse") continue;
    ++parses;
    ASSERT_NE(span.parent, obs::kNoSpan);
    const obs::SpanRecord& parent = spans[span.parent];
    EXPECT_EQ(parent.name, "sparql.query");
    EXPECT_GE(span.start_ns, parent.start_ns);
    EXPECT_LE(span.start_ns + span.duration_ns,
              parent.start_ns + parent.duration_ns);
  }
  EXPECT_GT(queries, 0u);
  EXPECT_EQ(parses, queries);
}

}  // namespace
}  // namespace kgqan
