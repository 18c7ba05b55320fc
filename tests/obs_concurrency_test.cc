// Concurrency tests for the observability subsystem (run under TSan):
// one MetricsRegistry hammered from a thread pool, per-question traces
// kept isolated while their work interleaves on shared workers, and the
// engine's trace-attributed linking counters staying exact when several
// questions share one endpoint concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "benchgen/benchmark.h"
#include "core/config.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace kgqan {
namespace {

TEST(ObsConcurrencyTest, RegistryIsThreadSafeUnderContention) {
  obs::MetricsRegistry registry;
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 2000;
  util::ThreadPool pool(kThreads);
  std::vector<std::future<void>> futures;
  futures.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    futures.push_back(pool.Submit([&registry]() {
      for (size_t i = 0; i < kIters; ++i) {
        // Lookup-by-name on purpose: the registry mutex is the contended
        // path; the record itself is lock-free.
        registry.GetCounter("hammer.counter").Add(1);
        registry.GetGauge("hammer.gauge").Add(1);
        registry.GetHistogram("hammer.hist").Record(double(i % 7));
        registry.GetGauge("hammer.gauge").Sub(1);
      }
    }));
  }
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(registry.GetCounter("hammer.counter").Value(), kThreads * kIters);
  EXPECT_EQ(registry.GetGauge("hammer.gauge").Value(), 0);
  obs::HistogramSnapshot snap = registry.GetHistogram("hammer.hist").Snapshot();
  EXPECT_EQ(snap.count, kThreads * kIters);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 6.0);
}

TEST(ObsConcurrencyTest, TracesStayIsolatedAcrossSharedPoolWorkers) {
  // Several "questions" (one trace each) fan tasks out onto one shared
  // pool concurrently.  Context propagation must route every span and
  // counter increment to the task's own trace, never a neighbour's.
  constexpr size_t kTraces = 8;
  constexpr size_t kTasksPerTrace = 16;
  util::ThreadPool pool(4);
  std::vector<std::unique_ptr<obs::Trace>> traces;
  for (size_t t = 0; t < kTraces; ++t) {
    traces.push_back(std::make_unique<obs::Trace>(obs::Trace::Mode::kFull));
  }
  std::vector<std::thread> drivers;
  drivers.reserve(kTraces);
  for (size_t t = 0; t < kTraces; ++t) {
    drivers.emplace_back([&pool, trace = traces[t].get(), t]() {
      obs::ScopedSpan root(trace, "root");
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksPerTrace);
      for (size_t i = 0; i < kTasksPerTrace; ++i) {
        futures.push_back(pool.Submit([t]() {
          obs::ScopedSpan span("task");
          span.AddAttribute("owner", std::to_string(t));
          if (obs::Trace* current = obs::CurrentTrace()) {
            current->AddCounter(obs::TraceCounter::kEndpointRequests, 1);
          }
        }));
      }
      for (std::future<void>& f : futures) f.get();
    });
  }
  for (std::thread& d : drivers) d.join();

  for (size_t t = 0; t < kTraces; ++t) {
    const obs::Trace& trace = *traces[t];
    EXPECT_EQ(trace.counter(obs::TraceCounter::kEndpointRequests),
              kTasksPerTrace);
    std::vector<obs::SpanRecord> spans = trace.spans();
    ASSERT_EQ(spans.size(), 1 + kTasksPerTrace);
    size_t root = trace.FindSpan("root");
    ASSERT_NE(root, obs::kNoSpan);
    for (size_t s = 0; s < spans.size(); ++s) {
      if (s == root) continue;
      EXPECT_EQ(spans[s].name, "task");
      // Submitted under the driver's root context: parent survives the
      // hop onto the pool worker.
      EXPECT_EQ(spans[s].parent, root);
      ASSERT_EQ(spans[s].attributes.size(), 1u);
      EXPECT_EQ(spans[s].attributes[0].second, std::to_string(t));
    }
  }
}

TEST(ObsConcurrencyTest, LinkingCountersExactUnderSharedEndpoint) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kLcQuad, 0.02);
  const size_t n = b.questions.size();
  ASSERT_GT(n, 0u);

  // Serial reference: one question at a time, no cache, so per-question
  // linking traffic is deterministic.
  core::KgqanConfig serial_cfg;
  serial_cfg.num_threads = 1;
  serial_cfg.linking_cache_capacity = 0;
  core::KgqanEngine serial(serial_cfg);
  std::vector<size_t> expected_requests(n);
  for (size_t i = 0; i < n; ++i) {
    core::KgqanResult r = serial.AnswerFull(b.questions[i].text, *b.endpoint);
    expected_requests[i] = r.linking_requests;
  }

  // Concurrent run: one shared engine (worker pool inside) and several
  // driver threads answering different questions against the same
  // endpoint at once.  The old endpoint-delta measurement would mix the
  // questions' traffic here; trace attribution must keep it exact.
  core::KgqanConfig par_cfg;
  par_cfg.num_threads = 4;
  par_cfg.linking_cache_capacity = 0;
  core::KgqanEngine shared(par_cfg);
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
    attributed_requests +=
        traces[i]->counter(obs::TraceCounter::kEndpointRequests);
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
  core::KgqanConfig cfg;
  cfg.num_threads = 4;
  core::KgqanEngine engine(cfg);

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

}  // namespace
}  // namespace kgqan
