// Thread-safety of the introspection plane, written to run under TSan:
// metrics scraping and flight-recorder dumps race a query storm and the
// admin HTTP listener; the Gauge high-water invariant holds under a
// Reset/Add/Sub storm; the sampler loses no decisions under contention.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "serve/qa_server.h"
#include "sparql/endpoint.h"

namespace kgqan::serve {
namespace {

constexpr const char* kDbr = "http://dbpedia.org/resource/";
constexpr const char* kDbo = "http://dbpedia.org/ontology/";
constexpr const char* kRdfsLabel =
    "http://www.w3.org/2000/01/rdf-schema#label";

rdf::Graph MiniKg() {
  rdf::Graph g;
  auto label = [&](const std::string& iri, const std::string& text) {
    g.AddIri(iri, kRdfsLabel, rdf::StringLiteral(text));
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

// The Gauge's documented invariant — Max() never reads below a level
// concurrently observable via Value() — under adversarial Reset traffic.
TEST(IntrospectionConcurrencyTest, GaugeHighWaterSurvivesResetStorm) {
  obs::Gauge gauge;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 20'000; ++i) {
        gauge.Add((t + 1) * (i % 3 + 1));
        gauge.Sub(t + 1);
      }
    });
  }
  threads.emplace_back([&gauge] {
    for (int i = 0; i < 5'000; ++i) gauge.Reset();
  });
  // Concurrent readers: TSan validates the read paths; the invariant
  // itself is asserted at quiescence (mid-storm, two separate Value/Max
  // calls cannot form one coherent read pair).
  threads.emplace_back([&gauge, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)gauge.Max();
      (void)gauge.Value();
    }
  });
  for (size_t t = 0; t < 5; ++t) threads[t].join();
  stop.store(true);
  threads[5].join();
  // Quiescent: the net of the adders is positive, any trailing Reset
  // reseeds from the live value, and Max clamps — so the mark can never
  // finish below the level (the pre-fix bug stranded max_ at 0 here).
  EXPECT_GE(gauge.Max(), gauge.Value());
}

// Sampler decisions under contention: every call resolves to exactly one
// of {sampled, rate-limited, skipped}, and the deterministic 1-in-N gate
// admits exactly considered/N across all threads.
TEST(IntrospectionConcurrencyTest, SamplerCountsAreExactUnderContention) {
  obs::TraceSamplerOptions options;
  options.sample_every = 8;
  options.max_sampled_per_sec = 0.0;  // Uncapped: spacing is exact.
  obs::TraceSampler sampler(options);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4'000;
  std::atomic<uint64_t> sampled{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (sampler.Sample()) sampled.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(sampler.considered(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(sampled.load(), uint64_t{kThreads} * kPerThread / 8);
  EXPECT_EQ(sampler.sampled(), sampled.load());
}

// Recorders and dumpers race: writers insert records while readers
// snapshot and render the Chrome JSONL.  Shared_ptr retention means a
// record handed to a reader stays valid even as the ring overwrites it.
TEST(IntrospectionConcurrencyTest, FlightRecorderDumpRacesRecording) {
  obs::FlightRecorderOptions options;
  options.capacity = 8;
  options.slow_threshold_ms = 0.0;
  obs::FlightRecorder recorder(options);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&recorder, t] {
      for (int i = 0; i < 2'000; ++i) {
        auto record = std::make_shared<obs::FlightRecord>();
        std::string question = "q";
        question += std::to_string(t);
        question += '.';
        question += std::to_string(i);
        record->question = std::move(question);
        record->status = i % 7 == 0 ? "deadline_exceeded" : "ok";
        record->total_ms = static_cast<double>(i);
        recorder.Record(std::move(record));
      }
    });
  }
  std::thread dumper([&recorder, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string jsonl = recorder.ChromeJsonl();
      auto snapshot = recorder.Snapshot();
      EXPECT_LE(snapshot.size(), 8u);
      for (const auto& record : snapshot) {
        EXPECT_FALSE(record->question.empty());
      }
    }
  });
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  dumper.join();
  EXPECT_EQ(recorder.recorded(), 4u * 2'000u);
}

// The full plane under a query storm: concurrent Ask() callers, scrape
// threads hammering HandleAdmin (metrics text, stats JSON, slow dump),
// and the sampled-tracing + flight-recording paths all active at once.
TEST(IntrospectionConcurrencyTest, ScrapeUnderQueryStorm) {
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  core::KgqanEngine engine(cfg);

  QaServerOptions options;
  options.num_workers = 3;
  options.queue_capacity = 16;
  options.trace_sample_every = 2;
  options.trace_sample_per_sec = 0.0;
  options.slow_question_ms = 0.0;  // Record everything: max recorder churn.
  options.flight_recorder_capacity = 8;
  options.admin_port = 0;
  QaServer server(&engine, &endpoint, options);

  const std::string questions[] = {
      "Who is the spouse of Barack Obama?",
      "What is the capital of France?",
  };
  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&server, &stop, t] {
      const char* paths[] = {"/metrics", "/stats", "/slow"};
      while (!stop.load(std::memory_order_relaxed)) {
        const char* path = paths[t % 3];
        AdminResponse response = server.HandleAdmin(path);
        EXPECT_EQ(response.status, 200);
        // /slow is legitimately empty until the first record lands.
        if (std::string_view(path) != "/slow") {
          EXPECT_FALSE(response.body.empty());
        }
      }
    });
  }

  std::vector<std::thread> askers;
  std::atomic<size_t> completed{0};
  for (int t = 0; t < 4; ++t) {
    askers.emplace_back([&, t] {
      for (int i = 0; i < 12; ++i) {
        auto response = server.Ask(questions[(t + i) % 2]);
        if (response.ok()) completed.fetch_add(1);
      }
    });
  }
  for (std::thread& asker : askers) asker.join();
  stop.store(true);
  for (std::thread& scraper : scrapers) scraper.join();
  server.Shutdown();

  EXPECT_GT(completed.load(), 0u);
  QaServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, completed.load());
  EXPECT_GT(stats.traces_sampled, 0u);
  EXPECT_GT(stats.flight_records, 0u);
  // The plane stays consistent after the storm.
  EXPECT_EQ(server.HandleAdmin("/metrics").status, 200);
}

}  // namespace
}  // namespace kgqan::serve
