// Concurrency soak for serve::QaServer (run under TSan in CI): N client
// threads each submit M questions against a shared server and verify
// exact accounting — zero lost responses, zero duplicated responses, and
// admitted + rejected == submitted down to the last request.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "obs/metrics.h"
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

// Every client tags its questions with a unique prefix; the response echo
// proves each future resolved to *its* request (no cross-wiring).
TEST(ServingSoakTest, ManyClientsExactAccountingNoLossNoDuplication) {
  obs::MetricsRegistry::Global().Reset();
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanEngine engine(ServingConfig());
  QaServerOptions options;
  options.num_workers = 4;
  options.queue_capacity = 8;  // Small: force real Overloaded rejections.
  QaServer server(&engine, &endpoint, options);

  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 25;
  const std::string kQuestions[] = {
      "Who is the spouse of Barack Obama?",
      "What is the capital of France?",
  };

  std::atomic<size_t> client_admitted{0};
  std::atomic<size_t> client_overloaded{0};
  std::atomic<size_t> client_other{0};
  std::atomic<size_t> echo_mismatches{0};
  std::atomic<size_t> responses{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<std::string, std::future<QaServerResponse>>>
          in_flight;
      for (size_t i = 0; i < kPerClient; ++i) {
        std::string question = kQuestions[(c + i) % 2];
        auto future = server.Submit(question);
        if (future.ok()) {
          client_admitted.fetch_add(1);
          in_flight.emplace_back(std::move(question), std::move(*future));
        } else if (future.status().code() == util::StatusCode::kOverloaded) {
          client_overloaded.fetch_add(1);
        } else {
          client_other.fetch_add(1);
        }
      }
      for (auto& [question, future] : in_flight) {
        QaServerResponse response = future.get();  // Must never hang.
        responses.fetch_add(1);
        if (response.question != question) echo_mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.Shutdown();

  // Zero lost futures (every join returned), zero cross-wired responses.
  EXPECT_EQ(echo_mismatches.load(), 0u);
  EXPECT_EQ(responses.load(), client_admitted.load());
  EXPECT_EQ(client_other.load(), 0u);

  // Server-side accounting matches the clients' books exactly.
  QaServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, client_admitted.load());
  EXPECT_EQ(stats.completed, client_admitted.load());
  EXPECT_EQ(stats.rejected_overloaded, client_overloaded.load());
  EXPECT_EQ(stats.rejected_unavailable, 0u);
  EXPECT_EQ(stats.admitted + stats.rejected_overloaded,
            kClients * kPerClient);
  EXPECT_EQ(stats.queue_depth, 0u);

  // The registry saw the same totals, and the depth gauge never exceeded
  // the configured capacity.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("serve.admitted").Value(), stats.admitted);
  EXPECT_EQ(registry.GetCounter("serve.completed").Value(), stats.completed);
  EXPECT_EQ(registry.GetCounter("serve.rejected.overloaded").Value(),
            stats.rejected_overloaded);
  EXPECT_LE(registry.GetGauge("serve.queue_depth").Max(),
            static_cast<int64_t>(options.queue_capacity));
  EXPECT_EQ(registry.GetGauge("serve.queue_depth").Value(), 0);
}

// Clients keep submitting while another thread calls Drain(): every
// submission must resolve exactly one way (future ready, Overloaded, or
// Unavailable) with no hangs and no lost requests.
TEST(ServingSoakTest, DrainRacesWithSubmitters) {
  sparql::Endpoint endpoint("mini", MiniKg());
  endpoint.set_injected_latency_ms(1.0);
  core::KgqanEngine engine(ServingConfig());
  QaServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4;
  QaServer server(&engine, &endpoint, options);

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 10;
  std::atomic<size_t> admitted{0};
  std::atomic<size_t> rejected{0};
  std::atomic<size_t> resolved{0};

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = 0; i < kPerClient; ++i) {
        auto future = server.Submit("What is the capital of France?");
        if (future.ok()) {
          admitted.fetch_add(1);
          future->wait();
          resolved.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  std::thread drainer([&] { server.Drain(); });
  for (std::thread& client : clients) client.join();
  drainer.join();
  server.Shutdown();

  EXPECT_EQ(admitted.load() + rejected.load(), kClients * kPerClient);
  EXPECT_EQ(resolved.load(), admitted.load());
  QaServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.completed, admitted.load());
  EXPECT_EQ(stats.rejected_overloaded + stats.rejected_unavailable,
            rejected.load());
}

}  // namespace
}  // namespace kgqan::serve
