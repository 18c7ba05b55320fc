// Race coverage for the answer cache (run under TSan in CI, alongside
// sharding_concurrency_test): raw Get/Put/Clear hammering across shards,
// and the racing-update scenario the generation key exists for — live
// AddNTriples calls bumping the endpoint generation while engine readers
// answer the affected question through the cache.  Readers must never see
// an answer outside the set of states the KG actually passed through, and
// once the writer is done the cached engine must agree exactly with a
// never-cached engine.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/answer_cache.h"
#include "core/config.h"
#include "core/engine.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "sparql/endpoint.h"
#include "sparql/result_set.h"
#include "util/rng.h"

namespace kgqan::core {
namespace {

using rdf::StringLiteral;

constexpr const char* kDbr = "http://dbpedia.org/resource/";
constexpr const char* kDbo = "http://dbpedia.org/ontology/";
constexpr const char* kLabel = "http://www.w3.org/2000/01/rdf-schema#label";
constexpr const char* kType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

std::string R(const std::string& x) { return kDbr + x; }
std::string O(const std::string& x) { return kDbo + x; }

rdf::Graph MiniKg() {
  rdf::Graph g;
  auto label = [&](const std::string& iri, const std::string& text) {
    g.AddIri(iri, kLabel, StringLiteral(text));
  };
  g.AddIris(R("Barack_Obama"), O("spouse"), R("Michelle_Obama"));
  g.AddIris(R("Barack_Obama"), kType, O("Person"));
  g.AddIris(R("Michelle_Obama"), kType, O("Person"));
  label(R("Barack_Obama"), "Barack Obama");
  label(R("Michelle_Obama"), "Michelle Obama");
  return g;
}

KgqanConfig CachedConfig() {
  KgqanConfig cfg;
  cfg.num_threads = 1;
  cfg.qu.inference.enabled = false;
  cfg.answer_cache = true;
  cfg.answer_cache_capacity = 64;
  cfg.answer_cache_shards = 4;
  return cfg;
}

std::shared_ptr<const sparql::ResultSet> OneRow(const std::string& iri) {
  auto rs = std::make_shared<sparql::ResultSet>(
      std::vector<std::string>{"v0"});
  rs->AddRow({rdf::Iri(iri)});
  return rs;
}

TEST(AnswerCacheConcurrencyTest, HammerGetPutClearAcrossShards) {
  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 2000;
  constexpr size_t kKeySpace = 100;
  AnswerCache cache(/*capacity=*/32, /*shards=*/4);
  std::atomic<size_t> lookups{0};
  std::atomic<bool> corrupt_value{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &lookups, &corrupt_value, t] {
      util::Rng rng(0xC0FFEEu + t);
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        std::string key =
            "k" + std::to_string(rng.UniformInt(0, kKeySpace - 1));
        std::string kg = rng.UniformInt(0, 1) == 0 ? "kg#0" : "kg#1";
        switch (rng.UniformInt(0, 9)) {
          case 0:
            cache.Clear();
            break;
          case 1:
          case 2:
          case 3:
            cache.Put(key, kg, OneRow(R("E" + key)));
            break;
          default: {
            auto hit = cache.Get(key, kg);
            lookups.fetch_add(1, std::memory_order_relaxed);
            if (hit != nullptr &&
                (hit->NumRows() != 1 ||
                 (*hit->At(0, 0)).value != R("E" + key))) {
              // Values are immutable and shared: a racing Clear/eviction
              // must never invalidate a handed-out result.
              corrupt_value.store(true);
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(corrupt_value.load());
  AnswerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_LE(stats.entries, 32u);
}

// The generation race: a writer commits AddNTriples updates (each adds one
// more spouse) while readers answer the affected question through the
// cache.  Every observed answer must come from a state the KG actually
// passed through — never a mix — and the final cached answer must equal a
// never-cached engine's.
TEST(AnswerCacheConcurrencyTest, RacingEndpointUpdatesNeverServeStale) {
  constexpr size_t kUpdates = 4;
  constexpr size_t kReaders = 4;
  constexpr size_t kAsksPerReader = 12;
  const std::string question = "Who is the spouse of Barack Obama?";

  sparql::Endpoint endpoint("mini", MiniKg());
  KgqanEngine cached(CachedConfig());

  // The IRIs a spouse answer may legitimately contain, in commit order.
  std::vector<std::string> spouses = {R("Michelle_Obama")};
  for (size_t i = 0; i < kUpdates; ++i) {
    spouses.push_back(R("Spouse_" + std::to_string(i)));
  }

  std::atomic<bool> bad_answer{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (size_t i = 0; i < kAsksPerReader; ++i) {
        QaResponse response = cached.Answer(question, endpoint);
        for (const rdf::Term& term : response.answers) {
          bool known = false;
          for (const std::string& iri : spouses) known |= term.value == iri;
          if (!known) bad_answer.store(true);
        }
      }
    });
  }
  std::thread writer([&] {
    for (size_t i = 0; i < kUpdates; ++i) {
      std::string name = "Spouse_" + std::to_string(i);
      std::string update = "<" + R("Barack_Obama") + "> <" + O("spouse") +
                           "> <" + R(name) + "> .\n<" + R(name) + "> <" +
                           kType + "> <" + O("Person") + "> .\n<" + R(name) +
                           "> <" + kLabel + "> \"" + name + "\" .\n";
      auto added = endpoint.AddNTriples(update);
      EXPECT_TRUE(added.ok());
    }
  });
  for (std::thread& reader : readers) reader.join();
  writer.join();
  EXPECT_FALSE(bad_answer.load());

  // Quiesced: the cached engine and a fresh uncached engine must agree
  // exactly on the final state — a stale cached entry surviving the last
  // generation bump would show up right here.
  KgqanConfig uncached_config = CachedConfig();
  uncached_config.answer_cache = false;
  KgqanEngine uncached(uncached_config);
  QaResponse final_cached = cached.Answer(question, endpoint);
  QaResponse final_uncached = uncached.Answer(question, endpoint);
  std::multiset<std::string> cached_set, uncached_set;
  for (const rdf::Term& term : final_cached.answers) {
    cached_set.insert(rdf::ToNTriples(term));
  }
  for (const rdf::Term& term : final_uncached.answers) {
    uncached_set.insert(rdf::ToNTriples(term));
  }
  EXPECT_EQ(cached_set, uncached_set);
  EXPECT_FALSE(cached_set.empty());
}

}  // namespace
}  // namespace kgqan::core
