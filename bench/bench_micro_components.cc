// Component micro-benchmarks (google-benchmark): the hot paths of the
// substrate and the KGQAn pipeline stages.  Not a paper figure — these
// support performance work on the library itself.

#include <benchmark/benchmark.h>

#include "benchgen/kg.h"
#include "core/engine.h"
#include "embedding/affinity.h"
#include "qu/triple_pattern_generator.h"
#include "sparql/endpoint.h"
#include "sparql/parser.h"
#include "text/text_index.h"

namespace {

using namespace kgqan;

// Shared fixtures (built once; google-benchmark re-enters main loops).
sparql::Endpoint& SharedEndpoint() {
  static sparql::Endpoint* endpoint = [] {
    benchgen::BuiltKg kg =
        benchgen::BuildGeneralKg(benchgen::KgFlavor::kDbpedia, 1.0, 7);
    return new sparql::Endpoint("micro", std::move(kg.graph));
  }();
  return *endpoint;
}

void BM_StoreFullyBoundLookup(benchmark::State& state) {
  auto& ep = SharedEndpoint();
  const auto& store = ep.store();
  rdf::Triple probe = store.MatchAll(0, 0, 0, 1).front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Contains(probe.s, probe.p, probe.o));
  }
}
BENCHMARK(BM_StoreFullyBoundLookup);

void BM_StoreSubjectScan(benchmark::State& state) {
  auto& ep = SharedEndpoint();
  const auto& store = ep.store();
  rdf::Triple probe = store.MatchAll(0, 0, 0, 1).front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.CountMatches(probe.s, rdf::kNullTermId, rdf::kNullTermId));
  }
}
BENCHMARK(BM_StoreSubjectScan);

void BM_TextIndexLookup(benchmark::State& state) {
  auto& ep = SharedEndpoint();
  auto query = text::ParseContainsQuery("'university' OR 'sea'");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ep.text_index().MatchLiterals(*query, 400));
  }
}
BENCHMARK(BM_TextIndexLookup);

void BM_SparqlParse(benchmark::State& state) {
  const char* q =
      "SELECT DISTINCT ?sea ?c WHERE { <http://a/x> <http://a/p> ?sea . "
      "OPTIONAL { ?sea <http://a/t> ?c . } } LIMIT 40";
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparql::ParseQuery(q));
  }
}
BENCHMARK(BM_SparqlParse);

void BM_SparqlJoinQuery(benchmark::State& state) {
  auto& ep = SharedEndpoint();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ep.Query(
        "SELECT DISTINCT ?p ?m WHERE { ?c "
        "<http://dbpedia.org/ontology/country> ?x . ?c "
        "<http://dbpedia.org/ontology/mayor> ?m . ?c "
        "<http://dbpedia.org/ontology/populationTotal> ?p . } LIMIT 50"));
  }
}
BENCHMARK(BM_SparqlJoinQuery);

void BM_AffinityFineGrained(benchmark::State& state) {
  embed::SemanticAffinity affinity;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        affinity.NormalizedScore("city on the shore", "nearest city"));
  }
}
BENCHMARK(BM_AffinityFineGrained);

// The linker's shape: the node label is prepared once per probe, each
// candidate description is prepared fresh and scored against it.
void BM_AffinityPrepared(benchmark::State& state) {
  embed::SemanticAffinity affinity;
  const embed::SemanticAffinity::Phrase label =
      affinity.Prepare("city on the shore");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        affinity.NormalizedScore(label, affinity.Prepare("nearest city")));
  }
}
BENCHMARK(BM_AffinityPrepared);

void BM_QuExtraction(benchmark::State& state) {
  qu::TriplePatternGenerator::Options opts;
  opts.inference.enabled = false;  // Measure extraction only.
  qu::TriplePatternGenerator gen(opts);
  const char* q =
      "Name the sea into which Danish Straits flows and has Kaliningrad as "
      "one of the city on the shore.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Extract(q));
  }
}
BENCHMARK(BM_QuExtraction);

void BM_QuInferenceShim(benchmark::State& state) {
  qu::InferenceShim shim(qu::InferenceShim::Config{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(shim.Run(16));
  }
}
BENCHMARK(BM_QuInferenceShim);

void BM_EndToEndQuestion(benchmark::State& state) {
  auto& ep = SharedEndpoint();
  core::KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  core::KgqanEngine engine(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.AnswerFull("What is the capital of Veltania?", ep));
  }
}
BENCHMARK(BM_EndToEndQuestion);

}  // namespace

BENCHMARK_MAIN();
