// Component micro-benchmarks (google-benchmark): the hot paths of the
// substrate and the KGQAn pipeline stages.  Not a paper figure — these
// support performance work on the library itself.

#include <benchmark/benchmark.h>

#include <string>

#include "benchgen/kg.h"
#include "core/agp.h"
#include "core/bgp.h"
#include "core/engine.h"
#include "embedding/affinity.h"
#include "qu/triple_pattern_generator.h"
#include "sparql/endpoint.h"
#include "sparql/lexer.h"
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

// An Alg. 3 candidate as the engine renders it: two patterns plus the
// OPTIONAL rdf:type clause, 23 tokens.
constexpr const char* kCandidateSparql =
    "SELECT DISTINCT ?u1 ?c WHERE {\n"
    "  <http://dbpedia.org/resource/Danish_Straits> "
    "<http://dbpedia.org/property/outflow> ?u1 .\n"
    "  ?u1 <http://dbpedia.org/ontology/nearestCity> "
    "<http://dbpedia.org/resource/Kaliningrad> .\n"
    "  OPTIONAL { ?u1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?c . "
    "}\n}\n";

void BM_SparqlLex(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparql::Lex(kCandidateSparql));
  }
}
BENCHMARK(BM_SparqlLex);

// A two-edge star ?u1 - A, ?u1 - B with 24 and 17 relevant predicates
// anchored at A and B: 24 x 17 consistent combinations, top 40 kept.
void BM_BgpGenerate(benchmark::State& state) {
  core::Agp agp;
  agp.pgp = qu::Pgp::Build(
      {{qu::Unknown(1), "flows into", qu::EntityPhrase("A")},
       {qu::Unknown(1), "near", qu::EntityPhrase("B")}});
  const auto& nodes = agp.pgp.nodes();
  agp.node_vertices.resize(nodes.size());
  agp.edge_predicates.resize(2);
  for (size_t e = 0; e < 2; ++e) {
    const size_t anchor = agp.pgp.edges()[e].b;
    const std::string vertex =
        "http://dbpedia.org/resource/Anchor_" + std::to_string(e);
    agp.node_vertices[anchor] = {{vertex, 0.9}};
    const int predicates = e == 0 ? 24 : 17;
    for (int p = 0; p < predicates; ++p) {
      core::RelevantPredicate rp;
      rp.iri = "http://dbpedia.org/ontology/predicate" + std::to_string(p);
      rp.score = 1.0 / (1.0 + p % 7);
      rp.anchor_iri = vertex;
      rp.anchor_node = anchor;
      rp.vertex_is_object = p % 2 == 0;
      agp.edge_predicates[e].push_back(std::move(rp));
    }
  }
  core::KgqanConfig config;
  core::BgpGenerator generator(&config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate(agp));
  }
}
BENCHMARK(BM_BgpGenerate);

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
