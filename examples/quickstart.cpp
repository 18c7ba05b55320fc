// Quickstart: load a small RDF graph from N-Triples, bring up an
// in-process SPARQL endpoint, and ask KGQAn the paper's running example
// q^E — with no pre-processing of any kind.
//
//   $ ./examples/quickstart

#include <cstdio>
#include <string>

#include "core/engine.h"
#include "rdf/ntriples.h"
#include "sparql/endpoint.h"

int main() {
  using namespace kgqan;

  // A miniature slice of DBpedia around the running example q^E (Fig. 1).
  const std::string ntriples = R"(
<http://dbpedia.org/resource/Danish_Straits> <http://www.w3.org/2000/01/rdf-schema#label> "Danish Straits" .
<http://dbpedia.org/resource/Danish_Straits> <http://dbpedia.org/property/outflow> <http://dbpedia.org/resource/Baltic_Sea> .
<http://dbpedia.org/resource/Baltic_Sea> <http://www.w3.org/2000/01/rdf-schema#label> "Baltic Sea" .
<http://dbpedia.org/resource/Baltic_Sea> <http://dbpedia.org/ontology/nearestCity> <http://dbpedia.org/resource/Kaliningrad> .
<http://dbpedia.org/resource/Baltic_Sea> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Sea> .
<http://dbpedia.org/resource/North_Sea> <http://www.w3.org/2000/01/rdf-schema#label> "North Sea" .
<http://dbpedia.org/resource/North_Sea> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Sea> .
<http://dbpedia.org/resource/Kaliningrad> <http://www.w3.org/2000/01/rdf-schema#label> "Kaliningrad" .
<http://dbpedia.org/resource/Yantar_Kaliningrad> <http://www.w3.org/2000/01/rdf-schema#label> "Yantar, Kaliningrad" .
<http://dbpedia.org/resource/Kaliningrad> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/City> .
)";

  auto graph = rdf::ParseNTriples(ntriples);
  if (!graph.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  sparql::Endpoint endpoint("quickstart", std::move(graph).value());
  std::printf("Endpoint '%s' serving %zu triples.\n",
              endpoint.name().c_str(), endpoint.NumTriples());

  core::KgqanEngine engine;  // Universal: nothing is configured per KG.
  const std::string question =
      "Name the sea into which Danish Straits flows and has Kaliningrad as "
      "one of the city on the shore.";
  std::printf("\nQ: %s\n", question.c_str());

  core::KgqanResult result = engine.AnswerFull(question, endpoint);
  std::printf("understood:      %s\n",
              result.response.understood ? "yes" : "no");
  std::printf("PGP:             %s\n", result.pgp.DebugString().c_str());
  std::printf("answer type:     %s (%s)\n",
              nlp::AnswerDataTypeName(result.answer_type.data_type),
              result.answer_type.semantic_type.c_str());
  std::printf("queries tried:   %zu of %zu generated\n",
              result.queries_executed, result.queries_generated);
  for (const rdf::Term& answer : result.response.answers) {
    std::printf("A: %s\n", rdf::ToNTriples(answer).c_str());
  }
  if (result.response.answers.empty()) std::printf("A: (no answers)\n");
  return 0;
}
