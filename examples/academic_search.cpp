// Academic search: KGQAn answering scholarly questions against a
// DBLP-style knowledge graph it has never seen before — paper titles as
// long quoted phrases, key-style URIs, dc:title / foaf:name descriptions.
//
//   $ ./examples/academic_search

#include <cstdio>
#include <vector>

#include "benchgen/kg.h"
#include "core/engine.h"
#include "sparql/endpoint.h"

int main() {
  using namespace kgqan;

  // A synthetic DBLP-like KG (papers, authors, venues, institutions).
  benchgen::BuiltKg kg =
      benchgen::BuildScholarlyKg(benchgen::KgFlavor::kDblp, 1.0, 42);
  // Keep a few real facts around so the demo questions have known answers.
  const benchgen::Fact paper_fact = kg.facts.at("author").front();
  const benchgen::Fact affiliation_fact = kg.facts.at("affiliation").front();

  sparql::Endpoint endpoint("dblp-demo", std::move(kg.graph));
  std::printf("DBLP-style endpoint: %zu triples.\n\n",
              endpoint.NumTriples());

  core::KgqanEngine engine;
  std::vector<std::string> questions = {
      "Who wrote the paper \"" + paper_fact.subject.label + "\"?",
      "When was the paper \"" + paper_fact.subject.label + "\" published?",
      "Which venue published the paper \"" + paper_fact.subject.label +
          "\"?",
      "Which institution is " + affiliation_fact.subject.label +
          " affiliated with?",
      "Which institution is the affiliation of the author of \"" +
          paper_fact.subject.label + "\"?",
  };
  for (const std::string& q : questions) {
    std::printf("Q: %s\n", q.c_str());
    core::QaResponse resp = engine.Answer(q, endpoint);
    if (resp.answers.empty()) {
      std::printf("A: (no answers)\n\n");
      continue;
    }
    for (const rdf::Term& a : resp.answers) {
      std::printf("A: %s\n", rdf::ToNTriples(a).c_str());
    }
    std::printf("   (QU %.1fms, linking %.1fms, exec %.1fms)\n\n",
                resp.timings.qu_ms, resp.timings.linking_ms,
                resp.timings.execution_ms);
  }
  return 0;
}
