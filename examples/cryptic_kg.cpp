// Universality on opaque URIs: KGQAn versus a gAnswer-style baseline on a
// MAG-like knowledge graph whose entity URIs are numeric codes (e.g.
// makg:2279569217).  The baseline's URI-text index is useless here, while
// KGQAn's JIT linking works through the descriptions attached via
// foaf:name — the Sec. 7.2.3 result in miniature.
//
//   $ ./examples/cryptic_kg

#include <cstdio>

#include "baselines/ganswer_like.h"
#include "benchgen/kg.h"
#include "core/engine.h"
#include "sparql/endpoint.h"

int main() {
  using namespace kgqan;

  benchgen::BuiltKg kg =
      benchgen::BuildScholarlyKg(benchgen::KgFlavor::kMag, 0.05, 7);
  const benchgen::Fact fact = kg.facts.at("author").front();
  sparql::Endpoint endpoint("mag-demo", std::move(kg.graph));
  std::printf("MAG-style endpoint: %zu triples; example entity URI: <%s>\n",
              endpoint.NumTriples(), fact.subject.iri.c_str());

  std::string question =
      "Who wrote the paper \"" + fact.subject.label + "\"?";
  std::printf("\nQ: %s\n", question.c_str());

  // gAnswer-style baseline: must pre-process, and its index is built from
  // URI text, which is numeric here.
  baselines::GAnswerLike ganswer;
  auto stats = ganswer.Preprocess(endpoint);
  std::printf("\n[gAnswer] pre-processing took %.2fs, index %.1f MB\n",
              stats.seconds, stats.index_bytes / 1e6);
  core::QaResponse baseline_resp = ganswer.Answer(question, endpoint);
  std::printf("[gAnswer] answers: %zu (understood: %s)\n",
              baseline_resp.answers.size(),
              baseline_resp.understood ? "yes" : "no");

  // KGQAn: on demand, no pre-processing.
  core::KgqanEngine engine;
  core::QaResponse resp = engine.Answer(question, endpoint);
  std::printf("\n[KGQAn] pre-processing: none\n");
  std::printf("[KGQAn] answers: %zu\n", resp.answers.size());
  for (const rdf::Term& a : resp.answers) {
    std::printf("[KGQAn] A: %s\n", rdf::ToNTriples(a).c_str());
  }
  std::printf("[KGQAn] expected gold: %s\n", fact.object.value.c_str());
  return 0;
}
