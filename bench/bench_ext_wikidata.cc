// Extension experiment (not a paper figure) — universality on a fifth KG
// style: Wikidata-like, where *both* entity URIs (Q-ids) and predicate
// URIs (P-ids) are opaque and every description, including the predicate
// labels, must be fetched from the KG itself (the Sec. 5.2 wdg:P227
// fallback).  gAnswer's URI-text index finds nothing; KGQAn works
// unchanged, with no setup of any kind.

#include <cstdio>

#include "bench_common.h"
#include "benchgen/kg.h"
#include "eval/metrics.h"
#include "util/string_util.h"

namespace {

using namespace kgqan;

struct WikidataQuestion {
  std::string text;
  std::vector<rdf::Term> gold;
};

// Hand-rolled question set over the generated facts (the KG flavor is an
// extension; it has no Table 5 composition to follow).
std::vector<WikidataQuestion> MakeQuestions(const benchgen::BuiltKg& kg,
                                            sparql::Endpoint& endpoint,
                                            size_t per_relation) {
  std::vector<WikidataQuestion> questions;
  struct Tpl {
    const char* relation_key;
    const char* pattern;  // %s = subject label.
  };
  constexpr Tpl kTemplates[] = {
      {"spouse", "Who is the spouse of %s?"},
      {"birthPlace", "Where was %s born?"},
      {"birthDate", "When was %s born?"},
      {"capital", "What is the capital of %s?"},
      {"population", "What is the population of %s?"},
      {"mayor", "Who is the mayor of %s?"},
  };
  for (const Tpl& tpl : kTemplates) {
    auto it = kg.facts.find(tpl.relation_key);
    if (it == kg.facts.end()) continue;
    size_t taken = 0;
    for (const benchgen::Fact& f : it->second) {
      if (taken >= per_relation) break;
      // Gold = all objects of (subject, predicate).
      auto rs = endpoint.Query("SELECT DISTINCT ?x WHERE { <" +
                               f.subject.iri + "> <" + f.predicate_iri +
                               "> ?x . }");
      if (!rs.ok() || rs->NumRows() == 0 || rs->NumRows() > 10) continue;
      WikidataQuestion q;
      q.text = util::ReplaceAll(tpl.pattern, "%s", f.subject.label);
      for (size_t r = 0; r < rs->NumRows(); ++r) {
        q.gold.push_back(*rs->At(r, 0));
      }
      questions.push_back(std::move(q));
      ++taken;
    }
  }
  return questions;
}

double MacroF1(core::QaSystem& system, sparql::Endpoint& endpoint,
               const std::vector<WikidataQuestion>& questions) {
  eval::MacroAverager avg;
  for (const WikidataQuestion& q : questions) {
    benchgen::BenchQuestion gold;
    gold.gold_answers = q.gold;
    core::QaResponse resp = system.Answer(q.text, endpoint);
    avg.Add(eval::ScoreQuestion(gold, resp));
  }
  return avg.Average().f1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kgqan;
  double scale = bench::ParseScale(argc, argv);

  benchgen::BuiltKg kg = benchgen::BuildWikidataStyleKg(scale, 77);
  sparql::Endpoint endpoint("wikidata-style", std::move(kg.graph));
  std::vector<WikidataQuestion> questions =
      MakeQuestions(kg, endpoint, /*per_relation=*/15);
  std::printf("Extension: Wikidata-style KG (opaque Q-id entities and P-id "
              "predicates)\n");
  std::printf("[setup] %zu triples, %zu questions\n",
              endpoint.NumTriples(), questions.size());

  core::KgqanEngine kgqan(bench::DefaultEngineConfig());
  baselines::GAnswerLike ganswer;
  baselines::EdgqaLike edgqa;
  ganswer.Preprocess(endpoint);
  edgqa.Preprocess(endpoint);

  bench::PrintRule(64);
  std::printf("%-34s %10s\n", "System", "Macro F1");
  bench::PrintRule(64);
  std::printf("%-34s %10.1f\n", "gAnswer (URI-text index)",
              MacroF1(ganswer, endpoint, questions) * 100);
  std::printf("%-34s %10.1f\n", "EDGQA (label-ensemble index)",
              MacroF1(edgqa, endpoint, questions) * 100);
  std::printf("%-34s %10.1f\n", "KGQAn (no setup of any kind)",
              MacroF1(kgqan, endpoint, questions) * 100);
  bench::PrintRule(64);
  std::printf("Expected shape: gAnswer ~0 (no URI text to index); KGQAn "
              "on top, answering\non demand via the P-id description "
              "fetch of Algorithm 2.\n");
  return 0;
}
