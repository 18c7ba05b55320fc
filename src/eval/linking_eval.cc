#include "eval/linking_eval.h"

#include <functional>
#include <unordered_set>

#include "core/linker.h"
#include "qu/pgp.h"
#include "rdf/term.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace kgqan::eval {

namespace {

// Micro-averaged link accuracy: attempted = linker returned a candidate,
// correct = its top candidate equals the gold URI.
struct Tally {
  size_t gold = 0;
  size_t attempted = 0;
  size_t correct = 0;

  Prf ToPrf() const {
    Prf out;
    if (attempted > 0) out.p = double(correct) / double(attempted);
    if (gold > 0) out.r = double(correct) / double(gold);
    out.f1 = (out.p + out.r) > 0 ? 2 * out.p * out.r / (out.p + out.r) : 0.0;
    return out;
  }
};

// Token overlap between two phrases (content tokens, case-insensitive).
size_t Overlap(const std::string& a, const std::string& b) {
  std::vector<std::string> ta = text::ContentTokens(a);
  std::vector<std::string> tb = text::ContentTokens(b);
  std::unordered_set<std::string> sb(tb.begin(), tb.end());
  size_t n = 0;
  for (const std::string& t : ta) {
    if (sb.count(t)) ++n;
  }
  return n;
}

// How one QA system exposes its understanding and linking to the probe.
struct LinkerHooks {
  // Question -> extracted triple patterns (empty = QU failed, which counts
  // against linking recall exactly as the paper describes for gAnswer).
  std::function<qu::TriplePatterns(const std::string&)> extract;
  // Entity phrase -> ranked candidate vertex IRIs.
  std::function<std::vector<std::string>(const std::string&)> link_entity;
  // (relation phrase, anchor vertex IRI) -> ranked candidate predicates.
  std::function<std::vector<std::string>(const std::string&,
                                         const std::string&)>
      link_relation;
};

LinkingScores EvaluateWithHooks(const LinkerHooks& hooks,
                                benchgen::Benchmark& bench) {
  Tally entity, relation;
  for (const benchgen::BenchQuestion& q : bench.questions) {
    qu::TriplePatterns tps = hooks.extract(q.text);

    std::vector<std::string> entity_phrases;
    std::vector<std::string> relation_phrases;
    for (const qu::PhraseTriple& tp : tps) {
      if (!tp.a.is_variable) entity_phrases.push_back(tp.a.label);
      if (!tp.b.is_variable) entity_phrases.push_back(tp.b.label);
      relation_phrases.push_back(tp.relation);
    }
    auto best_match = [&](const std::vector<std::string>& phrases,
                          const std::string& gold_phrase)
        -> const std::string* {
      const std::string* best = nullptr;
      size_t best_overlap = 0;
      for (const std::string& p : phrases) {
        size_t o = Overlap(p, gold_phrase);
        if (o > best_overlap) {
          best_overlap = o;
          best = &p;
        }
      }
      return best;
    };

    const benchgen::GoldLink* anchor_gold = nullptr;
    for (const benchgen::GoldLink& link : q.gold_links) {
      if (!link.is_relation) {
        anchor_gold = &link;
        break;
      }
    }

    for (const benchgen::GoldLink& link : q.gold_links) {
      if (!link.is_relation) {
        ++entity.gold;
        const std::string* phrase = best_match(entity_phrases, link.phrase);
        if (phrase == nullptr) continue;  // QU missed the mention.
        std::vector<std::string> iris = hooks.link_entity(*phrase);
        if (iris.empty()) continue;
        ++entity.attempted;
        if (iris.front() == link.iri) ++entity.correct;
        continue;
      }
      ++relation.gold;
      if (anchor_gold == nullptr) continue;
      const std::string* phrase = best_match(relation_phrases, link.phrase);
      if (phrase == nullptr && relation_phrases.size() == 1) {
        phrase = &relation_phrases.front();  // Single-relation question.
      }
      if (phrase == nullptr) continue;
      // Anchoring at the gold entity isolates relation linking from entity
      // mistakes, as the labelled dataset of [18] does.
      std::vector<std::string> preds =
          hooks.link_relation(*phrase, anchor_gold->iri);
      if (preds.empty()) continue;
      ++relation.attempted;
      if (preds.front() == link.iri) ++relation.correct;
    }
  }
  return LinkingScores{entity.ToPrf(), relation.ToPrf()};
}

// Candidate predicates around a vertex, via the endpoint.
std::vector<std::string> PredicatesAround(sparql::Endpoint& endpoint,
                                          const std::string& iri) {
  std::unordered_set<std::string> cand_set;
  for (const char* pattern : {"SELECT DISTINCT ?p WHERE { <%s> ?p ?o . }",
                              "SELECT DISTINCT ?p WHERE { ?s ?p <%s> . }"}) {
    auto rs = endpoint.Query(util::ReplaceAll(pattern, "%s", iri));
    if (!rs.ok()) continue;
    for (size_t r = 0; r < rs->NumRows(); ++r) {
      const auto& p = rs->At(r, 0);
      if (p.has_value() && p->IsIri()) cand_set.insert(p->value);
    }
  }
  return std::vector<std::string>(cand_set.begin(), cand_set.end());
}

}  // namespace

LinkingScores EvaluateKgqanLinking(const core::KgqanEngine& engine,
                                   benchgen::Benchmark& bench) {
  core::JitLinker linker(&engine.config(), &engine.affinity());
  LinkerHooks hooks;
  hooks.extract = [&](const std::string& q) {
    return engine.generator().Extract(q);
  };
  hooks.link_entity = [&](const std::string& phrase) {
    std::vector<std::string> out;
    for (const core::RelevantVertex& rv :
         linker.LinkEntity(phrase, *bench.endpoint)) {
      out.push_back(rv.iri);
    }
    return out;
  };
  hooks.link_relation = [&](const std::string& phrase,
                            const std::string& anchor_iri) {
    // One-edge PGP anchored at the gold vertex (Alg. 2 setting).
    qu::TriplePatterns tps = {
        {qu::Unknown(1, "unknown"), phrase, qu::EntityPhrase("anchor")}};
    core::Agp agp;
    agp.pgp = qu::Pgp::Build(tps);
    agp.node_vertices.resize(agp.pgp.nodes().size());
    agp.edge_predicates.resize(1);
    for (size_t i = 0; i < agp.pgp.nodes().size(); ++i) {
      if (agp.pgp.nodes()[i].is_unknown) continue;
      agp.node_vertices[i].push_back(core::RelevantVertex{anchor_iri, 1.0});
    }
    std::vector<std::string> out;
    for (const core::RelevantPredicate& rp :
         linker.LinkRelation(agp, agp.pgp.edges()[0], *bench.endpoint)) {
      out.push_back(rp.iri);
    }
    return out;
  };
  return EvaluateWithHooks(hooks, bench);
}

LinkingScores EvaluateGAnswerLinking(baselines::GAnswerLike& system,
                                     benchgen::Benchmark& bench) {
  LinkerHooks hooks;
  hooks.extract = [&](const std::string& q) {
    return system.ExtractQuestion(q);
  };
  hooks.link_entity = [&](const std::string& phrase) {
    return system.LinkEntityPhrase(bench.endpoint->name(), phrase, 3);
  };
  hooks.link_relation = [&](const std::string& phrase,
                            const std::string& anchor_iri) {
    return system.LinkRelationPhrase(*bench.endpoint, anchor_iri, phrase);
  };
  return EvaluateWithHooks(hooks, bench);
}

LinkingScores EvaluateEdgqaLinking(baselines::EdgqaLike& system,
                                   benchgen::Benchmark& bench) {
  LinkerHooks hooks;
  hooks.extract = [&](const std::string& q) {
    return system.ExtractQuestion(q);
  };
  hooks.link_entity = [&](const std::string& phrase) {
    return system.LinkEntityPhrase(bench.endpoint->name(), phrase, 5);
  };
  hooks.link_relation = [&](const std::string& phrase,
                            const std::string& anchor_iri) {
    return system.RankPredicates(PredicatesAround(*bench.endpoint, anchor_iri),
                                 phrase, 5);
  };
  return EvaluateWithHooks(hooks, bench);
}

}  // namespace kgqan::eval
