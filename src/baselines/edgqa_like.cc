#include "baselines/edgqa_like.h"

#include <algorithm>
#include <unordered_set>

#include "core/bgp.h"
#include "core/config.h"
#include "core/linker.h"
#include "qu/pgp.h"
#include "rdf/term.h"
#include "text/tokenizer.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace kgqan::baselines {

namespace {

RuleQuOptions EdgqaRules() {
  RuleQuOptions opts;
  // Curated on both LC-QuAD 1.0 and QALD-9 templates.
  opts.handle_imperatives = true;
  opts.handle_how_many = true;
  opts.handle_quotes = true;
  opts.max_quote_tokens = 3;  // Long titles are truncated (Sec. 7.2.3).
  opts.max_entity_tokens = 3;
  opts.handle_and_split = true;
  opts.handle_paths = true;
  opts.strict_templates = true;
  return opts;
}

constexpr const char* kRdfsLabel =
    "http://www.w3.org/2000/01/rdf-schema#label";

}  // namespace

EdgqaLike::EdgqaLike() : qu_(EdgqaRules()) {}

void EdgqaLike::ConfigureLabelPredicates(
    const std::string& endpoint_name, std::vector<std::string> predicates) {
  label_predicates_[endpoint_name] = std::move(predicates);
}

EdgqaLike::PreprocessStats EdgqaLike::Preprocess(sparql::Endpoint& endpoint) {
  util::Stopwatch watch;
  std::vector<std::string> preds{kRdfsLabel};
  auto cfg = label_predicates_.find(endpoint.name());
  if (cfg != label_predicates_.end()) preds = cfg->second;
  auto index = std::make_unique<LabelEnsembleIndex>();
  index->Build(endpoint, preds);
  PreprocessStats stats;
  stats.seconds = watch.ElapsedSeconds();
  stats.index_bytes = index->ApproxBytes();
  indexes_[endpoint.name()] = std::move(index);
  return stats;
}

std::vector<std::string> EdgqaLike::LinkEntityPhrase(
    const std::string& endpoint_name, const std::string& phrase,
    size_t limit) const {
  auto it = indexes_.find(endpoint_name);
  if (it == indexes_.end()) return {};
  return it->second->Lookup(phrase, limit);
}

std::vector<std::string> EdgqaLike::RankPredicates(
    const std::vector<std::string>& predicates,
    const std::string& relation_phrase, size_t limit) const {
  const embed::SemanticAffinity::Phrase relation =
      affinity_.Prepare(relation_phrase);
  std::vector<std::pair<double, std::string>> ranked;
  for (const std::string& p : predicates) {
    std::string desc = util::Join(
        util::SplitIdentifierWords(rdf::IriLocalName(p)), " ");
    ranked.emplace_back(
        affinity_.NormalizedScore(relation, affinity_.Prepare(desc)), p);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<std::string> out;
  for (const auto& [s, p] : ranked) {
    (void)s;
    out.push_back(p);
    if (out.size() >= limit) break;
  }
  return out;
}

core::QaResponse EdgqaLike::Answer(const std::string& question,
                                   sparql::Endpoint& endpoint) {
  core::QaResponse resp;
  util::Stopwatch watch;

  qu::TriplePatterns triples = qu_.Extract(question);
  std::string type_word = qu_.TypeWord(question);
  resp.timings.qu_ms = watch.ElapsedMillis();
  if (triples.empty()) return resp;
  resp.understood = true;
  qu::Pgp pgp = qu::Pgp::Build(triples);
  resp.is_boolean = pgp.IsBoolean();

  // ---- Linking: ensemble entity index + semantic predicate ranking. ----
  watch.Restart();
  core::Agp agp;
  agp.pgp = pgp;
  agp.node_vertices.resize(pgp.nodes().size());
  agp.edge_predicates.resize(pgp.edges().size());
  auto index_it = indexes_.find(endpoint.name());
  for (size_t i = 0; i < pgp.nodes().size(); ++i) {
    const qu::Pgp::Node& node = pgp.nodes()[i];
    if (node.is_unknown || index_it == indexes_.end()) continue;
    std::vector<std::string> iris =
        index_it->second->Lookup(node.label, 5);
    for (size_t r = 0; r < iris.size(); ++r) {
      // Rank-derived confidence: the ensemble puts exact matches first.
      agp.node_vertices[i].push_back(
          core::RelevantVertex{iris[r], 1.0 / (1.0 + double(r))});
    }
  }
  // Relation linking reuses the semantic ranking machinery (its BERT-based
  // ranker plays the same role); unknown-unknown edges are resolved by
  // sub-question decomposition, i.e. vertex derivation.
  core::KgqanConfig link_cfg;
  link_cfg.top_k_predicates = 10;
  core::JitLinker linker(&link_cfg, &affinity_);
  std::vector<size_t> pending;
  for (size_t e = 0; e < pgp.edges().size(); ++e) {
    const qu::Pgp::Edge& edge = pgp.edges()[e];
    if (agp.node_vertices[edge.a].empty() &&
        agp.node_vertices[edge.b].empty()) {
      pending.push_back(e);
      continue;
    }
    agp.edge_predicates[e] = linker.LinkRelation(agp, edge, e, endpoint);
  }
  for (size_t e : pending) {
    const qu::Pgp::Edge& edge = pgp.edges()[e];
    for (size_t node : {edge.a, edge.b}) {
      if (agp.node_vertices[node].empty()) {
        linker.DeriveUnknownVertices(&agp, node, endpoint);
      }
    }
    agp.edge_predicates[e] = linker.LinkRelation(agp, edge, e, endpoint);
  }
  resp.timings.linking_ms = watch.ElapsedMillis();

  // ---- Execution with in-query type filtering. ----
  watch.Restart();
  core::BgpGenerator bgp_gen(&link_cfg);
  std::vector<core::Bgp> bgps = bgp_gen.Generate(agp);

  if (resp.is_boolean) {
    for (const core::Bgp& bgp : bgps) {
      auto rs = endpoint.Query(core::BgpGenerator::ToAskSparql(bgp));
      if (rs.ok() && rs->is_ask() && rs->ask_value()) {
        resp.boolean_answer = true;
        break;
      }
    }
    resp.timings.execution_ms = watch.ElapsedMillis();
    return resp;
  }

  auto main_unknown = pgp.MainUnknown();
  if (!main_unknown.has_value()) {
    resp.timings.execution_ms = watch.ElapsedMillis();
    return resp;
  }
  std::string var = "u";
  var += std::to_string(pgp.nodes()[*main_unknown].var_id);
  for (const core::Bgp& bgp : bgps) {
    auto rs = endpoint.Query(core::BgpGenerator::ToSelectSparql(bgp, var));
    if (!rs.ok() || rs->NumRows() == 0) continue;
    auto a_col = rs->ColumnIndex(var);
    auto c_col = rs->ColumnIndex("c");
    if (!a_col.has_value()) continue;
    std::vector<rdf::Term> answers;
    std::unordered_set<std::string> seen;
    for (size_t r = 0; r < rs->NumRows(); ++r) {
      const auto& a = rs->At(r, *a_col);
      if (!a.has_value()) continue;
      // "Filtering by index type": strict token match between the
      // question's type word and the answer's class local name.
      if (!type_word.empty() && c_col.has_value()) {
        const auto& c = rs->At(r, *c_col);
        if (c.has_value() && c->IsIri()) {
          std::vector<std::string> class_words =
              util::SplitIdentifierWords(rdf::IriLocalName(c->value));
          bool match = std::find(class_words.begin(), class_words.end(),
                                 util::ToLower(type_word)) !=
                       class_words.end();
          if (!match) continue;
        }
      }
      if (seen.insert(rdf::ToNTriples(*a)).second) answers.push_back(*a);
    }
    if (answers.empty()) continue;
    resp.answers = std::move(answers);
    break;
  }
  resp.timings.execution_ms = watch.ElapsedMillis();
  return resp;
}

}  // namespace kgqan::baselines
