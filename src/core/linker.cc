#include "core/linker.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/tokenizer.h"
#include "util/cancel.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace kgqan::core {

namespace {

// Registry instrumentation for the two linking algorithms (shared across
// engines; resolved once).
obs::Histogram& EntityLinkLatency() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("linker.entity_link_ms");
  return histogram;
}

obs::Histogram& RelationLinkLatency() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("linker.relation_link_ms");
  return histogram;
}

using Phrase = embed::SemanticAffinity::Phrase;

// affinity.Prepared(text) for a phrase that must outlive later calls: one
// prepared past the memo's capacity is kept in its own `scratch` slot.
const Phrase& PreparedKept(const embed::SemanticAffinity& affinity,
                           std::string_view text, std::deque<Phrase>* scratch) {
  if (scratch->empty()) scratch->emplace_back();
  const Phrase& phrase = affinity.Prepared(text, &scratch->back());
  if (&phrase == &scratch->back()) scratch->emplace_back();
  return phrase;
}

// Truncates a scored vector to its top-k by score (stable for ties).
template <typename T>
void KeepTopK(std::vector<T>& items, size_t k) {
  std::stable_sort(items.begin(), items.end(),
                   [](const T& a, const T& b) { return a.score > b.score; });
  if (items.size() > k) items.resize(k);
}

}  // namespace

std::string JitLinker::TextContainsExpr(const std::string& label) {
  // Q(l_n): disjunction of the label's content words (Sec. 5.1).
  std::vector<std::string> words = text::ContentTokens(label);
  std::string expr;
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) expr += " OR ";
    expr += "'" + words[i] + "'";
  }
  return expr;
}

std::string JitLinker::PotentialRelevantVerticesQuery(
    const std::string& label, size_t max_vr) {
  return "SELECT ?v ?p ?d WHERE { ?v ?p ?d . ?d <bif:contains> \"" +
         TextContainsExpr(label) + "\" . } LIMIT " + std::to_string(max_vr);
}

std::vector<RelevantVertex> JitLinker::LinkEntity(
    const std::string& label, sparql::Endpoint& endpoint) const {
  // Cache hits are spans too, so a trace shows every node's linking.
  obs::ScopedSpan span("linking.entity");
  span.AddAttribute("label", label);
  std::string kg;
  if (cache_ != nullptr) {
    kg = endpoint.cache_identity();
    if (auto cached = cache_->GetVertices(label, kg); cached.has_value()) {
      span.AddAttribute("cached", "true");
      return *std::move(cached);
    }
  }
  span.AddAttribute("cached", "false");
  std::vector<RelevantVertex> out = LinkEntityUncached(label, endpoint);
  if (cache_ != nullptr && !util::Cancelled()) {
    cache_->PutVertices(label, kg, out);
  }
  return out;
}

std::vector<RelevantVertex> JitLinker::LinkEntityUncached(
    const std::string& label, sparql::Endpoint& endpoint) const {
  std::vector<RelevantVertex> out;
  if (label.empty()) return out;
  struct LatencyRecorder {
    util::Stopwatch watch;
    ~LatencyRecorder() { EntityLinkLatency().Record(watch.ElapsedMillis()); }
  } recorder;
  auto rs = [&] {
    obs::ScopedSpan probe_span("linking.text_probe");
    return endpoint.Query(
        PotentialRelevantVerticesQuery(label, config_->max_fetched_vertices));
  }();
  if (!rs.ok()) return out;

  auto v_col = rs->ColumnIndex("v");
  auto d_col = rs->ColumnIndex("d");
  if (!v_col.has_value() || !d_col.has_value()) return out;
  // Views into the result set, which outlives the scoring.
  std::vector<std::pair<std::string_view, std::string_view>> rows;
  rows.reserve(rs->NumRows());
  for (size_t r = 0; r < rs->NumRows(); ++r) {
    const auto& v = rs->At(r, *v_col);
    const auto& d = rs->At(r, *d_col);
    if (!v.has_value() || !d.has_value()) continue;
    if (!v->IsIri()) continue;
    rows.emplace_back(v->value, d->value);
  }
  return ScoreEntityRows(label, rows);
}

std::vector<RelevantVertex> JitLinker::ScoreEntityRows(
    const std::string& label,
    const std::vector<std::pair<std::string_view, std::string_view>>& rows)
    const {
  // Best affinity per vertex across its descriptions.  The label is
  // embedded once per probe, and the probe's distinct descriptions
  // (probes often return the same literal under several predicates or
  // vertices) are prepared once per affinity object via its memo and
  // scored in one batch.  `best` is filled in row order and hashes its
  // keys as a std::string map would, so ties keep their rank.
  std::unordered_map<std::string_view, double> best;
  {
    obs::ScopedSpan span("linking.affinity");
    const Phrase prepared_label = affinity_->Prepare(label);
    std::deque<Phrase> scratch;  // Phrases past the memo, until scored.
    std::unordered_map<std::string_view, size_t> by_description;
    std::vector<const Phrase*> phrases;
    std::vector<size_t> row_phrase;
    row_phrase.reserve(rows.size());
    for (const auto& [v_iri, d_value] : rows) {
      auto [it, fresh] = by_description.try_emplace(d_value, phrases.size());
      if (fresh) {
        phrases.push_back(&PreparedKept(*affinity_, d_value, &scratch));
      }
      row_phrase.push_back(it->second);
    }
    std::vector<double> scores;
    affinity_->NormalizedScores(prepared_label, phrases, &scores);
    for (size_t r = 0; r < rows.size(); ++r) {
      const double score = scores[row_phrase[r]];
      auto [it, inserted] = best.emplace(rows[r].first, score);
      if (!inserted && score > it->second) it->second = score;
    }
  }
  std::vector<RelevantVertex> out;
  out.reserve(best.size());
  for (const auto& [iri, score] : best) {
    out.push_back(RelevantVertex{std::string(iri), score});
  }
  KeepTopK(out, config_->top_k_vertices);
  return out;
}

std::string JitLinker::PredicateDescription(const std::string& iri,
                                            sparql::Endpoint& endpoint) const {
  if (rdf::IsHumanReadableIri(iri)) {
    // d_p = p: the URI's local name, split into words ("nearestCity" ->
    // "nearest city").
    return util::Join(util::SplitIdentifierWords(rdf::IriLocalName(iri)),
                      " ");
  }
  // Cryptic predicate (e.g. wdg:P227): fetch its description from the KG.
  std::string kg;
  if (cache_ != nullptr) {
    kg = endpoint.cache_identity();
    if (auto cached = cache_->GetPredicateDescription(iri, kg);
        cached.has_value()) {
      return *std::move(cached);
    }
  }
  std::string description(rdf::IriLocalName(iri));
  auto rs = endpoint.Query("SELECT ?d WHERE { <" + iri +
                           "> ?lp ?d . } LIMIT 8");
  if (rs.ok()) {
    for (size_t r = 0; r < rs->NumRows(); ++r) {
      const auto& d = rs->At(r, 0);
      if (d.has_value() && d->IsLiteral() &&
          (d->IsStringLiteral() || !d->lang.empty())) {
        description = d->value;
        break;
      }
    }
  }
  if (cache_ != nullptr && !util::Cancelled()) {
    cache_->PutPredicateDescription(iri, kg, description);
  }
  return description;
}

std::vector<RelevantPredicate> JitLinker::LinkRelation(
    const Agp& agp, const qu::Pgp::Edge& edge,
    sparql::Endpoint& endpoint) const {
  obs::ScopedSpan span("linking.relation");
  span.AddAttribute("label", edge.label);
  std::vector<RelevantPredicate> out;

  // T_rv: union of relevant vertices of the two endpoints, remembering
  // which node each vertex annotates.
  std::vector<std::pair<const std::string*, size_t>> anchor_vertices;
  for (size_t node : {edge.a, edge.b}) {
    for (const RelevantVertex& rv : agp.node_vertices[node]) {
      anchor_vertices.emplace_back(&rv.iri, node);
    }
  }

  // outgoingPredicate(v) and incomingPredicate(v) (Sec. 5.2); both
  // directions because the PGP is undirected.  One endpoint request per
  // (anchor, direction) that the anchor table cannot answer, issued in
  // walk order.  Each probe is DISTINCT ?p, so a pair contributes its
  // predicates once: a repeated (anchor, direction) is skipped once walked,
  // i.e. after a hit or a successful probe.  Each distinct predicate is
  // described at its first encounter and scored once, after the walk.
  const std::string kg =
      cache_ != nullptr ? endpoint.cache_identity() : std::string();
  std::unordered_map<std::string, double> scores;
  // Per distinct predicate, in first-encounter order: its score slot in
  // `scores` and its description.
  std::vector<std::pair<double*, std::string>> unscored;
  std::vector<std::pair<const std::string*, bool>> walked;
  std::vector<std::string_view> predicates;
  size_t probes = 0;
  for (const auto& [v_iri, node] : anchor_vertices) {
    for (bool vertex_is_object : {false, true}) {
      const bool repeated = std::any_of(
          walked.begin(), walked.end(), [&](const auto& pair) {
            return pair.second == vertex_is_object && *pair.first == *v_iri;
          });
      if (repeated) continue;
      // Probe rows (when probed) back the views in `predicates` until the
      // next pair.
      std::optional<sparql::ResultSet> rs;
      if (cache_ == nullptr || !cache_->GetAnchorPredicates(
                                   *v_iri, vertex_is_object, kg,
                                   &predicates)) {
        std::string query =
            vertex_is_object
                ? "SELECT DISTINCT ?p WHERE { ?sub ?p <" + *v_iri + "> . }"
                : "SELECT DISTINCT ?p WHERE { <" + *v_iri + "> ?p ?obj . }";
        ++probes;
        auto probed = [&] {
          obs::ScopedSpan probe_span("linking.predicate_probe");
          return endpoint.Query(query);
        }();
        if (!probed.ok()) continue;
        rs = std::move(probed).value();
        predicates.clear();
        for (size_t r = 0; r < rs->NumRows(); ++r) {
          const auto& p = rs->At(r, 0);
          if (p.has_value() && p->IsIri()) predicates.push_back(p->value);
        }
        if (cache_ != nullptr && !util::Cancelled()) {
          cache_->PutAnchorPredicates(*v_iri, vertex_is_object, kg,
                                      predicates);
        }
      }
      walked.emplace_back(v_iri, vertex_is_object);
      for (std::string_view p_iri : predicates) {
        auto [it, fresh] = scores.try_emplace(std::string(p_iri), 0.0);
        if (fresh) {
          unscored.emplace_back(&it->second,
                                PredicateDescription(it->first, endpoint));
        }
        RelevantPredicate rp;
        rp.iri = it->first;
        rp.anchor_iri = *v_iri;
        rp.anchor_node = node;
        rp.vertex_is_object = vertex_is_object;
        out.push_back(std::move(rp));
      }
    }
  }

  {
    obs::ScopedSpan affinity_span("linking.affinity");
    const Phrase prepared_label = affinity_->Prepare(edge.label);
    std::deque<Phrase> scratch;  // Phrases past the memo, until scored.
    std::vector<const Phrase*> phrases;
    phrases.reserve(unscored.size());
    for (const auto& [score, description] : unscored) {
      phrases.push_back(&PreparedKept(*affinity_, description, &scratch));
    }
    std::vector<double> batch;
    affinity_->NormalizedScores(prepared_label, phrases, &batch);
    for (size_t i = 0; i < unscored.size(); ++i) {
      *unscored[i].first = batch[i];
    }
  }
  for (RelevantPredicate& rp : out) rp.score = scores[rp.iri];
  KeepTopK(out, config_->top_k_predicates);
  // Cached: the anchor table answered every (anchor, direction) pair.
  span.AddAttribute("cached",
                    !walked.empty() && probes == 0 ? "true" : "false");
  RelationLinkLatency().Record(span.ElapsedMillis());
  return out;
}

Agp JitLinker::Link(const qu::Pgp& pgp, sparql::Endpoint& endpoint) const {
  Agp agp;
  agp.pgp = pgp;
  agp.node_vertices.resize(pgp.nodes().size());
  agp.edge_predicates.resize(pgp.edges().size());

  // Algorithm 1 per node: unknowns have no relevant vertices (line 1-2).
  for (size_t i = 0; i < pgp.nodes().size(); ++i) {
    const qu::Pgp::Node& node = pgp.nodes()[i];
    if (node.is_unknown) continue;
    agp.node_vertices[i] = LinkEntity(node.label, endpoint);
  }

  // Algorithm 2 per edge — first the edges with at least one annotated
  // endpoint.
  std::vector<size_t> pending;
  for (size_t e = 0; e < pgp.edges().size(); ++e) {
    const qu::Pgp::Edge& edge = pgp.edges()[e];
    if (agp.node_vertices[edge.a].empty() &&
        agp.node_vertices[edge.b].empty()) {
      pending.push_back(e);  // Unknown-unknown edge (path questions).
      continue;
    }
    agp.edge_predicates[e] = LinkRelation(agp, edge, endpoint);
  }

  // Path questions produce edges between two unknowns, which have no
  // relevant vertices yet.  Derive candidate vertices for an intermediate
  // unknown from the already-linked edges incident to it (executing their
  // top partially-instantiated triples), then link the pending edge
  // against those.
  for (size_t e : pending) {
    const qu::Pgp::Edge& edge = pgp.edges()[e];
    for (size_t node : {edge.a, edge.b}) {
      if (!agp.node_vertices[node].empty()) continue;
      DeriveUnknownVertices(&agp, node, endpoint);
    }
    agp.edge_predicates[e] = LinkRelation(agp, edge, endpoint);
  }
  return agp;
}

void JitLinker::DeriveUnknownVertices(Agp* agp, size_t node,
                                      sparql::Endpoint& endpoint) const {
  obs::ScopedSpan span("linking.derive_unknown");
  constexpr size_t kMaxDerived = 10;
  constexpr size_t kPredicatesPerEdge = 3;
  std::unordered_map<std::string, double> best;
  const auto& edges = agp->pgp.edges();
  for (size_t e2 = 0; e2 < edges.size(); ++e2) {
    const qu::Pgp::Edge& edge2 = edges[e2];
    if (edge2.a != node && edge2.b != node) continue;
    size_t taken = 0;
    for (const RelevantPredicate& rp : agp->edge_predicates[e2]) {
      if (rp.anchor_node == node) continue;  // Anchored on this unknown.
      if (taken++ >= kPredicatesPerEdge) break;
      // The anchor vertex occupies one side of the predicate; this unknown
      // binds the other side.
      std::string query =
          rp.vertex_is_object
              ? "SELECT DISTINCT ?x WHERE { ?x <" + rp.iri + "> <" +
                    rp.anchor_iri + "> . } LIMIT " +
                    std::to_string(kMaxDerived)
              : "SELECT DISTINCT ?x WHERE { <" + rp.anchor_iri + "> <" +
                    rp.iri + "> ?x . } LIMIT " + std::to_string(kMaxDerived);
      auto rs = endpoint.Query(query);
      if (!rs.ok()) continue;
      for (size_t r = 0; r < rs->NumRows(); ++r) {
        const auto& x = rs->At(r, 0);
        if (!x.has_value() || !x->IsIri()) continue;
        auto [it, inserted] = best.emplace(x->value, rp.score);
        if (!inserted && rp.score > it->second) it->second = rp.score;
      }
    }
  }
  auto& derived = agp->node_vertices[node];
  for (const auto& [iri, score] : best) {
    derived.push_back(RelevantVertex{iri, score});
  }
  std::stable_sort(derived.begin(), derived.end(),
                   [](const RelevantVertex& a, const RelevantVertex& b) {
                     return a.score > b.score;
                   });
  if (derived.size() > kMaxDerived) derived.resize(kMaxDerived);
}

}  // namespace kgqan::core
