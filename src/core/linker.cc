#include "core/linker.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <future>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/tokenizer.h"
#include "util/cancel.h"
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
  if (cache_ == nullptr) return LinkEntityUncached(label, endpoint);
  std::string kg = endpoint.cache_identity();
  if (auto cached = cache_->GetVertices(label, kg); cached.has_value()) {
    return *std::move(cached);
  }
  std::vector<RelevantVertex> out = LinkEntityUncached(label, endpoint);
  if (!util::Cancelled()) cache_->PutVertices(label, kg, out);
  return out;
}

std::vector<RelevantVertex> JitLinker::LinkEntityUncached(
    const std::string& label, sparql::Endpoint& endpoint) const {
  std::vector<RelevantVertex> out;
  if (label.empty()) return out;
  obs::ScopedSpan span("linking.entity");
  span.AddAttribute("label", label);
  struct LatencyRecorder {
    const obs::ScopedSpan& span;
    ~LatencyRecorder() { EntityLinkLatency().Record(span.ElapsedMillis()); }
  } recorder{span};
  auto rs = [&] {
    obs::ScopedSpan probe_span("linking.text_probe");
    return endpoint.Query(
        PotentialRelevantVerticesQuery(label, config_->max_fetched_vertices));
  }();
  if (!rs.ok()) return out;

  auto v_col = rs->ColumnIndex("v");
  auto d_col = rs->ColumnIndex("d");
  if (!v_col.has_value() || !d_col.has_value()) return out;
  std::vector<std::pair<std::string, std::string>> rows;
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
    const std::vector<std::pair<std::string, std::string>>& rows) const {
  // Best affinity per vertex across its descriptions.  The label is
  // embedded once per probe, and each distinct description once: probes
  // often return the same literal under several predicates or vertices.
  std::unordered_map<std::string, double> best;
  {
    obs::ScopedSpan span("linking.affinity");
    const embed::SemanticAffinity::Phrase prepared_label =
        affinity_->Prepare(label);
    std::unordered_map<std::string_view, double> by_description;
    for (const auto& [v_iri, d_value] : rows) {
      auto [memo, fresh] = by_description.emplace(d_value, 0.0);
      if (fresh) {
        memo->second = affinity_->NormalizedScore(prepared_label,
                                                  affinity_->Prepare(d_value));
      }
      const double score = memo->second;
      auto [it, inserted] = best.emplace(v_iri, score);
      if (!inserted && score > it->second) it->second = score;
    }
  }
  std::vector<RelevantVertex> out;
  out.reserve(best.size());
  for (const auto& [iri, score] : best) {
    out.push_back(RelevantVertex{iri, score});
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

std::vector<RelevantPredicate> JitLinker::AssembleEdgePredicates(
    const Agp& agp, const qu::Pgp::Edge& edge, sparql::Endpoint& endpoint,
    const PredicateLookup& lookup) const {
  std::vector<RelevantPredicate> out;
  const std::string& relation_label = edge.label;

  // T_rv: union of relevant vertices of the two endpoints, remembering
  // which node each vertex annotates.
  std::vector<std::pair<std::string, size_t>> anchor_vertices;
  for (size_t node : {edge.a, edge.b}) {
    for (const RelevantVertex& rv : agp.node_vertices[node]) {
      anchor_vertices.emplace_back(rv.iri, node);
    }
  }

  // outgoingPredicate(v) and incomingPredicate(v) (Sec. 5.2); both
  // directions because the PGP is undirected.  Each distinct predicate is
  // described at its first encounter and scored once, after the walk.
  std::unordered_map<std::string, double> scores;
  // Per distinct predicate, in first-encounter order: its score slot in
  // `scores` and its description.
  std::vector<std::pair<double*, std::string>> unscored;
  std::unordered_set<std::string> seen;  // (p, v, o) dedup.
  for (const auto& [v_iri, node] : anchor_vertices) {
    for (bool vertex_is_object : {false, true}) {
      std::optional<std::vector<std::string>> preds =
          lookup(v_iri, vertex_is_object);
      if (!preds.has_value()) continue;
      for (const std::string& p_iri : *preds) {
        std::string key =
            p_iri + "\x1f" + v_iri + (vertex_is_object ? "\x1fO" : "\x1fS");
        if (!seen.insert(key).second) continue;
        auto [it, fresh] = scores.emplace(p_iri, 0.0);
        if (fresh) {
          unscored.emplace_back(&it->second,
                                PredicateDescription(p_iri, endpoint));
        }
        RelevantPredicate rp;
        rp.iri = p_iri;
        rp.anchor_iri = v_iri;
        rp.anchor_node = node;
        rp.vertex_is_object = vertex_is_object;
        out.push_back(std::move(rp));
      }
    }
  }

  {
    obs::ScopedSpan span("linking.affinity");
    const embed::SemanticAffinity::Phrase prepared_label =
        affinity_->Prepare(relation_label);
    for (auto& [score, description] : unscored) {
      *score = affinity_->NormalizedScore(prepared_label,
                                          affinity_->Prepare(description));
    }
  }
  for (RelevantPredicate& rp : out) rp.score = scores[rp.iri];
  KeepTopK(out, config_->top_k_predicates);
  return out;
}

std::vector<RelevantPredicate> JitLinker::LinkRelation(
    const Agp& agp, const qu::Pgp::Edge& edge, size_t edge_index,
    sparql::Endpoint& endpoint) const {
  (void)edge_index;
  obs::ScopedSpan span("linking.relation");
  span.AddAttribute("label", edge.label);
  // Serial per-probe lookup: one endpoint request per (anchor, direction),
  // issued in walk order — the exact PR 1 behaviour.
  std::vector<RelevantPredicate> out = AssembleEdgePredicates(
      agp, edge, endpoint,
      [&endpoint](const std::string& v_iri, bool vertex_is_object)
          -> std::optional<std::vector<std::string>> {
        std::string query =
            vertex_is_object
                ? "SELECT DISTINCT ?p WHERE { ?sub ?p <" + v_iri + "> . }"
                : "SELECT DISTINCT ?p WHERE { <" + v_iri + "> ?p ?obj . }";
        auto rs = [&] {
          obs::ScopedSpan probe_span("linking.predicate_probe");
          return endpoint.Query(query);
        }();
        if (!rs.ok()) return std::nullopt;
        std::vector<std::string> preds;
        preds.reserve(rs->NumRows());
        for (size_t r = 0; r < rs->NumRows(); ++r) {
          const auto& p = rs->At(r, 0);
          if (!p.has_value() || !p->IsIri()) continue;
          preds.push_back(p->value);
        }
        return preds;
      });
  RelationLinkLatency().Record(span.ElapsedMillis());
  return out;
}

void JitLinker::LinkNodesBatched(const qu::Pgp& pgp, Agp* agp,
                                 sparql::Endpoint& endpoint) const {
  obs::ScopedSpan wave_span("linking.node_wave");
  const std::string kg =
      cache_ != nullptr ? endpoint.cache_identity() : std::string();

  // One probe per distinct node label, in first-encounter order; cache hits
  // and empty labels resolve immediately and shrink the wave.
  std::unordered_map<std::string, std::vector<RelevantVertex>> resolved;
  std::vector<std::string> probes;
  std::unordered_set<std::string> enqueued;
  for (const qu::Pgp::Node& node : pgp.nodes()) {
    if (node.is_unknown) continue;
    const std::string& label = node.label;
    if (resolved.count(label) > 0 || enqueued.count(label) > 0) continue;
    if (label.empty()) {
      resolved.emplace(label, std::vector<RelevantVertex>());
      continue;
    }
    if (cache_ != nullptr) {
      if (auto cached = cache_->GetVertices(label, kg); cached.has_value()) {
        resolved.emplace(label, *std::move(cached));
        continue;
      }
    }
    enqueued.insert(label);
    probes.push_back(label);
  }

  const size_t batch = config_->max_batch_size > 0 ? config_->max_batch_size
                                                   : size_t{1};
  std::vector<std::vector<std::string>> chunks;
  for (size_t i = 0; i < probes.size(); i += batch) {
    chunks.emplace_back(probes.begin() + static_cast<ptrdiff_t>(i),
                        probes.begin() + static_cast<ptrdiff_t>(
                                             std::min(probes.size(), i + batch)));
  }

  // One UNION branch per probe: `?probe` (an integer literal VALUES
  // binding) demultiplexes rows back to their originating probe.  No
  // query-level LIMIT — the per-probe maxVR cap is applied during demux so
  // each probe sees exactly the rows its own LIMITed query would return.
  auto run_chunk = [this, &endpoint](const std::vector<std::string>& chunk) {
    obs::ScopedSpan batch_span("linking.probe_batch");
    if (batch_span.recording()) {
      batch_span.AddAttribute("probes", std::to_string(chunk.size()));
    }
    std::string q = "SELECT ?probe ?v ?d WHERE { ";
    for (size_t k = 0; k < chunk.size(); ++k) {
      if (k > 0) q += "UNION ";
      q += "{ VALUES ?probe { " + std::to_string(k) +
           " } ?v ?p ?d . ?d <bif:contains> \"" + TextContainsExpr(chunk[k]) +
           "\" . } ";
    }
    q += "}";
    obs::ScopedSpan probe_span("linking.text_probe");
    return endpoint.QueryBatch(q, chunk.size());
  };
  std::vector<util::StatusOr<sparql::ResultSet>> results;
  results.reserve(chunks.size());
  if (pool_ != nullptr && chunks.size() > 1) {
    std::vector<std::future<util::StatusOr<sparql::ResultSet>>> futures;
    futures.reserve(chunks.size());
    for (const auto& chunk : chunks) {
      futures.push_back(
          pool_->Submit([&run_chunk, &chunk]() { return run_chunk(chunk); }));
    }
    for (auto& f : futures) results.push_back(f.get());
  } else {
    for (const auto& chunk : chunks) results.push_back(run_chunk(chunk));
  }

  for (size_t c = 0; c < chunks.size(); ++c) {
    const std::vector<std::string>& chunk = chunks[c];
    const auto& rs = results[c];
    // Per-probe (v, d) rows; raw_seen counts rows before the IRI filter so
    // truncation matches the serial query's LIMIT semantics.
    std::vector<std::vector<std::pair<std::string, std::string>>> rows(
        chunk.size());
    std::vector<size_t> raw_seen(chunk.size(), 0);
    if (rs.ok()) {
      auto probe_col = rs->ColumnIndex("probe");
      auto v_col = rs->ColumnIndex("v");
      auto d_col = rs->ColumnIndex("d");
      if (probe_col.has_value() && v_col.has_value() && d_col.has_value()) {
        for (size_t r = 0; r < rs->NumRows(); ++r) {
          const auto& probe = rs->At(r, *probe_col);
          if (!probe.has_value()) continue;
          size_t k = static_cast<size_t>(
              std::strtoul(probe->value.c_str(), nullptr, 10));
          if (k >= chunk.size()) continue;
          if (raw_seen[k]++ >= config_->max_fetched_vertices) continue;
          const auto& v = rs->At(r, *v_col);
          const auto& d = rs->At(r, *d_col);
          if (!v.has_value() || !d.has_value()) continue;
          if (!v->IsIri()) continue;
          rows[k].emplace_back(v->value, d->value);
        }
      }
    }
    for (size_t k = 0; k < chunk.size(); ++k) {
      std::vector<RelevantVertex> out = ScoreEntityRows(chunk[k], rows[k]);
      if (cache_ != nullptr && !util::Cancelled()) {
        cache_->PutVertices(chunk[k], kg, out);
      }
      resolved.emplace(chunk[k], std::move(out));
    }
  }

  for (size_t i = 0; i < pgp.nodes().size(); ++i) {
    const qu::Pgp::Node& node = pgp.nodes()[i];
    if (node.is_unknown) continue;
    agp->node_vertices[i] = resolved[node.label];
  }
}

void JitLinker::LinkEdgesBatched(Agp* agp,
                                 const std::vector<size_t>& edge_indices,
                                 sparql::Endpoint& endpoint) const {
  obs::ScopedSpan wave_span("linking.edge_wave");
  const std::string kg =
      cache_ != nullptr ? endpoint.cache_identity() : std::string();
  struct Probe {
    std::string iri;
    bool vertex_is_object;
  };
  auto key_of = [](const std::string& iri, bool vertex_is_object) {
    return iri + (vertex_is_object ? "\x1fI" : "\x1fO");
  };

  // One probe per distinct (anchor vertex, direction) across the wave's
  // edges, in the walk order of the serial path; nullopt marks a failed
  // chunk (an anchor whose own query would have failed).
  std::unordered_map<std::string, std::optional<std::vector<std::string>>>
      resolved;
  std::vector<Probe> probes;
  std::unordered_set<std::string> enqueued;
  const auto& edges = agp->pgp.edges();
  for (size_t e : edge_indices) {
    const qu::Pgp::Edge& edge = edges[e];
    for (size_t node : {edge.a, edge.b}) {
      for (const RelevantVertex& rv : agp->node_vertices[node]) {
        for (bool vertex_is_object : {false, true}) {
          std::string key = key_of(rv.iri, vertex_is_object);
          if (resolved.count(key) > 0 || !enqueued.insert(key).second) {
            continue;
          }
          if (cache_ != nullptr) {
            if (auto cached =
                    cache_->GetAnchorPredicates(rv.iri, vertex_is_object, kg);
                cached.has_value()) {
              resolved.emplace(key, *std::move(cached));
              continue;
            }
          }
          probes.push_back(Probe{rv.iri, vertex_is_object});
        }
      }
    }
  }

  const size_t batch = config_->max_batch_size > 0 ? config_->max_batch_size
                                                   : size_t{1};
  std::vector<std::vector<Probe>> chunks;
  for (size_t i = 0; i < probes.size(); i += batch) {
    chunks.emplace_back(probes.begin() + static_cast<ptrdiff_t>(i),
                        probes.begin() + static_cast<ptrdiff_t>(
                                             std::min(probes.size(), i + batch)));
  }

  // One UNION branch per direction: `?probe` 0 = outgoing, 1 = incoming,
  // with the chunk's anchors of that direction as `VALUES ?anchor`.  The
  // evaluator expands VALUES in written order, so each anchor's rows are
  // contiguous and DISTINCT keeps the first occurrence of every
  // (probe, anchor, p) — the same predicate list, in the same order, as the
  // anchor's own `SELECT DISTINCT ?p` query.
  auto run_chunk = [&endpoint](const std::vector<Probe>& chunk) {
    obs::ScopedSpan batch_span("linking.probe_batch");
    if (batch_span.recording()) {
      batch_span.AddAttribute("probes", std::to_string(chunk.size()));
    }
    std::string q = "SELECT DISTINCT ?probe ?anchor ?p WHERE { ";
    bool first = true;
    for (int dir = 0; dir < 2; ++dir) {
      const bool vertex_is_object = dir == 1;
      std::string values;
      for (const Probe& pr : chunk) {
        if (pr.vertex_is_object == vertex_is_object) {
          values += "<" + pr.iri + "> ";
        }
      }
      if (values.empty()) continue;
      if (!first) q += "UNION ";
      first = false;
      q += "{ VALUES ?probe { " + std::to_string(dir) + " } VALUES ?anchor { " +
           values + "} " +
           (vertex_is_object ? "?sub ?p ?anchor . " : "?anchor ?p ?obj . ") +
           "} ";
    }
    q += "}";
    obs::ScopedSpan probe_span("linking.predicate_probe");
    return endpoint.QueryBatch(q, chunk.size());
  };
  std::vector<util::StatusOr<sparql::ResultSet>> results;
  results.reserve(chunks.size());
  if (pool_ != nullptr && chunks.size() > 1) {
    std::vector<std::future<util::StatusOr<sparql::ResultSet>>> futures;
    futures.reserve(chunks.size());
    for (const auto& chunk : chunks) {
      futures.push_back(
          pool_->Submit([&run_chunk, &chunk]() { return run_chunk(chunk); }));
    }
    for (auto& f : futures) results.push_back(f.get());
  } else {
    for (const auto& chunk : chunks) results.push_back(run_chunk(chunk));
  }

  for (size_t c = 0; c < chunks.size(); ++c) {
    const std::vector<Probe>& chunk = chunks[c];
    const auto& rs = results[c];
    if (!rs.ok()) {
      for (const Probe& pr : chunk) {
        resolved[key_of(pr.iri, pr.vertex_is_object)] = std::nullopt;
      }
      continue;
    }
    // A probe without rows is a successful empty lookup, not a failure.
    for (const Probe& pr : chunk) {
      resolved[key_of(pr.iri, pr.vertex_is_object)] =
          std::vector<std::string>();
    }
    auto probe_col = rs->ColumnIndex("probe");
    auto anchor_col = rs->ColumnIndex("anchor");
    auto p_col = rs->ColumnIndex("p");
    if (probe_col.has_value() && anchor_col.has_value() && p_col.has_value()) {
      for (size_t r = 0; r < rs->NumRows(); ++r) {
        const auto& probe = rs->At(r, *probe_col);
        const auto& anchor = rs->At(r, *anchor_col);
        const auto& p = rs->At(r, *p_col);
        if (!probe.has_value() || !anchor.has_value() || !p.has_value()) {
          continue;
        }
        if (!p->IsIri()) continue;
        auto it = resolved.find(key_of(anchor->value, probe->value == "1"));
        if (it == resolved.end() || !it->second.has_value()) continue;
        it->second->push_back(p->value);
      }
    }
    if (cache_ != nullptr && !util::Cancelled()) {
      for (const Probe& pr : chunk) {
        const auto& preds = resolved[key_of(pr.iri, pr.vertex_is_object)];
        if (preds.has_value()) {
          cache_->PutAnchorPredicates(pr.iri, pr.vertex_is_object, kg,
                                      *preds);
        }
      }
    }
  }

  for (size_t e : edge_indices) {
    agp->edge_predicates[e] = AssembleEdgePredicates(
        *agp, edges[e], endpoint,
        [&resolved, &key_of](const std::string& v_iri, bool vertex_is_object) {
          return resolved[key_of(v_iri, vertex_is_object)];
        });
  }
}

Agp JitLinker::LinkBatched(const qu::Pgp& pgp,
                           sparql::Endpoint& endpoint) const {
  Agp agp;
  agp.pgp = pgp;
  agp.node_vertices.resize(pgp.nodes().size());
  agp.edge_predicates.resize(pgp.edges().size());

  LinkNodesBatched(pgp, &agp, endpoint);

  std::vector<size_t> linkable;
  std::vector<size_t> pending;
  for (size_t e = 0; e < pgp.edges().size(); ++e) {
    const qu::Pgp::Edge& edge = pgp.edges()[e];
    if (agp.node_vertices[edge.a].empty() &&
        agp.node_vertices[edge.b].empty()) {
      pending.push_back(e);  // Unknown-unknown edge (path questions).
    } else {
      linkable.push_back(e);
    }
  }
  LinkEdgesBatched(&agp, linkable, endpoint);

  // Unknown-unknown edges depend on vertices derived from already-linked
  // edges, so they stay on the serial per-probe path (they are rare and
  // small: Sec. 5.2's path questions).
  for (size_t e : pending) {
    const qu::Pgp::Edge& edge = pgp.edges()[e];
    for (size_t node : {edge.a, edge.b}) {
      if (!agp.node_vertices[node].empty()) continue;
      DeriveUnknownVertices(&agp, node, endpoint);
    }
    agp.edge_predicates[e] = LinkRelation(agp, pgp.edges()[e], e, endpoint);
  }
  return agp;
}

Agp JitLinker::Link(const qu::Pgp& pgp, sparql::Endpoint& endpoint) const {
  if (config_->batch_linking) return LinkBatched(pgp, endpoint);
  Agp agp;
  agp.pgp = pgp;
  agp.node_vertices.resize(pgp.nodes().size());
  agp.edge_predicates.resize(pgp.edges().size());

  // Algorithm 1 per node: unknowns have no relevant vertices (line 1-2).
  // Each node is an independent pure function of (label, endpoint), so the
  // fan-out runs on the pool; joining in index order keeps the result
  // identical to the serial pipeline.
  if (pool_ != nullptr) {
    std::vector<std::pair<size_t, std::future<std::vector<RelevantVertex>>>>
        node_futures;
    for (size_t i = 0; i < pgp.nodes().size(); ++i) {
      const qu::Pgp::Node& node = pgp.nodes()[i];
      if (node.is_unknown) continue;
      node_futures.emplace_back(
          i, pool_->Submit([this, &node, &endpoint]() {
            return LinkEntity(node.label, endpoint);
          }));
    }
    for (auto& [i, future] : node_futures) {
      agp.node_vertices[i] = future.get();
    }
  } else {
    for (size_t i = 0; i < pgp.nodes().size(); ++i) {
      const qu::Pgp::Node& node = pgp.nodes()[i];
      if (node.is_unknown) continue;
      agp.node_vertices[i] = LinkEntity(node.label, endpoint);
    }
  }

  // Algorithm 2 per edge — first the edges with at least one annotated
  // endpoint.  Every such edge reads only the (now final) node_vertices,
  // so edges fan out too.
  std::vector<size_t> pending;
  std::vector<std::pair<size_t, std::future<std::vector<RelevantPredicate>>>>
      edge_futures;
  for (size_t e = 0; e < pgp.edges().size(); ++e) {
    const qu::Pgp::Edge& edge = pgp.edges()[e];
    if (agp.node_vertices[edge.a].empty() &&
        agp.node_vertices[edge.b].empty()) {
      pending.push_back(e);  // Unknown-unknown edge (path questions).
      continue;
    }
    if (pool_ != nullptr) {
      edge_futures.emplace_back(
          e, pool_->Submit([this, &agp, &edge, e, &endpoint]() {
            return LinkRelation(agp, edge, e, endpoint);
          }));
    } else {
      agp.edge_predicates[e] = LinkRelation(agp, pgp.edges()[e], e, endpoint);
    }
  }
  for (auto& [e, future] : edge_futures) {
    agp.edge_predicates[e] = future.get();
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
    agp.edge_predicates[e] = LinkRelation(agp, pgp.edges()[e], e, endpoint);
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
