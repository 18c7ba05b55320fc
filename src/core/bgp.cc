#include "core/bgp.h"

#include <algorithm>
#include <unordered_map>

#include "rdf/term.h"

namespace kgqan::core {

namespace {

// One candidate instantiation of a single PGP edge.
struct EdgeCandidate {
  BgpTriple triple;
  // Vertex assignments this candidate commits to: node index -> IRI.
  // (At most two entries: the anchor node and, if bound, the other node.)
  std::vector<std::pair<size_t, std::string>> bindings;
  double score = 0.0;
};

double VertexScore(const Agp& agp, size_t node, const std::string& iri) {
  for (const RelevantVertex& rv : agp.node_vertices[node]) {
    if (rv.iri == iri) return rv.score;
  }
  return 0.0;
}

std::string VarName(const qu::Pgp::Node& node) {
  std::string name = "u";
  name += std::to_string(node.var_id);
  return name;
}

// Builds the ranked candidate list for one edge.
std::vector<EdgeCandidate> EdgeCandidates(const Agp& agp, size_t edge_index,
                                          size_t cap) {
  const qu::Pgp::Edge& edge = agp.pgp.edges()[edge_index];
  const auto& nodes = agp.pgp.nodes();
  std::vector<EdgeCandidate> out;

  for (const RelevantPredicate& rp : agp.edge_predicates[edge_index]) {
    size_t anchor = rp.anchor_node;
    size_t other = (anchor == edge.a) ? edge.b : edge.a;
    double anchor_score = VertexScore(agp, anchor, rp.anchor_iri);

    // The non-anchor side: a variable for unknowns, otherwise one of the
    // node's relevant vertices.
    std::vector<std::pair<BgpTerm, double>> other_terms;
    if (nodes[other].is_unknown) {
      other_terms.push_back({BgpTerm{true, VarName(nodes[other])}, 0.0});
    } else {
      for (const RelevantVertex& rv : agp.node_vertices[other]) {
        other_terms.push_back({BgpTerm{false, rv.iri}, rv.score});
      }
    }
    // Unknown anchors arise on path questions: the anchor vertex was only
    // *derived* to discover predicates, so the unknown stays a variable in
    // the query.
    const bool anchor_is_unknown = nodes[anchor].is_unknown;
    BgpTerm anchor_term = anchor_is_unknown
                              ? BgpTerm{true, VarName(nodes[anchor])}
                              : BgpTerm{false, rp.anchor_iri};
    for (auto& [other_term, other_score] : other_terms) {
      EdgeCandidate cand;
      if (rp.vertex_is_object) {
        cand.triple.s = other_term;
        cand.triple.o = anchor_term;
      } else {
        cand.triple.s = anchor_term;
        cand.triple.o = other_term;
      }
      cand.triple.predicate = rp.iri;
      cand.triple.score = anchor_score + rp.score + other_score;
      cand.score = cand.triple.score;
      if (!anchor_is_unknown) {
        cand.bindings.emplace_back(anchor, rp.anchor_iri);
      }
      if (!other_term.is_var) {
        cand.bindings.emplace_back(other, other_term.value);
      }
      out.push_back(std::move(cand));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const EdgeCandidate& a, const EdgeCandidate& b) {
                     return a.score > b.score;
                   });
  if (out.size() > cap) out.resize(cap);
  return out;
}

}  // namespace

std::vector<Bgp> BgpGenerator::Generate(const Agp& agp) const {
  const size_t num_edges = agp.pgp.edges().size();
  if (num_edges == 0) return {};

  std::vector<std::vector<EdgeCandidate>> per_edge;
  per_edge.reserve(num_edges);
  for (size_t e = 0; e < num_edges; ++e) {
    per_edge.push_back(EdgeCandidates(agp, e, config_->max_edge_candidates));
    if (per_edge.back().empty()) return {};  // Unlinkable edge.
  }

  // Cartesian product with consistent per-node vertex assignments, capped.
  constexpr size_t kMaxCombos = 4096;
  std::vector<Bgp> bgps;
  std::vector<const EdgeCandidate*> chosen(num_edges, nullptr);
  std::unordered_map<size_t, std::string> assignment;

  auto recurse = [&](auto&& self, size_t edge) -> void {
    if (bgps.size() >= kMaxCombos) return;
    if (edge == num_edges) {
      Bgp bgp;
      double sum = 0.0;
      for (const EdgeCandidate* c : chosen) {
        bgp.triples.push_back(c->triple);
        sum += c->triple.score;
      }
      bgp.score = sum / static_cast<double>(num_edges);  // Eq. 2.
      bgps.push_back(std::move(bgp));
      return;
    }
    for (const EdgeCandidate& cand : per_edge[edge]) {
      // Check consistency with vertices already committed for these nodes.
      bool ok = true;
      for (const auto& [node, iri] : cand.bindings) {
        auto it = assignment.find(node);
        if (it != assignment.end() && it->second != iri) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      std::vector<size_t> added;
      for (const auto& [node, iri] : cand.bindings) {
        if (assignment.emplace(node, iri).second) added.push_back(node);
      }
      chosen[edge] = &cand;
      self(self, edge + 1);
      for (size_t node : added) assignment.erase(node);
      if (bgps.size() >= kMaxCombos) return;
    }
  };
  recurse(recurse, 0);

  std::stable_sort(bgps.begin(), bgps.end(),
                   [](const Bgp& a, const Bgp& b) { return a.score > b.score; });
  if (bgps.size() > config_->max_queries) bgps.resize(config_->max_queries);
  return bgps;
}

namespace {

std::string RenderTerm(const BgpTerm& term) {
  if (term.is_var) return "?" + term.value;
  return "<" + term.value + ">";
}

std::string RenderTriples(const Bgp& bgp) {
  std::string out;
  for (const BgpTriple& t : bgp.triples) {
    out += "  " + RenderTerm(t.s) + " <" + t.predicate + "> " +
           RenderTerm(t.o) + " .\n";
  }
  return out;
}

}  // namespace

std::string BgpGenerator::ToSelectSparql(const Bgp& bgp,
                                         const std::string& unknown_var) {
  std::string out = "SELECT DISTINCT ?" + unknown_var + " ?c WHERE {\n";
  out += RenderTriples(bgp);
  out += "  OPTIONAL { ?" + unknown_var + " <" +
         std::string(rdf::vocab::kRdfType) + "> ?c . }\n";
  out += "}\n";
  return out;
}

std::string BgpGenerator::ToAskSparql(const Bgp& bgp) {
  return "ASK {\n" + RenderTriples(bgp) + "}\n";
}

}  // namespace kgqan::core
