#include "core/bgp.h"

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "rdf/term.h"

namespace kgqan::core {

namespace {

// One candidate instantiation of a single PGP edge, by index: the relevant
// predicate `agp.edge_predicates[edge][predicate]` and, when the edge's
// other node is an entity, its vertex `agp.node_vertices[other][vertex]`
// (-1 when the other node is an unknown and stays a variable).  Strings
// are only copied for the BGPs that survive the ranking.
struct EdgeCandidate {
  double score = 0.0;  // s_va + s_p + s_vb of Eq. 2.
  uint32_t predicate = 0;
  int32_t vertex = -1;
};

// A consistent cross-edge combination: its Eq. 2 score and its position in
// enumeration order, which breaks score ties exactly as a stable sort
// would.
struct Combination {
  double score = 0.0;
  uint32_t sequence = 0;
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

// Sorts `items` best first under `better` (a strict total order) and keeps
// the first `k`; partial_sort when only a prefix survives.
template <typename T, typename Better>
void SortTop(std::vector<T>* items, size_t k, Better better) {
  if (items->size() > k) {
    std::partial_sort(items->begin(), items->begin() + k, items->end(),
                      better);
    items->resize(k);
  } else {
    std::sort(items->begin(), items->end(), better);
  }
}

// The non-anchor node of `edge` for a predicate anchored at `anchor`.
size_t OtherNode(const qu::Pgp::Edge& edge, size_t anchor) {
  return anchor == edge.a ? edge.b : edge.a;
}

// Builds the ranked candidate list for one edge.  Candidates arise in
// (predicate, vertex) order, so that order breaks score ties the way a
// stable sort of the arrival order does.
std::vector<EdgeCandidate> EdgeCandidates(const Agp& agp, size_t edge_index,
                                          size_t cap) {
  const qu::Pgp::Edge& edge = agp.pgp.edges()[edge_index];
  const auto& nodes = agp.pgp.nodes();
  const std::vector<RelevantPredicate>& predicates =
      agp.edge_predicates[edge_index];
  std::vector<EdgeCandidate> out;

  for (size_t p = 0; p < predicates.size(); ++p) {
    const RelevantPredicate& rp = predicates[p];
    const size_t other = OtherNode(edge, rp.anchor_node);
    const double anchor_score = VertexScore(agp, rp.anchor_node, rp.anchor_iri);
    // The non-anchor side: a variable for unknowns, otherwise one of the
    // node's relevant vertices.
    if (nodes[other].is_unknown) {
      out.push_back({anchor_score + rp.score, static_cast<uint32_t>(p), -1});
      continue;
    }
    const std::vector<RelevantVertex>& vertices = agp.node_vertices[other];
    for (size_t v = 0; v < vertices.size(); ++v) {
      out.push_back({anchor_score + rp.score + vertices[v].score,
                     static_cast<uint32_t>(p), static_cast<int32_t>(v)});
    }
  }
  SortTop(&out, cap, [](const EdgeCandidate& a, const EdgeCandidate& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.predicate != b.predicate) return a.predicate < b.predicate;
    return a.vertex < b.vertex;
  });
  return out;
}

}  // namespace

std::vector<Bgp> BgpGenerator::Generate(const Agp& agp,
                                        size_t* combinations) const {
  if (combinations != nullptr) *combinations = 0;
  const auto& edges = agp.pgp.edges();
  const auto& nodes = agp.pgp.nodes();
  const size_t num_edges = edges.size();
  if (num_edges == 0) return {};

  std::vector<std::vector<EdgeCandidate>> per_edge;
  per_edge.reserve(num_edges);
  for (size_t e = 0; e < num_edges; ++e) {
    per_edge.push_back(EdgeCandidates(agp, e, kMaxEdgeCandidates));
    if (per_edge.back().empty()) return {};  // Unlinkable edge.
  }

  // Cartesian product with consistent per-node vertex assignments, capped.
  // A combination is recorded as its score plus the chosen candidate index
  // of every edge (`chosen_flat`, num_edges entries per combination).
  constexpr size_t kMaxCombos = 4096;
  std::vector<Combination> combos;
  std::vector<uint32_t> chosen_flat;
  std::vector<uint32_t> chosen(num_edges, 0);
  // The vertex IRI committed for each PGP node so far, or null.
  std::vector<const std::string*> assignment(nodes.size(), nullptr);

  auto recurse = [&](auto&& self, size_t edge) -> void {
    if (combos.size() >= kMaxCombos) return;
    if (edge == num_edges) {
      double sum = 0.0;
      for (size_t e = 0; e < num_edges; ++e) {
        sum += per_edge[e][chosen[e]].score;
      }
      combos.push_back({sum / static_cast<double>(num_edges),  // Eq. 2.
                        static_cast<uint32_t>(combos.size())});
      chosen_flat.insert(chosen_flat.end(), chosen.begin(), chosen.end());
      return;
    }
    const std::vector<EdgeCandidate>& candidates = per_edge[edge];
    for (size_t c = 0; c < candidates.size(); ++c) {
      const EdgeCandidate& cand = candidates[c];
      const RelevantPredicate& rp =
          agp.edge_predicates[edge][cand.predicate];
      // The vertex assignments this candidate commits to: the anchor node
      // (unless it is an unknown, which stays a variable) and the other
      // node when it is bound to a vertex.
      const size_t anchor = rp.anchor_node;
      const bool binds_anchor = !nodes[anchor].is_unknown;
      const size_t other = OtherNode(edges[edge], anchor);
      const std::string* other_iri =
          cand.vertex < 0 ? nullptr
                          : &agp.node_vertices[other][cand.vertex].iri;
      // Check consistency with vertices already committed for these nodes.
      auto conflicts = [&](size_t node, const std::string& iri) {
        const std::string* have = assignment[node];
        return have != nullptr && have != &iri && *have != iri;
      };
      if (binds_anchor && conflicts(anchor, rp.anchor_iri)) continue;
      if (other_iri != nullptr && conflicts(other, *other_iri)) continue;
      const bool set_anchor = binds_anchor && assignment[anchor] == nullptr;
      if (set_anchor) assignment[anchor] = &rp.anchor_iri;
      const bool set_other =
          other_iri != nullptr && assignment[other] == nullptr;
      if (set_other) assignment[other] = other_iri;
      chosen[edge] = static_cast<uint32_t>(c);
      self(self, edge + 1);
      if (set_anchor) assignment[anchor] = nullptr;
      if (set_other) assignment[other] = nullptr;
      if (combos.size() >= kMaxCombos) return;
    }
  };
  recurse(recurse, 0);
  if (combinations != nullptr) *combinations = combos.size();

  SortTop(&combos, config_->max_queries,
          [](const Combination& a, const Combination& b) {
            if (a.score != b.score) return a.score > b.score;
            return a.sequence < b.sequence;
          });

  // Materialize only the survivors.
  std::vector<Bgp> bgps(combos.size());
  for (size_t i = 0; i < combos.size(); ++i) {
    Bgp& bgp = bgps[i];
    bgp.score = combos[i].score;
    bgp.triples.resize(num_edges);
    const uint32_t* picks = &chosen_flat[combos[i].sequence * num_edges];
    for (size_t e = 0; e < num_edges; ++e) {
      const EdgeCandidate& cand = per_edge[e][picks[e]];
      const RelevantPredicate& rp = agp.edge_predicates[e][cand.predicate];
      const size_t anchor = rp.anchor_node;
      const size_t other = OtherNode(edges[e], anchor);
      // Unknown anchors arise on path questions: the anchor vertex was
      // only *derived* to discover predicates, so the unknown stays a
      // variable in the query.
      BgpTerm anchor_term =
          nodes[anchor].is_unknown ? BgpTerm{true, VarName(nodes[anchor])}
                                   : BgpTerm{false, rp.anchor_iri};
      BgpTerm other_term =
          cand.vertex < 0
              ? BgpTerm{true, VarName(nodes[other])}
              : BgpTerm{false, agp.node_vertices[other][cand.vertex].iri};
      BgpTriple& triple = bgp.triples[e];
      triple.s = std::move(rp.vertex_is_object ? other_term : anchor_term);
      triple.o = std::move(rp.vertex_is_object ? anchor_term : other_term);
      triple.predicate = rp.iri;
      triple.score = cand.score;
    }
  }
  return bgps;
}

namespace {

void AppendTerm(const BgpTerm& term, std::string* out) {
  if (term.is_var) {
    *out += '?';
    *out += term.value;
  } else {
    *out += '<';
    *out += term.value;
    *out += '>';
  }
}

size_t TriplesSize(const Bgp& bgp) {
  // "  " + s + " <" + p + "> " + o + " .\n", each term with at most two
  // bytes of '?' or '<>' marks.
  size_t size = 0;
  for (const BgpTriple& t : bgp.triples) {
    size += 13 + t.s.value.size() + t.predicate.size() + t.o.value.size();
  }
  return size;
}

void AppendTriples(const Bgp& bgp, std::string* out) {
  for (const BgpTriple& t : bgp.triples) {
    *out += "  ";
    AppendTerm(t.s, out);
    *out += " <";
    *out += t.predicate;
    *out += "> ";
    AppendTerm(t.o, out);
    *out += " .\n";
  }
}

}  // namespace

std::string BgpGenerator::ToSelectSparql(const Bgp& bgp,
                                         const std::string& unknown_var) {
  constexpr std::string_view kHead = "SELECT DISTINCT ?";
  constexpr std::string_view kHeadEnd = " ?c WHERE {\n";
  constexpr std::string_view kOptional = "  OPTIONAL { ?";
  constexpr std::string_view kTail = "> ?c . }\n}\n";
  std::string out;
  out.reserve(kHead.size() + kHeadEnd.size() + TriplesSize(bgp) +
              kOptional.size() + 2 + rdf::vocab::kRdfType.size() +
              kTail.size() + 2 * unknown_var.size());
  out += kHead;
  out += unknown_var;
  out += kHeadEnd;
  AppendTriples(bgp, &out);
  out += kOptional;
  out += unknown_var;
  out += " <";
  out += rdf::vocab::kRdfType;
  out += kTail;
  return out;
}

std::string BgpGenerator::ToAskSparql(const Bgp& bgp) {
  constexpr std::string_view kHead = "ASK {\n";
  std::string out;
  out.reserve(kHead.size() + TriplesSize(bgp) + 2);
  out += kHead;
  AppendTriples(bgp, &out);
  out += "}\n";
  return out;
}

}  // namespace kgqan::core
