// Equivalence property test for BgpGenerator (Alg. 3 lines 1-3).
//
// BgpGenerator ranks candidates by index and materializes strings only for
// the BGPs it returns.  The generator it replaced built every edge
// candidate and every cross-edge combination as strings, stable-sorted
// them and truncated; it is kept below as the oracle.  Over random AGPs
// (1-3 edges, unknown anchors, entity and unknown non-anchor nodes, tied
// scores, anchors missing from their node's vertices, edges past the
// per-edge cut of BgpGenerator::kMaxEdgeCandidates, products past the
// 4,096-combination cap, random max_queries) both must return the
// identical ranked list: the same triples, the same scores (exact doubles)
// and the same order.
//
// The binary has its own main: `--seed=N` (or the KGQAN_PROPERTY_SEED
// environment variable) reseeds the generator, so CI can rotate seeds and
// a failure is reproducible locally with the printed flag.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/agp.h"
#include "core/bgp.h"
#include "core/config.h"
#include "qu/pgp.h"
#include "qu/phrase_triple.h"
#include "util/rng.h"

namespace kgqan::core {

// Set from --seed / KGQAN_PROPERTY_SEED in main() before RUN_ALL_TESTS.
uint64_t g_property_seed = 0xB69Eu;

namespace {

// ---- The oracle: the materialize-everything generator. ----

struct OracleCandidate {
  BgpTriple triple;
  std::vector<std::pair<size_t, std::string>> bindings;
  double score = 0.0;
};

double OracleVertexScore(const Agp& agp, size_t node, const std::string& iri) {
  for (const RelevantVertex& rv : agp.node_vertices[node]) {
    if (rv.iri == iri) return rv.score;
  }
  return 0.0;
}

std::string OracleVarName(const qu::Pgp::Node& node) {
  std::string name = "u";
  name += std::to_string(node.var_id);
  return name;
}

std::vector<OracleCandidate> OracleEdgeCandidates(const Agp& agp,
                                                  size_t edge_index,
                                                  size_t cap) {
  const qu::Pgp::Edge& edge = agp.pgp.edges()[edge_index];
  const auto& nodes = agp.pgp.nodes();
  std::vector<OracleCandidate> out;
  for (const RelevantPredicate& rp : agp.edge_predicates[edge_index]) {
    size_t anchor = rp.anchor_node;
    size_t other = (anchor == edge.a) ? edge.b : edge.a;
    double anchor_score = OracleVertexScore(agp, anchor, rp.anchor_iri);
    std::vector<std::pair<BgpTerm, double>> other_terms;
    if (nodes[other].is_unknown) {
      other_terms.push_back({BgpTerm{true, OracleVarName(nodes[other])}, 0.0});
    } else {
      for (const RelevantVertex& rv : agp.node_vertices[other]) {
        other_terms.push_back({BgpTerm{false, rv.iri}, rv.score});
      }
    }
    const bool anchor_is_unknown = nodes[anchor].is_unknown;
    BgpTerm anchor_term = anchor_is_unknown
                              ? BgpTerm{true, OracleVarName(nodes[anchor])}
                              : BgpTerm{false, rp.anchor_iri};
    for (auto& [other_term, other_score] : other_terms) {
      OracleCandidate cand;
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
      if (!anchor_is_unknown) cand.bindings.emplace_back(anchor, rp.anchor_iri);
      if (!other_term.is_var) {
        cand.bindings.emplace_back(other, other_term.value);
      }
      out.push_back(std::move(cand));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const OracleCandidate& a, const OracleCandidate& b) {
                     return a.score > b.score;
                   });
  if (out.size() > cap) out.resize(cap);
  return out;
}

std::vector<Bgp> OracleGenerate(const Agp& agp, const KgqanConfig& config,
                                size_t* combinations) {
  *combinations = 0;
  const size_t num_edges = agp.pgp.edges().size();
  if (num_edges == 0) return {};
  std::vector<std::vector<OracleCandidate>> per_edge;
  for (size_t e = 0; e < num_edges; ++e) {
    per_edge.push_back(
        OracleEdgeCandidates(agp, e, BgpGenerator::kMaxEdgeCandidates));
    if (per_edge.back().empty()) return {};
  }
  constexpr size_t kMaxCombos = 4096;
  std::vector<Bgp> bgps;
  std::vector<const OracleCandidate*> chosen(num_edges, nullptr);
  std::unordered_map<size_t, std::string> assignment;
  auto recurse = [&](auto&& self, size_t edge) -> void {
    if (bgps.size() >= kMaxCombos) return;
    if (edge == num_edges) {
      Bgp bgp;
      double sum = 0.0;
      for (const OracleCandidate* c : chosen) {
        bgp.triples.push_back(c->triple);
        sum += c->triple.score;
      }
      bgp.score = sum / static_cast<double>(num_edges);
      bgps.push_back(std::move(bgp));
      return;
    }
    for (const OracleCandidate& cand : per_edge[edge]) {
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
  *combinations = bgps.size();
  std::stable_sort(bgps.begin(), bgps.end(),
                   [](const Bgp& a, const Bgp& b) { return a.score > b.score; });
  if (bgps.size() > config.max_queries) bgps.resize(config.max_queries);
  return bgps;
}

// ---- Random AGPs. ----

class AgpGen {
 public:
  explicit AgpGen(uint64_t seed) : rng_(seed) {}

  // A random AGP and generator limits.  `wide` builds a star of unknown-
  // centred edges with distinct entity anchors, so the cross-edge product
  // runs past the combination cap.
  Agp Next(bool wide, KgqanConfig* config) {
    ties_ = rng_.UniformInt(0, 1) == 1;
    config->max_queries = static_cast<size_t>(rng_.UniformInt(1, 60));
    qu::TriplePatterns triples;
    if (wide) {
      const char* const kEntities[] = {"A", "B", "C"};
      for (const char* entity : kEntities) {
        triples.push_back(
            {qu::Unknown(1), "r", qu::EntityPhrase(entity)});
      }
    } else {
      const size_t num_edges = static_cast<size_t>(rng_.UniformInt(1, 3));
      while (triples.size() < num_edges) {
        qu::PhraseEntity a = RandEndpoint();
        qu::PhraseEntity b = RandEndpoint();
        if (a == b) continue;
        triples.push_back({a, "r", b});
      }
    }
    Agp agp;
    agp.pgp = qu::Pgp::Build(triples);
    const auto& nodes = agp.pgp.nodes();
    agp.node_vertices.resize(nodes.size());
    for (size_t n = 0; n < nodes.size(); ++n) {
      // Unknowns mostly carry no vertices; path questions derive some.
      int64_t count = nodes[n].is_unknown
                          ? (rng_.UniformInt(0, 3) == 0 ? rng_.UniformInt(1, 3)
                                                        : 0)
                          : rng_.UniformInt(wide ? 1 : 0, 6);
      for (int64_t v = 0; v < count; ++v) {
        agp.node_vertices[n].push_back({RandIri("v", 8), RandScore()});
      }
    }
    const auto& edges = agp.pgp.edges();
    agp.edge_predicates.resize(edges.size());
    for (size_t e = 0; e < edges.size(); ++e) {
      int64_t count = wide ? rng_.UniformInt(24, 32)
                           : (rng_.UniformInt(0, 9) == 0
                                  ? 0
                                  : rng_.UniformInt(1, 28));
      for (int64_t p = 0; p < count; ++p) {
        RelevantPredicate rp;
        rp.iri = RandIri("p", 12);
        rp.score = RandScore();
        if (wide) {
          // Anchor at the entity with a distinct IRI per predicate: every
          // combination is consistent.
          rp.anchor_node = edges[e].b;
          rp.anchor_iri = "http://x/anchor" + std::to_string(e) + "_" +
                          std::to_string(p);
        } else {
          rp.anchor_node = rng_.UniformInt(0, 1) == 0 ? edges[e].a : edges[e].b;
          const auto& vertices = agp.node_vertices[rp.anchor_node];
          // Mostly one of the anchor node's vertices; sometimes an IRI the
          // node does not list (vertex score 0).
          rp.anchor_iri = !vertices.empty() && rng_.UniformInt(0, 4) != 0
                              ? vertices[rng_.UniformInt(
                                             0, static_cast<int64_t>(
                                                    vertices.size()) - 1)]
                                    .iri
                              : RandIri("v", 8);
        }
        rp.vertex_is_object = rng_.UniformInt(0, 1) == 1;
        agp.edge_predicates[e].push_back(std::move(rp));
      }
    }
    return agp;
  }

 private:
  qu::PhraseEntity RandEndpoint() {
    switch (rng_.UniformInt(0, 4)) {
      case 0:
        return qu::Unknown(1);
      case 1:
        return qu::Unknown(2);
      case 2:
        return qu::EntityPhrase("A");
      case 3:
        return qu::EntityPhrase("B");
      default:
        return qu::EntityPhrase("C");
    }
  }

  std::string RandIri(const char* stem, int64_t pool) {
    return "http://x/" + std::string(stem) +
           std::to_string(rng_.UniformInt(0, pool - 1));
  }

  // With ties on, scores come from a three-value set so equal Eq. 2 scores
  // are common and the tie-break decides the order.
  double RandScore() {
    if (ties_) return 0.25 * static_cast<double>(rng_.UniformInt(0, 2));
    return rng_.UniformDouble();
  }

  util::Rng rng_;
  bool ties_ = false;
};

::testing::AssertionResult SameBgps(const std::vector<Bgp>& want,
                                    const std::vector<Bgp>& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "oracle returned " << want.size() << " BGPs, generator "
           << got.size();
  }
  auto same_term = [](const BgpTerm& a, const BgpTerm& b) {
    return a.is_var == b.is_var && a.value == b.value;
  };
  for (size_t i = 0; i < want.size(); ++i) {
    const Bgp& w = want[i];
    const Bgp& g = got[i];
    bool same = w.score == g.score && w.triples.size() == g.triples.size();
    for (size_t t = 0; same && t < w.triples.size(); ++t) {
      const BgpTriple& wt = w.triples[t];
      const BgpTriple& gt = g.triples[t];
      same = same_term(wt.s, gt.s) && wt.predicate == gt.predicate &&
             same_term(wt.o, gt.o) && wt.score == gt.score;
    }
    if (!same) {
      return ::testing::AssertionFailure()
             << "rank " << i << " differs:\noracle:\n"
             << BgpGenerator::ToAskSparql(w) << "score " << w.score
             << "\ngenerator:\n"
             << BgpGenerator::ToAskSparql(g) << "score " << g.score;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(BgpPropertyTest, MatchesTheMaterializingOracle) {
  constexpr int kCases = 600;
  AgpGen gen(g_property_seed);
  size_t capped = 0;
  size_t cut_edges = 0;
  for (int c = 0; c < kCases; ++c) {
    KgqanConfig config;
    const bool wide = c % 10 == 9;
    Agp agp = gen.Next(wide, &config);
    SCOPED_TRACE("seed " + std::to_string(g_property_seed) + " case " +
                 std::to_string(c) + " pgp " + agp.pgp.DebugString());
    size_t want_combinations = 0;
    size_t got_combinations = 0;
    std::vector<Bgp> want = OracleGenerate(agp, config, &want_combinations);
    std::vector<Bgp> got =
        BgpGenerator(&config).Generate(agp, &got_combinations);
    ASSERT_TRUE(SameBgps(want, got));
    EXPECT_EQ(got_combinations, want_combinations);
    if (want_combinations == 4096) ++capped;
    for (size_t e = 0; e < agp.pgp.edges().size(); ++e) {
      if (OracleEdgeCandidates(agp, e, SIZE_MAX).size() >
          BgpGenerator::kMaxEdgeCandidates) {
        ++cut_edges;
      }
    }
  }
  // The generated edges really exercised the per-edge cut, and the wide
  // cases the combination cap.
  EXPECT_GT(cut_edges, 0u);
  EXPECT_GT(capped, 0u);
}

}  // namespace
}  // namespace kgqan::core

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  uint64_t seed = kgqan::core::g_property_seed;
  if (const char* env = std::getenv("KGQAN_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  kgqan::core::g_property_seed = seed;
  std::printf("[property] seed=%llu  (repro: bgp_property_test --seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  return RUN_ALL_TESTS();
}
