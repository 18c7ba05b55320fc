// Batched JIT linking (Config::batch_linking): the UNION/VALUES wave
// queries must produce AGPs byte-identical to the serial per-probe path —
// across batch sizes, cache states (cold, partially warm, fully warm) and
// a full synthetic benchmark — while strictly reducing the number of
// physical endpoint round trips.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "benchgen/benchmark.h"
#include "core/agp.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/linker.h"
#include "core/linking_cache.h"
#include "embedding/affinity.h"
#include "qu/pgp.h"
#include "qu/phrase_triple.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "sparql/endpoint.h"

namespace kgqan::core {
namespace {

// Exact AGP equality: identical IRIs, identical (bitwise) scores, identical
// order, identical anchor attribution.
::testing::AssertionResult AgpsEqual(const Agp& a, const Agp& b) {
  if (a.node_vertices.size() != b.node_vertices.size()) {
    return ::testing::AssertionFailure() << "node count differs";
  }
  for (size_t n = 0; n < a.node_vertices.size(); ++n) {
    const auto& va = a.node_vertices[n];
    const auto& vb = b.node_vertices[n];
    if (va.size() != vb.size()) {
      return ::testing::AssertionFailure()
             << "node " << n << ": " << va.size() << " vs " << vb.size()
             << " vertices";
    }
    for (size_t i = 0; i < va.size(); ++i) {
      if (va[i].iri != vb[i].iri || va[i].score != vb[i].score) {
        return ::testing::AssertionFailure()
               << "node " << n << " vertex " << i << ": <" << va[i].iri << ","
               << va[i].score << "> vs <" << vb[i].iri << "," << vb[i].score
               << ">";
      }
    }
  }
  if (a.edge_predicates.size() != b.edge_predicates.size()) {
    return ::testing::AssertionFailure() << "edge count differs";
  }
  for (size_t e = 0; e < a.edge_predicates.size(); ++e) {
    const auto& pa = a.edge_predicates[e];
    const auto& pb = b.edge_predicates[e];
    if (pa.size() != pb.size()) {
      return ::testing::AssertionFailure()
             << "edge " << e << ": " << pa.size() << " vs " << pb.size()
             << " predicates";
    }
    for (size_t i = 0; i < pa.size(); ++i) {
      if (pa[i].iri != pb[i].iri || pa[i].score != pb[i].score ||
          pa[i].anchor_iri != pb[i].anchor_iri ||
          pa[i].anchor_node != pb[i].anchor_node ||
          pa[i].vertex_is_object != pb[i].vertex_is_object) {
        return ::testing::AssertionFailure()
               << "edge " << e << " predicate " << i << ": <" << pa[i].iri
               << "> vs <" << pb[i].iri << ">";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Two people and a city, with human-readable predicate IRIs so relation
// linking never issues description lookups — endpoint traffic is exactly
// the text probe plus the per-(anchor, direction) predicate probes.
rdf::Graph TinyKg() {
  rdf::Graph g;
  g.AddIri("http://kg/Alice", "http://kg/label",
           rdf::StringLiteral("alice smith"));
  g.AddIri("http://kg/Bob", "http://kg/label",
           rdf::StringLiteral("bob jones"));
  g.AddIri("http://kg/Paris", "http://kg/label",
           rdf::StringLiteral("paris city"));
  g.AddIris("http://kg/Alice", "http://kg/birthPlace", "http://kg/Paris");
  g.AddIris("http://kg/Alice", "http://kg/friendOf", "http://kg/Bob");
  g.AddIris("http://kg/Bob", "http://kg/friendOf", "http://kg/Alice");
  return g;
}

qu::Pgp BirthPlacePgp() {
  return qu::Pgp::Build({qu::PhraseTriple{
      qu::Unknown(1), "birth place", qu::EntityPhrase("alice smith")}});
}

qu::Pgp FriendsPgp() {
  return qu::Pgp::Build(
      {qu::PhraseTriple{qu::Unknown(1), "friend",
                        qu::EntityPhrase("alice smith")},
       qu::PhraseTriple{qu::Unknown(1), "friend",
                        qu::EntityPhrase("bob jones")}});
}

struct Traffic {
  size_t requests = 0;
  size_t round_trips = 0;
};

Traffic LinkAndMeasure(const JitLinker& linker, const qu::Pgp& pgp,
                       sparql::Endpoint& endpoint, Agp* out) {
  size_t q0 = endpoint.query_count();
  size_t r0 = endpoint.round_trips();
  *out = linker.Link(pgp, endpoint);
  return Traffic{endpoint.query_count() - q0, endpoint.round_trips() - r0};
}

TEST(BatchedLinkingTest, TinyKgExactTraffic) {
  sparql::Endpoint endpoint("tiny", TinyKg());
  KgqanConfig serial_cfg;
  serial_cfg.linking_cache_capacity = 0;
  embed::SemanticAffinity affinity(serial_cfg.affinity_mode);
  JitLinker serial(&serial_cfg, &affinity);

  // One node probe ("alice smith" -> Alice) plus Alice's outgoing and
  // incoming predicate probes: 3 requests, one round trip each.
  Agp serial_agp;
  Traffic st = LinkAndMeasure(serial, BirthPlacePgp(), endpoint, &serial_agp);
  EXPECT_EQ(st.requests, 3u);
  EXPECT_EQ(st.round_trips, 3u);
  ASSERT_EQ(serial_agp.node_vertices.size(), 2u);
  bool found_alice = false;
  for (const auto& vertices : serial_agp.node_vertices) {
    for (const RelevantVertex& rv : vertices) {
      if (rv.iri == "http://kg/Alice") found_alice = true;
    }
  }
  EXPECT_TRUE(found_alice);

  // Batched: the node wave is 1 probe, the edge wave 2 probes, so the
  // traffic is exactly ceil(1/B) + ceil(2/B) round trips for the same 3
  // logical requests and the very same AGP.
  struct Case {
    size_t batch_size;
    size_t expected_trips;
  };
  for (const Case c : {Case{1, 3}, Case{2, 2}, Case{64, 2}}) {
    KgqanConfig batch_cfg = serial_cfg;
    batch_cfg.batch_linking = true;
    batch_cfg.max_batch_size = c.batch_size;
    JitLinker batched(&batch_cfg, &affinity);
    Agp batch_agp;
    Traffic bt =
        LinkAndMeasure(batched, BirthPlacePgp(), endpoint, &batch_agp);
    SCOPED_TRACE("batch size " + std::to_string(c.batch_size));
    EXPECT_EQ(bt.requests, 3u);
    EXPECT_EQ(bt.round_trips, c.expected_trips);
    EXPECT_TRUE(AgpsEqual(serial_agp, batch_agp));
  }
}

TEST(BatchedLinkingTest, CacheStatesColdPartialWarm) {
  // Same question sequence against two independent caches: A (cold),
  // friends (partially warm: Alice cached, Bob not), A again (fully warm).
  // Every stage must produce identical AGPs on both paths.
  sparql::Endpoint endpoint("tiny", TinyKg());
  KgqanConfig serial_cfg;
  embed::SemanticAffinity affinity(serial_cfg.affinity_mode);
  LinkingCache serial_cache(serial_cfg.linking_cache_capacity);
  JitLinker serial(&serial_cfg, &affinity, nullptr, &serial_cache);

  KgqanConfig batch_cfg;
  batch_cfg.batch_linking = true;
  batch_cfg.max_batch_size = 3;
  LinkingCache batch_cache(batch_cfg.linking_cache_capacity);
  JitLinker batched(&batch_cfg, &affinity, nullptr, &batch_cache);

  const qu::Pgp pgps[] = {BirthPlacePgp(), FriendsPgp(), BirthPlacePgp()};
  size_t serial_trips = 0;
  size_t batch_trips = 0;
  for (const qu::Pgp& pgp : pgps) {
    Agp serial_agp;
    Agp batch_agp;
    serial_trips += LinkAndMeasure(serial, pgp, endpoint, &serial_agp)
                        .round_trips;
    batch_trips += LinkAndMeasure(batched, pgp, endpoint, &batch_agp)
                       .round_trips;
    EXPECT_TRUE(AgpsEqual(serial_agp, batch_agp));
  }
  // The batched path additionally memoizes per-anchor predicate lists, so
  // the warm re-ask costs zero round trips; the serial path re-issues its
  // per-anchor lookups every time.
  EXPECT_LT(batch_trips, serial_trips);
}

TEST(BatchedLinkingTest, MatchesSerialOnBenchmarkAcrossBatchSizes) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kLcQuad, 0.02);

  // Reference run: the serial per-probe pipeline with its default cache
  // (questions answered in sequence, so later ones hit a warm cache).
  KgqanConfig serial_cfg;
  serial_cfg.num_threads = 1;
  KgqanEngine serial_engine(serial_cfg);
  std::vector<Agp> reference;
  size_t serial_trips = 0;
  reference.reserve(b.questions.size());
  for (const auto& q : b.questions) {
    KgqanResult r = serial_engine.AnswerFull(q.text, *b.endpoint);
    serial_trips += r.linking_round_trips;
    reference.push_back(std::move(r.agp));
  }

  for (size_t batch_size : {size_t{1}, size_t{3}, size_t{64}}) {
    KgqanConfig batch_cfg;
    batch_cfg.num_threads = 1;
    batch_cfg.batch_linking = true;
    batch_cfg.max_batch_size = batch_size;
    KgqanEngine batch_engine(batch_cfg);
    size_t batch_trips = 0;
    for (size_t i = 0; i < b.questions.size(); ++i) {
      SCOPED_TRACE("batch size " + std::to_string(batch_size) +
                   " question: " + b.questions[i].text);
      KgqanResult r = batch_engine.AnswerFull(b.questions[i].text,
                                              *b.endpoint);
      batch_trips += r.linking_round_trips;
      EXPECT_TRUE(AgpsEqual(reference[i], r.agp));
    }
    // Probe dedup + batching must strictly shrink the physical traffic
    // over the question set, at every batch size.
    EXPECT_LT(batch_trips, serial_trips)
        << "batch size " << batch_size;
  }
}

}  // namespace
}  // namespace kgqan::core
