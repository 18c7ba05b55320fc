// Just-in-time entity and relation linking (Sec. 5, Algorithms 1 and 2).
//
// The linker talks to the target KG exclusively through its public SPARQL
// API: a text-containment query per entity node (answered by the RDF
// engine's built-in full-text index) and outgoing/incoming predicate
// lookups per relevant vertex.  No pre-processing, no prior knowledge of
// the KG.
//
// When constructed with a thread pool, the per-node and per-edge fan-out
// of Link() runs on the pool (nodes first, then the edges that depend on
// them); results are identical to the serial order because each node/edge
// is an independent pure function of the PGP and the endpoint.  When
// constructed with a LinkingCache, entity-linking results and cryptic-
// predicate descriptions are memoized across questions, keyed by (phrase,
// endpoint identity, mode), and so are the predicate lists of Alg. 2's
// outgoing/incoming probes, per (anchor vertex, direction) in the cache's
// anchor table for the endpoint's current identity.  A hit replaces the
// probe and yields the same predicates in the same order, so AGPs are
// identical with and without the cache.
//
// Cancellation: probes issued after the calling thread's util::CancelToken
// expires fail fast at the endpoint, and *no* result computed on-or-after
// the expiry is written to the linking cache (any mode) — a cancelled wave
// must not poison the cache with partial (typically empty) link sets for
// later questions.

#ifndef KGQAN_CORE_LINKER_H_
#define KGQAN_CORE_LINKER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/agp.h"
#include "core/config.h"
#include "core/linking_cache.h"
#include "embedding/affinity.h"
#include "qu/pgp.h"
#include "sparql/endpoint.h"
#include "util/thread_pool.h"

namespace kgqan::core {

class JitLinker {
 public:
  JitLinker(const KgqanConfig* config, const embed::SemanticAffinity* affinity,
            util::ThreadPool* pool = nullptr, LinkingCache* cache = nullptr)
      : config_(config), affinity_(affinity), pool_(pool), cache_(cache) {}

  // Annotates every node and edge of `pgp` against `endpoint` (Def. 5.3),
  // one endpoint request per probe.
  Agp Link(const qu::Pgp& pgp, sparql::Endpoint& endpoint) const;

  // Algorithm 1 for a single node: relevant vertices of `label`.
  std::vector<RelevantVertex> LinkEntity(const std::string& label,
                                         sparql::Endpoint& endpoint) const;

  // Builds the potentialRelevantVertices SPARQL request for a node label
  // (exposed for tests).
  static std::string PotentialRelevantVerticesQuery(const std::string& label,
                                                    size_t max_vr);

  // Ranking half of Algorithm 1 (exposed for tests): scores (vertex IRI,
  // description) result rows against `label` and keeps the top-k vertices.
  // The label is embedded once and each distinct description scored once.
  std::vector<RelevantVertex> ScoreEntityRows(
      const std::string& label,
      const std::vector<std::pair<std::string_view, std::string_view>>& rows)
      const;

  // Algorithm 2 for a single edge.  Public so that baselines with their
  // own entity-linking indexes (EDGQA's BERT-ranked relation linking is
  // behaviourally the same semantic ranking) can reuse it on an Agp whose
  // node_vertices they filled themselves.
  std::vector<RelevantPredicate> LinkRelation(const Agp& agp,
                                              const qu::Pgp::Edge& edge,
                                              sparql::Endpoint& endpoint) const;
  // The form kgqabench/layers.cc calls, with the edge's (unused) index.
  std::vector<RelevantPredicate> LinkRelation(const Agp& agp,
                                              const qu::Pgp::Edge& edge,
                                              size_t /*edge_index*/,
                                              sparql::Endpoint& endpoint) const {
    return LinkRelation(agp, edge, endpoint);
  }

  // Path support: materializes candidate vertices for an intermediate
  // unknown node from the already-linked edges incident to it, so that
  // unknown-unknown edges can be relation-linked.
  void DeriveUnknownVertices(Agp* agp, size_t node,
                             sparql::Endpoint& endpoint) const;

 private:
  // Uncached Algorithm 1 (the actual endpoint round-trip + ranking).
  std::vector<RelevantVertex> LinkEntityUncached(
      const std::string& label, sparql::Endpoint& endpoint) const;

  // Q(l_n) of Sec. 5.1: disjunction of the label's content words, the
  // argument of <bif:contains>.
  static std::string TextContainsExpr(const std::string& label);

  // Retrieves a human-readable description for predicate `iri`: the IRI's
  // local name if readable, otherwise a string literal attached to the
  // predicate vertex itself (the wdg:P227 case of Sec. 5.2).
  std::string PredicateDescription(const std::string& iri,
                                   sparql::Endpoint& endpoint) const;

  const KgqanConfig* config_;
  const embed::SemanticAffinity* affinity_;
  util::ThreadPool* pool_;   // Not owned; nullptr = serial.
  LinkingCache* cache_;      // Not owned; nullptr = no memoization.
};

}  // namespace kgqan::core

#endif  // KGQAN_CORE_LINKER_H_
