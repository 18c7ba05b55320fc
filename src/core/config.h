// Engine configuration (the three parameters of Sec. 7.1.6 plus knobs for
// the ablation experiments).

#ifndef KGQAN_CORE_CONFIG_H_
#define KGQAN_CORE_CONFIG_H_

#include <cstddef>

#include "embedding/affinity.h"
#include "qu/triple_pattern_generator.h"

namespace kgqan::core {

struct KgqanConfig {
  // "Max Fetched Vertices": result cap of the potentialRelevantVertices
  // text query (maxVR; Sec. 5.1).
  size_t max_fetched_vertices = 400;

  // Top-k relevant vertices kept per PGP node after affinity ranking
  // ("in practice we use only k < maxVR vertices", Sec. 5.2.1).
  size_t top_k_vertices = 10;

  // "Number of Predicates": top-k relevant predicates per PGP edge.
  size_t top_k_predicates = 20;

  // "Max number of Queries": semantically equivalent SPARQL queries
  // generated per question (Alg. 3).
  size_t max_queries = 40;

  // Candidate instantiations kept per PGP edge before the cross-edge
  // product is ranked (keeps Alg. 3 line 1 tractable).
  size_t max_edge_candidates = 24;

  // Post-filtration (Sec. 6); the Figure 10 ablation turns this off.
  bool enable_filtration = true;

  // Leniency threshold for semantic-type filtering: an answer is dropped
  // only if its class label scores below this affinity against the
  // predicted semantic type.  Chosen low because semantic types are noisy
  // (Sec. 7.3.3: "filtering answers using semantic types is not as
  // accurate ... designed to avoid hurting the recall much").
  double semantic_type_threshold = 0.12;

  // Recall-first answer collection (Sec. 6): answers of the top-ranked
  // productive queries are unioned; filtration restores precision.  The
  // union stops after this many queries yielded (post-filtration) answers,
  // and queries scoring far below the best productive one (relative score
  // < score_gap of it) are not executed at all.
  size_t max_productive_queries = 3;
  double score_gap = 0.85;

  // Worker threads for the JIT-linking fan-out and candidate-query
  // execution (not a paper parameter).  0 = hardware concurrency; 1 runs
  // the original fully serial pipeline, preserving its exact behaviour
  // including per-endpoint query counts.  Parallel runs produce the same
  // answers (results are combined in rank order) but may speculatively
  // execute queries the serial early-exit would have skipped.
  size_t num_threads = 0;

  // Total entries per mode of the sharded LRU linking cache keyed by
  // (phrase, KG identity, mode); repeated questions skip the endpoint
  // requests of Sec. 5 entirely.  0 disables caching.
  size_t linking_cache_capacity = 4096;

  // EXPLAIN ANALYZE (not a paper parameter): collect per-operator runtime
  // statistics — rows in/out, planner cardinality estimate vs. actual,
  // step time — for every executed candidate query into
  // KgqanResult::candidates[i].operators, rendered by core::Explain.
  // Off (default) collects only for requests whose trace records spans
  // (sampled requests under the serving front-end), so saturated serving
  // pays nothing; on, every request collects.
  bool explain_analyze = false;

  // Question-understanding model variant (Table 4 ablation).
  qu::TriplePatternGenerator::Options qu;

  // Affinity model variant (Table 4 ablation).
  embed::AffinityMode affinity_mode = embed::AffinityMode::kFineGrained;
};

}  // namespace kgqan::core

#endif  // KGQAN_CORE_CONFIG_H_
