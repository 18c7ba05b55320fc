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

  // Post-filtration (Sec. 6); the Figure 10 ablation turns this off.
  bool enable_filtration = true;

  // Recall-first answer collection (Sec. 6): answers of the top-ranked
  // productive queries are unioned; filtration restores precision.
  // Queries scoring far below the best productive one (relative score
  // < score_gap of it) are not executed at all.
  double score_gap = 0.85;

  // Has no effect: every question runs its candidate queries serially.
  // Kept only because kgqabench/main.cc still assigns it; the next change
  // to the benchmark deletes that line and this field.
  size_t num_threads = 0;

  // The sharded LRU linking cache keyed by (phrase, KG identity, mode);
  // repeated questions skip the endpoint requests of Sec. 5 entirely.
  // false runs the paper's stateless engine.
  bool linking_cache = true;

  // Question-understanding model variant (Table 4 ablation).
  qu::TriplePatternGenerator::Options qu;

  // Affinity model variant (Table 4 ablation).
  embed::AffinityMode affinity_mode = embed::AffinityMode::kFineGrained;
};

}  // namespace kgqan::core

#endif  // KGQAN_CORE_CONFIG_H_
