// Cardinality-based join planning for BGP evaluation.
//
// The planner orders the triple patterns of one group graph pattern by
// greedy selectivity: at each step it picks the unused pattern with the
// smallest estimated match count given the slots already bound, using the
// store's per-permutation Locate() range sizes as the estimator (exact for
// the constant components of a pattern — every bound-component subset is a
// key prefix of one of the five permutations — and discounted heuristically
// for components whose variable is bound by earlier steps).
//
// The plan is a pure function of the store and the bound-slot set, so join
// order — and therefore result order — is deterministic for a given graph.
// Ties are broken by pattern position, keeping plans deterministic when
// cardinalities collide.

#ifndef KGQAN_SPARQL_PLANNER_H_
#define KGQAN_SPARQL_PLANNER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "store/triple_store.h"

namespace kgqan::sparql {

// A triple pattern compiled against the store's dictionary: each component
// is either a constant term id, or (slot | kVarFlag) for a variable mapped
// to a dense slot.
struct CompiledTriple {
  static constexpr uint64_t kVarFlag = 1ULL << 40;
  uint64_t s = 0, p = 0, o = 0;
  bool dead = false;  // A constant term absent from this KG: no matches.

  static bool IsSlot(uint64_t c) { return (c & kVarFlag) != 0; }
  static size_t Slot(uint64_t c) { return static_cast<size_t>(c & ~kVarFlag); }
};

// One join step of a plan: which pattern to execute next and its
// cardinality estimate at planning time.
struct PlanStep {
  size_t pattern = 0;   // Index into the compiled pattern list.
  size_t estimate = 0;  // Estimated matches when the step was chosen.
};

struct JoinPlan {
  std::vector<PlanStep> steps;
  // True when the chosen order differs from the textual pattern order.
  bool reordered = false;
};

// Fan-in heuristic: a component whose variable is already bound behaves
// like a constant of unknown value, so its estimate is divided by this
// factor (the average out-degree assumed for a bound join key).
inline constexpr size_t kBoundDiscount = 64;

// Estimated number of matches of `cp` given which slots are bound.  Constant
// components index the store exactly (Locate range size via
// EstimateMatches); components whose slot is bound are treated as constants
// of unknown value, each dividing the estimate by a fixed fan-in heuristic.
// A dead pattern estimates 0.
inline size_t EstimateTripleCost(const store::TripleStore& store,
                                 const CompiledTriple& cp,
                                 const std::vector<bool>& bound) {
  if (cp.dead) return 0;
  auto comp = [](uint64_t c) -> rdf::TermId {
    if (!CompiledTriple::IsSlot(c)) return static_cast<rdf::TermId>(c);
    return rdf::kNullTermId;
  };
  size_t est = store.EstimateMatches(comp(cp.s), comp(cp.p), comp(cp.o));
  auto discount = [&](uint64_t c, size_t e) {
    if (CompiledTriple::IsSlot(c) && bound[CompiledTriple::Slot(c)]) {
      return std::max<size_t>(1, e / kBoundDiscount);
    }
    return e;
  };
  est = discount(cp.s, est);
  est = discount(cp.p, est);
  est = discount(cp.o, est);
  return est;
}

// Greedy selectivity plan over `patterns`.  `bound[slot]` marks slots bound
// by the incoming solution rows (text patterns / VALUES); the planner
// extends it internally as steps are chosen.  Deterministic: equal
// estimates fall back to pattern order.
inline JoinPlan PlanJoins(const store::TripleStore& store,
                          const std::vector<CompiledTriple>& patterns,
                          std::vector<bool> bound) {
  JoinPlan plan;
  plan.steps.reserve(patterns.size());
  std::vector<bool> used(patterns.size(), false);
  for (size_t step = 0; step < patterns.size(); ++step) {
    // Pick the cheapest unused pattern; strict < keeps ties on the earliest
    // pattern index, so plans are deterministic for tied cardinalities.
    size_t best = patterns.size();
    size_t best_cost = std::numeric_limits<size_t>::max();
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (used[i]) continue;
      size_t cost = EstimateTripleCost(store, patterns[i], bound);
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    used[best] = true;
    plan.steps.push_back(PlanStep{best, best_cost});
    if (best != step) plan.reordered = true;
    const CompiledTriple& cp = patterns[best];
    for (uint64_t c : {cp.s, cp.p, cp.o}) {
      if (CompiledTriple::IsSlot(c)) bound[CompiledTriple::Slot(c)] = true;
    }
  }
  return plan;
}

}  // namespace kgqan::sparql

#endif  // KGQAN_SPARQL_PLANNER_H_
