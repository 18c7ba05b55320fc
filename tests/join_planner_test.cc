// Unit tests for the cardinality-based join planner (sparql/planner.h):
// estimates must equal the store's exact Locate() range sizes for constant
// components, bound-variable discounting and greedy ordering must be
// deterministic (ties fall back to pattern position), and adversarial BGP
// shapes — cartesian products, unbound-predicate scans, empty groups,
// filters referencing late-bound variables — must evaluate to the expected
// solutions regardless of the order the planner picks.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "rdf/graph.h"
#include "sparql/ast.h"
#include "sparql/evaluator.h"
#include "sparql/planner.h"
#include "store/triple_store.h"
#include "text/text_index.h"

namespace kgqan::sparql {
namespace {

using rdf::kNullTermId;
using rdf::TermId;
using store::TripleStore;

constexpr uint64_t kVar = CompiledTriple::kVarFlag;

// A deliberately skewed graph: one wide predicate (hub fan-out), one narrow
// predicate, and a singleton fact, so cardinality estimates actually spread.
rdf::Graph SkewedGraph() {
  rdf::Graph g;
  for (int i = 0; i < 60; ++i) {
    g.AddIris("http://x/hub", "http://x/wide",
              "http://x/w" + std::to_string(i));
  }
  for (int i = 0; i < 6; ++i) {
    g.AddIris("http://x/n" + std::to_string(i), "http://x/narrow",
              "http://x/hub");
  }
  g.AddIris("http://x/solo", "http://x/unique", "http://x/hub");
  return g;
}

TermId Id(const TripleStore& store, const std::string& iri) {
  auto id = store.dictionary().FindIri(iri);
  EXPECT_TRUE(id.has_value()) << iri;
  return id.value_or(kNullTermId);
}

TEST(JoinPlannerTest, EstimatesAreExactForConstantComponents) {
  TripleStore store(SkewedGraph());
  TermId hub = Id(store, "http://x/hub");
  TermId wide = Id(store, "http://x/wide");
  TermId narrow = Id(store, "http://x/narrow");
  std::vector<bool> bound(4, false);

  // <hub> <wide> ?o — both constants are a key prefix of one permutation,
  // so the estimate is the exact match count.
  CompiledTriple cp{hub, wide, kVar | 0};
  EXPECT_EQ(EstimateTripleCost(store, cp, bound),
            store.CountMatches(hub, wide, kNullTermId));
  EXPECT_EQ(EstimateTripleCost(store, cp, bound), 60u);

  // ?s <narrow> ?o — predicate-only scan.
  CompiledTriple narrow_scan{kVar | 0, narrow, kVar | 1};
  EXPECT_EQ(EstimateTripleCost(store, narrow_scan, bound),
            store.CountMatches(kNullTermId, narrow, kNullTermId));
  EXPECT_EQ(EstimateTripleCost(store, narrow_scan, bound), 6u);

  // ?s ?p ?o — full wildcard equals the store size.
  CompiledTriple wild{kVar | 0, kVar | 1, kVar | 2};
  EXPECT_EQ(EstimateTripleCost(store, wild, bound), store.size());

  // ?s ?p <hub> — object-only constant, again an exact range.
  CompiledTriple obj{kVar | 0, kVar | 1, hub};
  EXPECT_EQ(EstimateTripleCost(store, obj, bound),
            store.CountMatches(kNullTermId, kNullTermId, hub));
  EXPECT_EQ(EstimateTripleCost(store, obj, bound), 7u);
}

TEST(JoinPlannerTest, BoundSlotsDiscountAndDeadPatternsAreFree) {
  TripleStore store(SkewedGraph());
  TermId wide = Id(store, "http://x/wide");
  // ?s <wide> ?o scans 60 triples unbound; with ?s bound it behaves like a
  // constant of unknown value: 60 / kBoundDiscount(64) floors to 1.
  CompiledTriple cp{kVar | 0, wide, kVar | 1};
  std::vector<bool> unbound(2, false);
  std::vector<bool> s_bound = {true, false};
  EXPECT_EQ(EstimateTripleCost(store, cp, unbound), 60u);
  EXPECT_EQ(EstimateTripleCost(store, cp, s_bound), 1u);

  CompiledTriple dead{kVar | 0, wide, kVar | 1};
  dead.dead = true;
  EXPECT_EQ(EstimateTripleCost(store, dead, unbound), 0u);
}

TEST(JoinPlannerTest, GreedyOrderPicksSelectivePatternFirst) {
  TripleStore store(SkewedGraph());
  TermId hub = Id(store, "http://x/hub");
  TermId wide = Id(store, "http://x/wide");
  TermId unique = Id(store, "http://x/unique");
  // Textual order: the 60-row scan first, the singleton second.  The plan
  // must flip them and record the estimates it chose on.
  std::vector<CompiledTriple> patterns = {
      {hub, wide, kVar | 0},        // 60 matches.
      {kVar | 1, unique, kVar | 2}  // 1 match.
  };
  JoinPlan plan = PlanJoins(store, patterns, std::vector<bool>(3, false));
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].pattern, 1u);
  EXPECT_EQ(plan.steps[0].estimate, 1u);
  EXPECT_EQ(plan.steps[1].pattern, 0u);
  EXPECT_EQ(plan.steps[1].estimate, 60u);
  EXPECT_TRUE(plan.reordered);
}

TEST(JoinPlannerTest, TiesBreakOnEarliestPatternDeterministically) {
  TripleStore store(SkewedGraph());
  TermId narrow = Id(store, "http://x/narrow");
  // Two identical 6-row scans: equal estimates must keep textual order, and
  // replanning must reproduce the same steps (the plan is a pure function).
  std::vector<CompiledTriple> patterns = {
      {kVar | 0, narrow, kVar | 1},
      {kVar | 2, narrow, kVar | 3},
  };
  JoinPlan plan = PlanJoins(store, patterns, std::vector<bool>(4, false));
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].pattern, 0u);
  EXPECT_EQ(plan.steps[1].pattern, 1u);
  EXPECT_FALSE(plan.reordered);
  for (int i = 0; i < 3; ++i) {
    JoinPlan again = PlanJoins(store, patterns, std::vector<bool>(4, false));
    ASSERT_EQ(again.steps.size(), plan.steps.size());
    for (size_t s = 0; s < plan.steps.size(); ++s) {
      EXPECT_EQ(again.steps[s].pattern, plan.steps[s].pattern);
      EXPECT_EQ(again.steps[s].estimate, plan.steps[s].estimate);
    }
  }
}

TEST(JoinPlannerTest, ChosenStepsBindSlotsForLaterEstimates) {
  TripleStore store(SkewedGraph());
  TermId narrow = Id(store, "http://x/narrow");
  TermId wide = Id(store, "http://x/wide");
  // ?a <narrow> ?b (6 rows) then ?b <wide> ?c (60 rows raw): after the
  // first step binds ?b, the second estimate is discounted to 1, and the
  // recorded estimates must show exactly that.
  std::vector<CompiledTriple> patterns = {
      {kVar | 0, narrow, kVar | 1},
      {kVar | 1, wide, kVar | 2},
  };
  JoinPlan plan = PlanJoins(store, patterns, std::vector<bool>(3, false));
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].pattern, 0u);
  EXPECT_EQ(plan.steps[0].estimate, 6u);
  EXPECT_EQ(plan.steps[1].pattern, 1u);
  EXPECT_EQ(plan.steps[1].estimate, 1u);
}

TEST(JoinPlannerTest, EmptyAndAllDeadInputsPlanCleanly) {
  TripleStore store(SkewedGraph());
  JoinPlan empty = PlanJoins(store, {}, {});
  EXPECT_TRUE(empty.steps.empty());
  EXPECT_FALSE(empty.reordered);

  CompiledTriple dead{kVar | 0, kVar | 1, kVar | 2};
  dead.dead = true;
  JoinPlan dead_plan =
      PlanJoins(store, {dead, dead}, std::vector<bool>(3, false));
  ASSERT_EQ(dead_plan.steps.size(), 2u);
  EXPECT_EQ(dead_plan.steps[0].estimate, 0u);
  EXPECT_EQ(dead_plan.steps[1].estimate, 0u);
}

// ---------------------------------------------------------------------------
// Adversarial BGP shapes: whatever order the planner picks, the evaluator
// must return exactly the expected solutions.

struct EvalFixture {
  TripleStore store;
  text::TextIndex index;

  explicit EvalFixture(rdf::Graph g) : store(std::move(g)), index(store) {}

  void ExpectRows(const Query& query, size_t expect_rows) {
    auto result = Evaluate(query, store, index);
    ASSERT_TRUE(result.ok()) << result.status();
    if (result->is_ask()) {
      EXPECT_TRUE(result->ask_value());
    } else {
      EXPECT_EQ(result->NumRows(), expect_rows);
    }
  }
};

TriplePattern Pat(TermOrVar s, TermOrVar p, TermOrVar o) {
  return TriplePattern{std::move(s), std::move(p), std::move(o)};
}

TEST(JoinPlannerTest, CartesianProductCorrectInAnyOrder) {
  rdf::Graph g;
  for (int i = 0; i < 5; ++i) {
    g.AddIris("http://x/a" + std::to_string(i), "http://x/p", "http://x/ta");
  }
  for (int i = 0; i < 4; ++i) {
    g.AddIris("http://x/b" + std::to_string(i), "http://x/q", "http://x/tb");
  }
  EvalFixture fx(std::move(g));
  // Two patterns sharing no variables: a 5 × 4 cartesian product.
  Query query;
  query.form = Query::Form::kSelect;
  query.select_all = true;
  query.where.triples.push_back(Pat(TermOrVar{Var{"x"}},
                                    TermOrVar{rdf::Iri("http://x/p")},
                                    TermOrVar{Var{"y"}}));
  query.where.triples.push_back(Pat(TermOrVar{Var{"u"}},
                                    TermOrVar{rdf::Iri("http://x/q")},
                                    TermOrVar{Var{"v"}}));
  fx.ExpectRows(query, 20);
}

TEST(JoinPlannerTest, UnboundPredicateScanJoinsCorrectly) {
  EvalFixture fx(SkewedGraph());
  // ?s ?p <hub> joined with an unbound-predicate fan-out from ?s: the
  // planner must start from the bound-object side and the ?p wildcard must
  // still enumerate every predicate.
  Query query;
  query.form = Query::Form::kSelect;
  query.select_all = true;
  query.where.triples.push_back(Pat(TermOrVar{Var{"s"}}, TermOrVar{Var{"p"}},
                                    TermOrVar{rdf::Iri("http://x/hub")}));
  query.where.triples.push_back(
      Pat(TermOrVar{Var{"s"}}, TermOrVar{Var{"q"}}, TermOrVar{Var{"o"}}));
  // 7 triples point at hub; each of those subjects has exactly 1 outgoing
  // triple (narrow / unique sources), so the join is 7 rows.
  fx.ExpectRows(query, 7);
}

TEST(JoinPlannerTest, EmptyBgpEvaluates) {
  EvalFixture fx(SkewedGraph());
  // ASK {} — no triples at all: one empty solution, ASK true.
  Query ask;
  ask.form = Query::Form::kAsk;
  fx.ExpectRows(ask, 0);

  // SELECT over VALUES only (still no triple patterns).
  Query values_only;
  values_only.form = Query::Form::kSelect;
  values_only.select_vars.push_back(Var{"v"});
  InlineValues iv;
  iv.var = Var{"v"};
  iv.values.push_back(rdf::Iri("http://x/hub"));
  iv.values.push_back(rdf::Iri("http://x/solo"));
  values_only.where.values.push_back(std::move(iv));
  fx.ExpectRows(values_only, 2);
}

TEST(JoinPlannerTest, FilterReferencingLaterBoundVariable) {
  EvalFixture fx(SkewedGraph());
  // The filter references ?o, textually bound only by the *last* pattern.
  // Filters apply after the joins, so any plan order must agree.
  Query query;
  query.form = Query::Form::kSelect;
  query.select_all = true;
  query.where.triples.push_back(Pat(TermOrVar{rdf::Iri("http://x/hub")},
                                    TermOrVar{rdf::Iri("http://x/wide")},
                                    TermOrVar{Var{"w"}}));
  query.where.triples.push_back(Pat(TermOrVar{Var{"s"}},
                                    TermOrVar{rdf::Iri("http://x/narrow")},
                                    TermOrVar{Var{"o"}}));
  Expr is_iri;
  is_iri.op = ExprOp::kIsIri;
  Expr leaf;
  leaf.op = ExprOp::kVar;
  leaf.var = Var{"o"};
  is_iri.lhs = std::make_unique<Expr>(std::move(leaf));
  query.where.filters.push_back(std::move(is_iri));
  // 60 wide × 6 narrow rows, all passing isIRI(?o).
  fx.ExpectRows(query, 360);
}

}  // namespace
}  // namespace kgqan::sparql
