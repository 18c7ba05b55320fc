// SPARQL query evaluation over a TripleStore + TextIndex.
//
// The evaluator compiles the query's variables to dense slots, seeds
// bindings from `bif:contains` text patterns (in text-index relevance
// order, so LIMIT keeps the best matches), joins triple patterns in the
// order chosen by the cardinality planner (sparql/planner.h), then applies
// OPTIONAL groups (left join) and FILTER expressions.
//
// Execution is serial and row-at-a-time: each solution is a vector of term
// ids, and each join step extends every row by its pattern's matches in
// (row, index) order.  KGQAn's candidate queries are BGPs of one to three
// patterns plus text and predicate probes, so a single runtime suffices.
// Join scans poll the calling thread's cancellation token, so serving
// deadlines bite mid-scan.

#ifndef KGQAN_SPARQL_EVALUATOR_H_
#define KGQAN_SPARQL_EVALUATOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "sparql/ast.h"
#include "sparql/result_set.h"
#include "store/triple_store.h"
#include "text/text_index.h"
#include "util/status.h"

namespace kgqan::sparql {

// Per-operator runtime statistics for EXPLAIN ANALYZE: one entry per
// executed join step, in execution order (a group evaluated once per input
// row, like an OPTIONAL, repeats its steps), with the planner's cardinality
// estimate next to the actual row counts so misestimates are visible per
// query instead of via ad-hoc benching.
struct OperatorStats {
  // Group the step ran in: the query's groups numbered in pre-order, WHERE
  // = 0, then each UNION branch and OPTIONAL in evaluation order.
  size_t group = 0;
  size_t pattern = 0;   // Pattern index within its group (plan input order).
  size_t order = 0;     // Execution position chosen by the planner.
  size_t estimate = 0;  // Planner cardinality estimate (Locate range size).
  size_t rows_in = 0;   // Solution rows entering the step.
  size_t rows_out = 0;  // Solution rows leaving it.
  double ms = 0.0;
};

// Sink for the operator stats of the evaluations on one thread, bound via
// ScopedEvalProfile.  `dropped` counts entries past the retention cap
// (recursive OPTIONAL evaluation can execute one step per input row).
struct EvalProfile {
  static constexpr size_t kMaxOperators = 256;
  std::vector<OperatorStats> operators;
  size_t dropped = 0;

  void Add(OperatorStats stats) {
    if (operators.size() >= kMaxOperators) {
      ++dropped;
      return;
    }
    operators.push_back(std::move(stats));
  }
};

// Binds `profile` as the calling thread's operator-stats sink for the
// duration of the scope (nullptr = unbind).  The engine binds one around
// candidate-query evaluation when a recording trace asks for per-operator
// detail; unbound evaluation skips all collection.
class ScopedEvalProfile {
 public:
  explicit ScopedEvalProfile(EvalProfile* profile);
  ~ScopedEvalProfile();

  ScopedEvalProfile(const ScopedEvalProfile&) = delete;
  ScopedEvalProfile& operator=(const ScopedEvalProfile&) = delete;

 private:
  EvalProfile* saved_;
};

// The calling thread's bound sink, or nullptr.
EvalProfile* CurrentEvalProfile();

// Evaluates `query` against `store` / `text_index`.
util::StatusOr<ResultSet> Evaluate(const Query& query,
                                   const store::TripleStore& store,
                                   const text::TextIndex& text_index);

}  // namespace kgqan::sparql

#endif  // KGQAN_SPARQL_EVALUATOR_H_
