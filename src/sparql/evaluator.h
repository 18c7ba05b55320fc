// SPARQL query evaluation over a TripleStore + TextIndex.
//
// The evaluator compiles the query's variables to dense slots, seeds
// bindings from `bif:contains` text patterns (in text-index relevance
// order, so LIMIT keeps the best matches), joins triple patterns in the
// order chosen by the cardinality planner (sparql/planner.h), then applies
// OPTIONAL groups (left join) and FILTER expressions.
//
// Two execution models share that plan: the row-at-a-time path (a Binding
// vector per solution) and the opt-in vectorized path (EvalOptions::
// vectorized), which carries solutions as columnar TermId batches through
// broadcast/hash/probe join kernels.  Both compose with intra-query morsel
// sharding, and every mode is result-identical to the serial row path:
// same rows, same order, same caps.

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

namespace kgqan::util {
class ThreadPool;
}  // namespace kgqan::util

namespace kgqan::store {
class CompactStore;
}  // namespace kgqan::store

namespace kgqan::sparql {

struct EvalOptions {
  // Hard cap on intermediate/solution rows, like the result caps of public
  // SPARQL endpoints.  Evaluation stops (successfully) when reached.
  size_t max_rows = 100000;
  // Cap on candidates pulled from the text index per bif:contains pattern.
  size_t text_candidate_limit = 4096;
  // Intra-query parallelism: > 1 (with a non-null eval_pool) shards the
  // join steps into morsels executed on the pool.  The sharded path is
  // result-identical to the serial one (same rows, same order); 1 keeps
  // the exact legacy serial code path with zero extra allocations.
  size_t intra_query_threads = 1;
  // Pool the morsels run on; the calling thread always participates, so
  // evaluation never blocks on a saturated pool (see util::ParallelFor).
  // Not owned.  Ignored when intra_query_threads <= 1.
  util::ThreadPool* eval_pool = nullptr;
  // A join step only shards when its total located scan width is at least
  // this many triples (below it, fan-out overhead dominates), and each
  // morsel covers at least min_morsel_triples.  Tests lower both to force
  // sharding on tiny graphs.
  size_t min_shard_work = 4096;
  size_t min_morsel_triples = 1024;
  // Columnar execution: solutions flow as batches of term-id column
  // vectors through broadcast/hash/probe join kernels instead of
  // row-at-a-time Bindings.  Result-identical to the row path (same rows,
  // same order); composes with intra_query_threads.
  bool vectorized = false;
  // Vectorized work units per deadline re-check: every batch_size scanned
  // triples / emitted rows is a batch boundary where cancellation is
  // polled, so deadlines bite mid-scan at any kernel size.
  size_t batch_size = 1024;
  // Testing hook: microseconds slept at every batch boundary, to make
  // per-batch cancellation observable on small graphs.  0 in production.
  size_t testing_batch_delay_us = 0;
};

// Per-operator runtime statistics for EXPLAIN ANALYZE: one entry per
// executed join step, in execution order, with the planner's cardinality
// estimate next to the actual row counts so misestimates are visible per
// query instead of via ad-hoc benching.
struct OperatorStats {
  size_t pattern = 0;   // Pattern index within its group (plan input order).
  size_t order = 0;     // Execution position chosen by the planner.
  size_t estimate = 0;  // Planner cardinality estimate (Locate range size).
  size_t rows_in = 0;   // Solution rows entering the step.
  size_t rows_out = 0;  // Solution rows leaving it.
  size_t batches = 0;   // Batch boundaries crossed (vectorized path only).
  size_t morsels = 0;   // Morsels spawned (sharded row path only).
  std::string kernel;   // serial | sharded | broadcast | hash | probe.
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
// candidate-query evaluation when EXPLAIN ANALYZE or a sampled trace asks
// for per-operator detail; unbound evaluation skips all collection.
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
                                   const text::TextIndex& text_index,
                                   const EvalOptions& options = {});

// Compact-store overload (store v2): same evaluator and planner on the
// compressed CSR backend.  CompactScanRange sizes count exactly the
// matching triples, so plans — and therefore result bytes — are identical
// to the v1 store on the same graph.
util::StatusOr<ResultSet> Evaluate(const Query& query,
                                   const store::CompactStore& store,
                                   const text::TextIndex& text_index,
                                   const EvalOptions& options = {});

}  // namespace kgqan::sparql

#endif  // KGQAN_SPARQL_EVALUATOR_H_
