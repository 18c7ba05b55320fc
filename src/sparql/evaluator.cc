#include "sparql/evaluator.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparql/planner.h"
#include "store/compact_store.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace kgqan::sparql {

namespace {

EvalProfile*& CurrentEvalProfileSlot() {
  thread_local EvalProfile* profile = nullptr;
  return profile;
}

}  // namespace

ScopedEvalProfile::ScopedEvalProfile(EvalProfile* profile)
    : saved_(CurrentEvalProfileSlot()) {
  CurrentEvalProfileSlot() = profile;
}

ScopedEvalProfile::~ScopedEvalProfile() { CurrentEvalProfileSlot() = saved_; }

EvalProfile* CurrentEvalProfile() { return CurrentEvalProfileSlot(); }

namespace {

using rdf::kNullTermId;
using rdf::Term;
using rdf::TermId;
using util::Status;
using util::StatusOr;

// A solution row: slot -> term id (kNullTermId = unbound).
using Binding = std::vector<TermId>;

// Maps variable names to dense slots across the whole query.
class SlotMap {
 public:
  size_t SlotOf(const std::string& name) {
    auto it = slots_.find(name);
    if (it != slots_.end()) return it->second;
    size_t slot = slots_.size();
    slots_.emplace(name, slot);
    return slot;
  }
  std::optional<size_t> Find(const std::string& name) const {
    auto it = slots_.find(name);
    if (it == slots_.end()) return std::nullopt;
    return it->second;
  }
  size_t size() const { return slots_.size(); }

 private:
  std::unordered_map<std::string, size_t> slots_;
};

void CollectVars(const GroupGraphPattern& group, SlotMap* slots) {
  auto visit = [&](const TermOrVar& tv) {
    if (IsVar(tv)) slots->SlotOf(AsVar(tv).name);
  };
  for (const TriplePattern& tp : group.triples) {
    visit(tp.s);
    visit(tp.p);
    visit(tp.o);
  }
  for (const TextPattern& tp : group.text_patterns) {
    slots->SlotOf(tp.var.name);
  }
  for (const InlineValues& iv : group.values) {
    slots->SlotOf(iv.var.name);
  }
  for (const GroupGraphPattern& opt : group.optionals) {
    CollectVars(opt, slots);
  }
  for (const auto& branches : group.unions) {
    for (const GroupGraphPattern& branch : branches) {
      CollectVars(branch, slots);
    }
  }
}

// A columnar batch of solution rows: one TermId vector per variable slot.
// Row r of the batch is (cols_[0][r], ..., cols_[n-1][r]); kNullTermId
// marks an unbound slot, exactly as in the row-at-a-time Binding.  The
// vectorized evaluation path carries these instead of Binding vectors, so
// a join step touches a handful of contiguous arrays instead of one heap
// allocation per intermediate row.
class Chunk {
 public:
  explicit Chunk(size_t num_slots) : cols_(num_slots) {}

  size_t rows() const { return rows_; }
  size_t num_slots() const { return cols_.size(); }
  TermId At(size_t row, size_t slot) const { return cols_[slot][row]; }
  const std::vector<TermId>& Col(size_t slot) const { return cols_[slot]; }

  void Reserve(size_t n) {
    for (std::vector<TermId>& col : cols_) col.reserve(n);
  }
  void AppendNullRow() {
    for (std::vector<TermId>& col : cols_) col.push_back(kNullTermId);
    ++rows_;
  }
  void AppendRow(const Chunk& src, size_t r) {
    for (size_t s = 0; s < cols_.size(); ++s) {
      cols_[s].push_back(src.cols_[s][r]);
    }
    ++rows_;
  }
  // Appends src row r with one slot overwritten (VALUES / text fan-out).
  void AppendRowSet(const Chunk& src, size_t r, size_t slot, TermId v) {
    for (size_t s = 0; s < cols_.size(); ++s) {
      cols_[s].push_back(s == slot ? v : src.cols_[s][r]);
    }
    ++rows_;
  }
  // Extends this batch with a join result: input row `r` with the pattern
  // slots overwritten from `t` per the source map (0 = input column,
  // 1/2/3 = t.s/t.p/t.o; the map is built in s,p,o order so a variable
  // repeated within one pattern keeps the row path's last-write-wins).
  void AppendJoinRow(const Chunk& in, size_t r, const rdf::Triple& t,
                     const std::vector<uint8_t>& src) {
    for (size_t s = 0; s < cols_.size(); ++s) {
      TermId v;
      switch (src[s]) {
        case 1:
          v = t.s;
          break;
        case 2:
          v = t.p;
          break;
        case 3:
          v = t.o;
          break;
        default:
          v = in.cols_[s][r];
          break;
      }
      cols_[s].push_back(v);
    }
    ++rows_;
  }
  // Bulk-appends the first rows of `other` until this batch holds `cap`
  // rows — the ordered-merge truncation, done column-wise.
  void AppendChunkCapped(const Chunk& other, size_t cap) {
    if (rows_ >= cap) return;
    size_t take = std::min(other.rows_, cap - rows_);
    for (size_t s = 0; s < cols_.size(); ++s) {
      cols_[s].insert(cols_[s].end(), other.cols_[s].begin(),
                      other.cols_[s].begin() + static_cast<ptrdiff_t>(take));
    }
    rows_ += take;
  }
  Binding ToBinding(size_t r) const {
    Binding b(cols_.size(), kNullTermId);
    for (size_t s = 0; s < cols_.size(); ++s) b[s] = cols_[s][r];
    return b;
  }

 private:
  std::vector<std::vector<TermId>> cols_;
  size_t rows_ = 0;
};

// Row view over a Chunk with Binding's operator[] shape, so FILTER and
// aggregate evaluation are shared between the two representations.
struct ChunkRow {
  const Chunk* chunk;
  size_t row;
  TermId operator[](size_t slot) const { return chunk->At(row, slot); }
};

// How a pattern component relates to the rows of one input batch.  The
// kernels classify from the *actual columns*, never from the planner's
// bound-slot set: after UNION concatenation a slot can be bound in some
// rows and unbound in others (kMixed), which only the per-row probe kernel
// handles.
enum class CompKind : uint8_t {
  kConst,    // A constant term id.
  kFree,     // A slot unbound in every row: wildcard.
  kVarying,  // A slot bound in every row: join key.
  kMixed,    // Bound in some rows only: probe per row.
};

// Generic over the store: store::TripleStore (v1) or store::CompactStore.
// StoreT supplies dictionary(), Locate() -> StoreT::Range,
// Match/MatchRange, Partition(Range, n) and EstimateMatches with identical
// semantics; every ordering and cap decision below is expressed against
// that contract, which is what makes the compact store byte-identical to
// v1 on the same graph.
template <typename StoreT>
class Evaluator {
 public:
  Evaluator(const StoreT& store, const text::TextIndex& text_index,
            const EvalOptions& options)
      : store_(store), text_index_(text_index), options_(options),
        profile_(CurrentEvalProfile()) {
    // Per-step analysis (operator stats, step spans) runs only when a
    // profile sink is bound or the active trace records spans — unsampled
    // serving keeps the exact pre-existing cost profile.
    obs::Trace* trace = obs::CurrentTrace();
    analyze_ =
        profile_ != nullptr || (trace != nullptr && trace->spans_enabled());
  }

  StatusOr<ResultSet> Run(const Query& query) {
    CollectVars(query.where, &slots_);
    // Register aggregate / projection vars so projection can resolve them.
    for (const Var& v : query.select_vars) slots_.SlotOf(v.name);
    for (const CountAggregate& agg : query.aggregates) {
      slots_.SlotOf(agg.var.name);
    }

    if (options_.vectorized) {
      Chunk chunk(slots_.size());
      chunk.AppendNullRow();
      KGQAN_ASSIGN_OR_RETURN(chunk,
                             EvalGroupChunked(query.where, std::move(chunk)));
      if (query.form == Query::Form::kAsk) {
        return ResultSet::Ask(chunk.rows() > 0);
      }
      return ProjectChunk(query, std::move(chunk));
    }

    std::vector<Binding> rows;
    rows.push_back(Binding(slots_.size(), kNullTermId));
    KGQAN_ASSIGN_OR_RETURN(rows, EvalGroup(query.where, std::move(rows)));

    if (query.form == Query::Form::kAsk) {
      return ResultSet::Ask(!rows.empty());
    }
    return Project(query, std::move(rows));
  }

 private:
  uint64_t Compile(const TermOrVar& tv, bool* dead) {
    if (IsVar(tv)) {
      return CompiledTriple::kVarFlag |
             static_cast<uint64_t>(slots_.SlotOf(AsVar(tv).name));
    }
    auto id = store_.dictionary().Find(AsTerm(tv));
    if (!id.has_value()) {
      *dead = true;
      return 0;
    }
    return *id;
  }

  std::vector<CompiledTriple> CompileTriples(const GroupGraphPattern& group) {
    std::vector<CompiledTriple> patterns;
    patterns.reserve(group.triples.size());
    for (const TriplePattern& tp : group.triples) {
      CompiledTriple cp;
      cp.s = Compile(tp.s, &cp.dead);
      cp.p = Compile(tp.p, &cp.dead);
      cp.o = Compile(tp.o, &cp.dead);
      patterns.push_back(cp);
    }
    return patterns;
  }

  // Slots bound by the incoming solution rows, read off the first row (the
  // rows of one group share a bound set except after union concatenation,
  // where a wrong guess only costs the planner estimate quality — the
  // kernels classify boundness from the actual columns).  Planning input
  // only.
  std::vector<bool> BoundSlots(const std::vector<Binding>& rows) const {
    std::vector<bool> bound(slots_.size(), false);
    if (!rows.empty()) {
      for (size_t i = 0; i < slots_.size(); ++i) {
        bound[i] = rows.front()[i] != kNullTermId;
      }
    }
    return bound;
  }
  std::vector<bool> BoundSlots(const Chunk& chunk) const {
    std::vector<bool> bound(slots_.size(), false);
    if (chunk.rows() > 0) {
      for (size_t i = 0; i < slots_.size(); ++i) {
        bound[i] = chunk.At(0, i) != kNullTermId;
      }
    }
    return bound;
  }

  // Plan instrumentation, for multi-pattern groups only: single-pattern
  // groups (the linking probes) have nothing to reorder and keep their
  // pre-existing metric footprint.
  void NotePlan(size_t num_patterns, const JoinPlan& plan) {
    if (num_patterns < 2) return;
    ++planned_groups_;
    if (plan.reordered) ++reordered_plans_;
    obs::ScopedSpan span("sparql.plan");
    if (span.recording()) {
      span.AddAttribute("patterns", std::to_string(num_patterns));
      span.AddAttribute("reordered", plan.reordered ? "1" : "0");
      if (!plan.steps.empty()) {
        span.AddAttribute("entry_estimate",
                          std::to_string(plan.steps.front().estimate));
      }
    }
  }

  // Publishes one executed join step to the active span and the bound
  // operator-stats sink.  Called only on the analyze path.
  void NoteStep(const PlanStep& step, size_t order, size_t rows_in,
                size_t rows_out, size_t batches, size_t morsels,
                const char* kernel, obs::ScopedSpan* span) {
    if (span != nullptr && span->recording()) {
      span->AddAttribute("pattern", std::to_string(step.pattern));
      span->AddAttribute("order", std::to_string(order));
      span->AddAttribute("estimate", std::to_string(step.estimate));
      span->AddAttribute("rows_in", std::to_string(rows_in));
      span->AddAttribute("rows_out", std::to_string(rows_out));
      span->AddAttribute("kernel", kernel);
    }
    if (profile_ != nullptr) {
      OperatorStats stats;
      stats.pattern = step.pattern;
      stats.order = order;
      stats.estimate = step.estimate;
      stats.rows_in = rows_in;
      stats.rows_out = rows_out;
      stats.batches = batches;
      stats.morsels = morsels;
      stats.kernel = kernel;
      stats.ms = span != nullptr ? span->ElapsedMillis() : 0.0;
      profile_->Add(std::move(stats));
    }
  }

  // Resolves a compiled component against a binding: a constant id, the
  // bound value of its slot, or kNullTermId (wildcard).
  static TermId Resolve(uint64_t c, const Binding& b) {
    if (!CompiledTriple::IsSlot(c)) return static_cast<TermId>(c);
    return b[CompiledTriple::Slot(c)];
  }
  static TermId ResolveChunk(uint64_t c, const Chunk& in, size_t r) {
    if (!CompiledTriple::IsSlot(c)) return static_cast<TermId>(c);
    return in.At(r, CompiledTriple::Slot(c));
  }

  // Id of `term` for use in bindings: the store id when the term occurs in
  // the KG, otherwise a query-local overlay id above the store's range.
  TermId InternValue(const Term& term) {
    if (auto id = store_.dictionary().Find(term); id.has_value()) return *id;
    auto [it, inserted] =
        overlay_ids_.try_emplace(rdf::ToNTriples(term), TermId{0});
    if (inserted) {
      overlay_terms_.push_back(term);
      it->second = static_cast<TermId>(store_.dictionary().MaxId() +
                                       overlay_terms_.size());
    }
    return it->second;
  }

  // Term lookup that also resolves overlay ids (pre-condition: id is a
  // store id or was returned by InternValue; not kNullTermId).  Returned
  // by value: a compact store's front-coded dictionary decodes terms on
  // demand, so there is no stored Term to reference.
  Term TermOf(TermId id) const {
    TermId max_store = store_.dictionary().MaxId();
    if (id <= max_store) return store_.dictionary().Get(id);
    return overlay_terms_[id - max_store - 1];
  }

  StatusOr<std::vector<Binding>> EvalGroup(const GroupGraphPattern& group,
                                           std::vector<Binding> rows) {
    // 1. Text patterns first: they seed candidate sets in relevance order.
    for (const TextPattern& tp : group.text_patterns) {
      KGQAN_ASSIGN_OR_RETURN(text::ContainsQuery cq,
                             text::ParseContainsQuery(tp.expr));
      std::vector<TermId> candidates =
          text_index_.MatchLiterals(cq, options_.text_candidate_limit);
      size_t slot = slots_.SlotOf(tp.var.name);
      std::vector<Binding> next;
      for (const Binding& row : rows) {
        if (row[slot] != kNullTermId) {
          // Already bound: keep iff it satisfies the text query.
          if (std::find(candidates.begin(), candidates.end(), row[slot]) !=
              candidates.end()) {
            next.push_back(row);
          }
          continue;
        }
        for (TermId cand : candidates) {
          Binding ext = row;
          ext[slot] = cand;
          next.push_back(std::move(ext));
          if (next.size() >= options_.max_rows) break;
        }
        if (next.size() >= options_.max_rows) break;
      }
      rows = std::move(next);
    }

    // 1b. Inline VALUES bindings.  Terms that do not occur in the KG are
    // interned into a query-local overlay dictionary: per SPARQL semantics
    // they still bind (e.g. batch-query discriminator values), they simply
    // can never join a stored triple.
    for (const InlineValues& iv : group.values) {
      size_t slot = slots_.SlotOf(iv.var.name);
      std::vector<TermId> ids;
      for (const Term& t : iv.values) {
        ids.push_back(InternValue(t));
      }
      std::vector<Binding> next;
      for (const Binding& row : rows) {
        if (row[slot] != kNullTermId) {
          if (std::find(ids.begin(), ids.end(), row[slot]) != ids.end()) {
            next.push_back(row);
          }
          continue;
        }
        for (TermId id : ids) {
          Binding ext = row;
          ext[slot] = id;
          next.push_back(std::move(ext));
          if (next.size() >= options_.max_rows) break;
        }
        if (next.size() >= options_.max_rows) break;
      }
      rows = std::move(next);
    }

    // 2. Triple patterns, ordered by the cardinality planner (greedy
    // selectivity over exact Locate range sizes; see sparql/planner.h).
    // Every evaluation mode executes the same plan, so join order — and
    // with it result order — is mode-independent by construction.
    std::vector<CompiledTriple> patterns = CompileTriples(group);
    JoinPlan plan = PlanJoins(store_, patterns, BoundSlots(rows));
    NotePlan(patterns.size(), plan);
    size_t order = 0;
    for (const PlanStep& step : plan.steps) {
      const CompiledTriple& cp = patterns[step.pattern];
      std::vector<Binding> next;
      if (!cp.dead) {
        // Analyze-only step span/stats: the unanalyzed path executes the
        // exact pre-existing statements (no stopwatch, no optional).
        std::optional<obs::ScopedSpan> span;
        if (analyze_) span.emplace("sparql.eval.step");
        const size_t rows_in = rows.size();
        const size_t morsels_before = morsel_count_;
        if (options_.intra_query_threads > 1 &&
            options_.eval_pool != nullptr) {
          KGQAN_ASSIGN_OR_RETURN(next, ShardedJoinStep(cp, rows));
        } else {
          next = SerialJoinStep(cp, rows);
        }
        if (analyze_) {
          const size_t morsels = morsel_count_ - morsels_before;
          NoteStep(step, order, rows_in, next.size(), /*batches=*/0, morsels,
                   morsels > 0 ? "sharded" : "serial",
                   span.has_value() ? &*span : nullptr);
        }
      }
      rows = std::move(next);
      ++order;
      if (rows.empty()) break;
    }

    // 3. UNION blocks: solutions of the branches are concatenated (each
    // branch joins against the incoming rows independently).
    for (const auto& branches : group.unions) {
      std::vector<Binding> next;
      for (const GroupGraphPattern& branch : branches) {
        auto matched = EvalGroup(branch, rows);
        if (!matched.ok()) return matched.status();
        for (Binding& m : *matched) {
          next.push_back(std::move(m));
          if (next.size() >= options_.max_rows) break;
        }
        if (next.size() >= options_.max_rows) break;
      }
      rows = std::move(next);
    }

    // 4. OPTIONAL groups: left join.
    for (const GroupGraphPattern& opt : group.optionals) {
      std::vector<Binding> next;
      for (const Binding& row : rows) {
        std::vector<Binding> seed{row};
        auto matched = EvalGroup(opt, std::move(seed));
        if (!matched.ok()) return matched.status();
        if (matched->empty()) {
          next.push_back(row);
        } else {
          for (Binding& m : *matched) {
            next.push_back(std::move(m));
            if (next.size() >= options_.max_rows) break;
          }
        }
        if (next.size() >= options_.max_rows) break;
      }
      rows = std::move(next);
    }

    // 5. Filters.
    for (const Expr& filter : group.filters) {
      std::vector<Binding> next;
      for (Binding& row : rows) {
        if (EvalExprBool(filter, row)) next.push_back(std::move(row));
      }
      rows = std::move(next);
    }
    return rows;
  }

  // ---- Join-step execution (serial and morsel-sharded row paths) ----

  // The legacy serial join step: extend every row by every match of `cp`,
  // in (row, index) order, capped at max_rows.  This is the
  // intra_query_threads == 1 path and stays byte-identical to the original
  // evaluator (no extra allocations, no polling).
  std::vector<Binding> SerialJoinStep(const CompiledTriple& cp,
                                      const std::vector<Binding>& rows) {
    std::vector<Binding> next;
    for (const Binding& row : rows) {
      TermId s = Resolve(cp.s, row);
      TermId p = Resolve(cp.p, row);
      TermId o = Resolve(cp.o, row);
      store_.Match(s, p, o, [&](const rdf::Triple& t) {
        Binding ext = row;
        if (CompiledTriple::IsSlot(cp.s)) {
          ext[CompiledTriple::Slot(cp.s)] = t.s;
        }
        if (CompiledTriple::IsSlot(cp.p)) {
          ext[CompiledTriple::Slot(cp.p)] = t.p;
        }
        if (CompiledTriple::IsSlot(cp.o)) {
          ext[CompiledTriple::Slot(cp.o)] = t.o;
        }
        next.push_back(std::move(ext));
        return next.size() < options_.max_rows;
      });
      if (next.size() >= options_.max_rows) break;
    }
    return next;
  }

  // One morsel of a sharded join step: a contiguous run of input rows and,
  // in single-row (range-slice) mode, a slice of that row's scan range.
  struct Morsel {
    size_t row_begin = 0;
    size_t row_end = 0;  // Exclusive.
    typename StoreT::Range range;
    TermId s = kNullTermId;
    TermId p = kNullTermId;
    TermId o = kNullTermId;
    bool has_range = false;  // True in range-slice mode.
  };

  // Morsel-driven parallel join step.  Produces exactly SerialJoinStep's
  // rows in exactly its order: the morsels partition the serial (row,
  // index) iteration space contiguously and are merged back in morsel
  // order, and a morsel's local max_rows cap can only drop rows the
  // global cap would have dropped anyway (a morsel's share of the serial
  // first-max_rows prefix is never more than max_rows rows).
  StatusOr<std::vector<Binding>> ShardedJoinStep(
      const CompiledTriple& cp, const std::vector<Binding>& rows) {
    const size_t threads = options_.intra_query_threads;
    const size_t target_morsels = threads * 4;
    std::vector<Morsel> morsels;
    if (rows.size() > std::max<size_t>(64, threads * 8)) {
      // Many input rows: chunk the row list itself; each chunk re-uses the
      // serial per-row locate + scan.
      size_t k = std::min(rows.size(), target_morsels);
      for (size_t i = 0; i < k; ++i) {
        Morsel m;
        m.row_begin = rows.size() * i / k;
        m.row_end = rows.size() * (i + 1) / k;
        if (m.row_end > m.row_begin) morsels.push_back(m);
      }
    } else {
      // Few rows (typically the first pattern's single seed row): slice
      // each row's located index range.
      size_t total = 0;
      std::vector<typename StoreT::Range> ranges;
      std::vector<std::array<TermId, 3>> resolved;
      ranges.reserve(rows.size());
      resolved.reserve(rows.size());
      for (const Binding& row : rows) {
        TermId s = Resolve(cp.s, row);
        TermId p = Resolve(cp.p, row);
        TermId o = Resolve(cp.o, row);
        ranges.push_back(store_.Locate(s, p, o));
        resolved.push_back({s, p, o});
        total += ranges.back().size();
      }
      if (total < options_.min_shard_work) return SerialJoinStep(cp, rows);
      size_t slice = std::max<size_t>(
          {size_t{1}, options_.min_morsel_triples, total / target_morsels});
      for (size_t r = 0; r < rows.size(); ++r) {
        size_t parts = (ranges[r].size() + slice - 1) / slice;
        for (const typename StoreT::Range& part :
             store_.Partition(ranges[r], parts)) {
          Morsel m;
          m.row_begin = r;
          m.row_end = r + 1;
          m.range = part;
          m.s = resolved[r][0];
          m.p = resolved[r][1];
          m.o = resolved[r][2];
          m.has_range = true;
          morsels.push_back(m);
        }
      }
    }
    if (morsels.size() <= 1) return SerialJoinStep(cp, rows);

    obs::ScopedSpan span("sparql.eval.sharded_step");
    std::vector<std::vector<Binding>> outs(morsels.size());
    std::atomic<bool> cancelled{false};
    util::ParallelFor(options_.eval_pool, morsels.size(), [&](size_t m) {
      if (cancelled.load(std::memory_order_relaxed)) return;
      const Morsel& morsel = morsels[m];
      std::vector<Binding>& out = outs[m];
      size_t visited = 0;
      for (size_t r = morsel.row_begin; r < morsel.row_end; ++r) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        const Binding& row = rows[r];
        TermId s, p, o;
        typename StoreT::Range range;
        if (morsel.has_range) {
          s = morsel.s;
          p = morsel.p;
          o = morsel.o;
          range = morsel.range;
        } else {
          s = Resolve(cp.s, row);
          p = Resolve(cp.p, row);
          o = Resolve(cp.o, row);
          range = store_.Locate(s, p, o);
        }
        store_.MatchRange(range, s, p, o, [&](const rdf::Triple& t) {
          // Deadline poll: cheap enough every 256 triples that serving
          // deadlines bite mid-scan, not only between patterns.
          if ((++visited & 255u) == 0 && util::Cancelled()) {
            cancelled.store(true, std::memory_order_relaxed);
            return false;
          }
          Binding ext = row;
          if (CompiledTriple::IsSlot(cp.s)) {
            ext[CompiledTriple::Slot(cp.s)] = t.s;
          }
          if (CompiledTriple::IsSlot(cp.p)) {
            ext[CompiledTriple::Slot(cp.p)] = t.p;
          }
          if (CompiledTriple::IsSlot(cp.o)) {
            ext[CompiledTriple::Slot(cp.o)] = t.o;
          }
          out.push_back(std::move(ext));
          return out.size() < options_.max_rows;
        });
        if (out.size() >= options_.max_rows) break;
      }
    });
    if (cancelled.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("evaluation cancelled mid-scan");
    }

    // Ordered merge: morsel order is serial order; truncate at the global
    // cap exactly where the serial loop would have stopped.
    size_t total_rows = 0;
    for (const std::vector<Binding>& out : outs) total_rows += out.size();
    std::vector<Binding> next;
    next.reserve(std::min(total_rows, options_.max_rows));
    for (std::vector<Binding>& out : outs) {
      for (Binding& b : out) {
        next.push_back(std::move(b));
        if (next.size() >= options_.max_rows) break;
      }
      if (next.size() >= options_.max_rows) break;
    }
    ++sharded_steps_;
    morsel_count_ += morsels.size();
    if (span.recording()) {
      span.AddAttribute("morsels", std::to_string(morsels.size()));
      span.AddAttribute("rows_in", std::to_string(rows.size()));
      span.AddAttribute("rows_out", std::to_string(next.size()));
    }
    static obs::Histogram& step_ms = obs::MetricsRegistry::Global().GetHistogram(
        "sparql.eval.sharded_step_ms");
    step_ms.Record(span.ElapsedMillis());
    return next;
  }

  // ---- Vectorized (columnar) evaluation ----
  //
  // The vectorized path executes the same plan as the row path but carries
  // solutions as Chunks.  Each join step classifies the pattern components
  // against the input columns and picks one of three kernels, every one of
  // which emits in the serial (row, match-index) order with the serial
  // max_rows cap, so the output batch is byte-identical to the row path's
  // output rows:
  //  * broadcast — no varying component: all rows resolve the pattern
  //    identically, so the matches are scanned once and cross-joined.
  //  * hash — build over the constants-only range keyed by the varying
  //    components, probe per row; order-correct because a probe's match
  //    set differs in at most one (wildcard) component, and triples equal
  //    on every other component sort identically in all six permutations.
  //  * probe — the per-row Locate + scan fallback; always correct.

  // One execution context's batch accounting.  Kernels tick once per unit
  // of work (a scanned triple or an emitted row); every batch_size ticks
  // is a batch boundary: the optional testing latency is injected and the
  // serving deadline is re-checked, so cancellation bites mid-scan even
  // when one kernel invocation covers millions of triples.
  struct BatchState {
    size_t work = 0;
    size_t batches = 0;
  };

  // Returns false when the deadline expired at this boundary.
  bool TickBatch(BatchState* bs) const {
    if (++bs->work < options_.batch_size) return true;
    bs->work = 0;
    ++bs->batches;
    if (options_.testing_batch_delay_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.testing_batch_delay_us));
    }
    return !util::Cancelled();
  }

  static CompKind Classify(uint64_t c, const Chunk& in) {
    if (!CompiledTriple::IsSlot(c)) return CompKind::kConst;
    const std::vector<TermId>& col = in.Col(CompiledTriple::Slot(c));
    bool null_seen = false;
    bool bound_seen = false;
    for (size_t r = 0; r < in.rows(); ++r) {
      (col[r] == kNullTermId ? null_seen : bound_seen) = true;
      if (null_seen && bound_seen) return CompKind::kMixed;
    }
    return bound_seen ? CompKind::kVarying : CompKind::kFree;
  }

  // VALUES / text overlay on a batch: rows with the slot already bound are
  // kept iff the value is in `ids`; unbound rows fan out over `ids` in
  // order.  Exactly the row path's loop (including its cap placement:
  // bound keeps are never dropped, fan-outs stop at max_rows), column-wise.
  Chunk OverlayBindChunk(const Chunk& chunk, size_t slot,
                         const std::vector<TermId>& ids) const {
    Chunk next(chunk.num_slots());
    for (size_t r = 0; r < chunk.rows(); ++r) {
      TermId v = chunk.At(r, slot);
      if (v != kNullTermId) {
        if (std::find(ids.begin(), ids.end(), v) != ids.end()) {
          next.AppendRow(chunk, r);
        }
        continue;
      }
      for (TermId id : ids) {
        next.AppendRowSet(chunk, r, slot, id);
        if (next.rows() >= options_.max_rows) break;
      }
      if (next.rows() >= options_.max_rows) break;
    }
    return next;
  }

  // Mirrors EvalGroup phase for phase; every cap and ordering decision is
  // the row path's, executed column-wise.
  StatusOr<Chunk> EvalGroupChunked(const GroupGraphPattern& group,
                                   Chunk chunk) {
    for (const TextPattern& tp : group.text_patterns) {
      KGQAN_ASSIGN_OR_RETURN(text::ContainsQuery cq,
                             text::ParseContainsQuery(tp.expr));
      std::vector<TermId> candidates =
          text_index_.MatchLiterals(cq, options_.text_candidate_limit);
      chunk = OverlayBindChunk(chunk, slots_.SlotOf(tp.var.name), candidates);
    }
    for (const InlineValues& iv : group.values) {
      std::vector<TermId> ids;
      ids.reserve(iv.values.size());
      for (const Term& t : iv.values) ids.push_back(InternValue(t));
      chunk = OverlayBindChunk(chunk, slots_.SlotOf(iv.var.name), ids);
    }

    std::vector<CompiledTriple> patterns = CompileTriples(group);
    JoinPlan plan = PlanJoins(store_, patterns, BoundSlots(chunk));
    NotePlan(patterns.size(), plan);
    size_t order = 0;
    for (const PlanStep& step : plan.steps) {
      const CompiledTriple& cp = patterns[step.pattern];
      Chunk next(chunk.num_slots());
      if (!cp.dead) {
        KGQAN_ASSIGN_OR_RETURN(next,
                               VectorizedJoinStep(cp, step, order, chunk));
      }
      chunk = std::move(next);
      ++order;
      if (chunk.rows() == 0) break;
    }

    for (const auto& branches : group.unions) {
      Chunk next(chunk.num_slots());
      for (const GroupGraphPattern& branch : branches) {
        auto matched = EvalGroupChunked(branch, chunk);
        if (!matched.ok()) return matched.status();
        next.AppendChunkCapped(*matched, options_.max_rows);
        if (next.rows() >= options_.max_rows) break;
      }
      chunk = std::move(next);
    }

    for (const GroupGraphPattern& opt : group.optionals) {
      Chunk next(chunk.num_slots());
      for (size_t r = 0; r < chunk.rows(); ++r) {
        Chunk seed(chunk.num_slots());
        seed.AppendRow(chunk, r);
        auto matched = EvalGroupChunked(opt, std::move(seed));
        if (!matched.ok()) return matched.status();
        if (matched->rows() == 0) {
          next.AppendRow(chunk, r);
        } else {
          next.AppendChunkCapped(*matched, options_.max_rows);
        }
        if (next.rows() >= options_.max_rows) break;
      }
      chunk = std::move(next);
    }

    for (const Expr& filter : group.filters) {
      Chunk next(chunk.num_slots());
      for (size_t r = 0; r < chunk.rows(); ++r) {
        if (EvalExprBool(filter, ChunkRow{&chunk, r})) {
          next.AppendRow(chunk, r);
        }
      }
      chunk = std::move(next);
    }
    return chunk;
  }

  StatusOr<Chunk> VectorizedJoinStep(const CompiledTriple& cp,
                                     const PlanStep& step, size_t order,
                                     const Chunk& in) {
    Chunk out(in.num_slots());
    if (cp.dead || in.rows() == 0) return out;
    obs::ScopedSpan span("sparql.eval.batch_step");
    ++vectorized_steps_;
    const size_t batches_before = batches_;

    // src[slot]: where the output column's value comes from (0 = the input
    // column, 1/2/3 = the matched triple's s/p/o); written in s,p,o order
    // so repeated variables keep last-write-wins.
    std::vector<uint8_t> src(in.num_slots(), 0);
    if (CompiledTriple::IsSlot(cp.s)) src[CompiledTriple::Slot(cp.s)] = 1;
    if (CompiledTriple::IsSlot(cp.p)) src[CompiledTriple::Slot(cp.p)] = 2;
    if (CompiledTriple::IsSlot(cp.o)) src[CompiledTriple::Slot(cp.o)] = 3;

    const CompKind ks = Classify(cp.s, in);
    const CompKind kp = Classify(cp.p, in);
    const CompKind ko = Classify(cp.o, in);
    const bool mixed = ks == CompKind::kMixed || kp == CompKind::kMixed ||
                       ko == CompKind::kMixed;
    const size_t varying = size_t(ks == CompKind::kVarying) +
                           size_t(kp == CompKind::kVarying) +
                           size_t(ko == CompKind::kVarying);
    const size_t wildcards = size_t(ks == CompKind::kFree) +
                             size_t(kp == CompKind::kFree) +
                             size_t(ko == CompKind::kFree);

    const char* kernel = "probe";
    Status status;
    if (!mixed && varying == 0) {
      kernel = "broadcast";
      status = BroadcastKernel(cp, in, src, &out);
    } else {
      bool hashed = false;
      // Hash eligibility: every key fits one uint64 (≤ 2 varying 32-bit
      // components), order stays serial (≤ 1 wildcard component), and the
      // build is worth it (enough probes, bounded build range).
      if (!mixed && varying <= 2 && wildcards <= 1 && in.rows() >= 8) {
        auto build_comp = [](uint64_t c, CompKind k) {
          return k == CompKind::kConst ? static_cast<TermId>(c) : kNullTermId;
        };
        typename StoreT::Range range =
            store_.Locate(build_comp(cp.s, ks), build_comp(cp.p, kp),
                          build_comp(cp.o, ko));
        // The build touches every range triple once (hashing + per-key
        // vector growth) to save one Locate binary search per probe row,
        // so it only pays off while the range is a small multiple of the
        // probe count; past that, per-row probing is strictly cheaper.
        if (range.size() <= 4 * in.rows()) {
          kernel = "hash";
          status = HashKernel(cp, in, src, range, ks, kp, ko, &out);
          hashed = true;
        }
      }
      if (!hashed) status = ProbeKernel(cp, in, src, &out);
    }
    KGQAN_RETURN_IF_ERROR(status);
    if (analyze_) {
      NoteStep(step, order, in.rows(), out.rows(),
               batches_ - batches_before, /*morsels=*/0, kernel, &span);
    }
    static obs::Histogram& step_ms =
        obs::MetricsRegistry::Global().GetHistogram(
            "sparql.eval.batch.step_ms");
    step_ms.Record(span.ElapsedMillis());
    return out;
  }

  // Shards `exec` over contiguous row morsels of `in` on the eval pool and
  // merges the per-morsel outputs in order, truncating at max_rows (the
  // PR-5 merge argument: a morsel's share of the serial first-max_rows
  // prefix is never more than max_rows rows).  `exec(begin, end, dst, bs)`
  // must emit in serial (row, index) order, cap `dst` at max_rows, and
  // return false only on deadline expiry.  Small inputs run inline.
  template <typename ExecFn>
  Status ShardRows(const Chunk& in, Chunk* out, ExecFn&& exec) {
    const size_t threads = options_.intra_query_threads;
    const bool shard = threads > 1 && options_.eval_pool != nullptr &&
                       in.rows() > std::max<size_t>(64, threads * 8);
    if (!shard) {
      BatchState bs;
      bool alive = exec(0, in.rows(), out, &bs);
      batches_ += bs.batches;
      if (!alive) {
        return Status::DeadlineExceeded("evaluation cancelled mid-batch");
      }
      return Status::Ok();
    }
    const size_t k = std::min(in.rows(), threads * 4);
    std::vector<Chunk> outs(k, Chunk(in.num_slots()));
    std::vector<size_t> morsel_batches(k, 0);
    std::atomic<bool> cancelled{false};
    util::ParallelFor(options_.eval_pool, k, [&](size_t i) {
      if (cancelled.load(std::memory_order_relaxed)) return;
      BatchState local;
      bool alive =
          exec(in.rows() * i / k, in.rows() * (i + 1) / k, &outs[i], &local);
      morsel_batches[i] = local.batches;
      if (!alive) cancelled.store(true, std::memory_order_relaxed);
    });
    for (size_t b : morsel_batches) batches_ += b;
    if (cancelled.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("evaluation cancelled mid-batch");
    }
    for (const Chunk& part : outs) {
      out->AppendChunkCapped(part, options_.max_rows);
    }
    return Status::Ok();
  }

  // No varying component: every input row resolves the pattern to the same
  // constants-plus-wildcards lookup (the seed row of a fresh group always
  // lands here), so the matches are scanned exactly once — optionally in
  // parallel range slices — and cross-joined row-major.
  Status BroadcastKernel(const CompiledTriple& cp, const Chunk& in,
                         const std::vector<uint8_t>& src, Chunk* out) {
    auto comp = [](uint64_t c) {
      return CompiledTriple::IsSlot(c) ? kNullTermId : static_cast<TermId>(c);
    };
    const TermId s = comp(cp.s);
    const TermId p = comp(cp.p);
    const TermId o = comp(cp.o);
    const size_t cap = options_.max_rows;
    typename StoreT::Range range = store_.Locate(s, p, o);
    std::vector<rdf::Triple> matches;
    matches.reserve(std::min(range.size(), cap));

    const size_t threads = options_.intra_query_threads;
    std::vector<typename StoreT::Range> slices;
    if (threads > 1 && options_.eval_pool != nullptr &&
        range.size() >= options_.min_shard_work) {
      size_t slice = std::max<size_t>({size_t{1}, options_.min_morsel_triples,
                                       range.size() / (threads * 4)});
      slices = store_.Partition(range, (range.size() + slice - 1) / slice);
    }
    if (slices.size() > 1) {
      // Parallel scan: contiguous slices merged in order are the serial
      // match sequence; truncate at the cap like the serial scan would.
      std::vector<std::vector<rdf::Triple>> parts(slices.size());
      std::vector<size_t> slice_batches(slices.size(), 0);
      std::atomic<bool> cancelled{false};
      util::ParallelFor(options_.eval_pool, slices.size(), [&](size_t i) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        BatchState local;
        store_.MatchRange(slices[i], s, p, o, [&](const rdf::Triple& t) {
          if (!TickBatch(&local)) {
            cancelled.store(true, std::memory_order_relaxed);
            return false;
          }
          parts[i].push_back(t);
          return parts[i].size() < cap;
        });
        slice_batches[i] = local.batches;
      });
      for (size_t b : slice_batches) batches_ += b;
      if (cancelled.load(std::memory_order_relaxed)) {
        return Status::DeadlineExceeded("evaluation cancelled mid-batch");
      }
      for (const std::vector<rdf::Triple>& part : parts) {
        for (const rdf::Triple& t : part) {
          if (matches.size() >= cap) break;
          matches.push_back(t);
        }
        if (matches.size() >= cap) break;
      }
    } else {
      BatchState bs;
      bool expired = false;
      store_.MatchRange(range, s, p, o, [&](const rdf::Triple& t) {
        if (!TickBatch(&bs)) {
          expired = true;
          return false;
        }
        matches.push_back(t);
        return matches.size() < cap;
      });
      batches_ += bs.batches;
      if (expired) {
        return Status::DeadlineExceeded("evaluation cancelled mid-batch");
      }
    }

    // Row-major cross join: row r first, then match order — the serial
    // (row, index) emission order, capped exactly where serial stops.
    BatchState bs;
    out->Reserve(std::min(cap, in.rows() * matches.size()));
    for (size_t r = 0; r < in.rows(); ++r) {
      for (const rdf::Triple& t : matches) {
        if (!TickBatch(&bs)) {
          batches_ += bs.batches;
          return Status::DeadlineExceeded("evaluation cancelled mid-batch");
        }
        out->AppendJoinRow(in, r, t, src);
        if (out->rows() >= cap) break;
      }
      if (out->rows() >= cap) break;
    }
    batches_ += bs.batches;
    return Status::Ok();
  }

  // ≥ 1 varying component: build a hash table over the constants-only
  // range once, grouping triples by their varying components in index
  // order, then probe per input row.  A group's order is the per-row scan
  // order in *any* permutation, because its triples agree on every
  // component except the (at most one) wildcard.
  Status HashKernel(const CompiledTriple& cp, const Chunk& in,
                    const std::vector<uint8_t>& src,
                    const typename StoreT::Range& build_range, CompKind ks,
                    CompKind kp, CompKind ko, Chunk* out) {
    auto build_comp = [](uint64_t c, CompKind k) {
      return k == CompKind::kConst ? static_cast<TermId>(c) : kNullTermId;
    };
    const TermId s = build_comp(cp.s, ks);
    const TermId p = build_comp(cp.p, kp);
    const TermId o = build_comp(cp.o, ko);
    std::unordered_map<uint64_t, std::vector<rdf::Triple>> table;
    {
      BatchState bs;
      bool expired = false;
      store_.MatchRange(build_range, s, p, o, [&](const rdf::Triple& t) {
        if (!TickBatch(&bs)) {
          expired = true;
          return false;
        }
        uint64_t key = 0;
        if (ks == CompKind::kVarying) key = t.s;
        if (kp == CompKind::kVarying) key = (key << 32) | t.p;
        if (ko == CompKind::kVarying) key = (key << 32) | t.o;
        table[key].push_back(t);
        return true;
      });
      batches_ += bs.batches;
      if (expired) {
        return Status::DeadlineExceeded("evaluation cancelled mid-batch");
      }
    }
    const size_t cap = options_.max_rows;
    auto exec = [&](size_t begin, size_t end, Chunk* dst, BatchState* bs) {
      for (size_t r = begin; r < end; ++r) {
        uint64_t key = 0;
        if (ks == CompKind::kVarying) {
          key = in.At(r, CompiledTriple::Slot(cp.s));
        }
        if (kp == CompKind::kVarying) {
          key = (key << 32) | in.At(r, CompiledTriple::Slot(cp.p));
        }
        if (ko == CompKind::kVarying) {
          key = (key << 32) | in.At(r, CompiledTriple::Slot(cp.o));
        }
        auto it = table.find(key);
        if (it == table.end()) continue;
        for (const rdf::Triple& t : it->second) {
          if (!TickBatch(bs)) return false;
          dst->AppendJoinRow(in, r, t, src);
          if (dst->rows() >= cap) break;
        }
        if (dst->rows() >= cap) break;
      }
      return true;
    };
    return ShardRows(in, out, exec);
  }

  // The per-row fallback: Locate + scan for each input row, exactly the
  // serial join step's store access pattern, emitting into columns.
  Status ProbeKernel(const CompiledTriple& cp, const Chunk& in,
                     const std::vector<uint8_t>& src, Chunk* out) {
    const size_t cap = options_.max_rows;
    auto exec = [&](size_t begin, size_t end, Chunk* dst, BatchState* bs) {
      for (size_t r = begin; r < end; ++r) {
        TermId s = ResolveChunk(cp.s, in, r);
        TermId p = ResolveChunk(cp.p, in, r);
        TermId o = ResolveChunk(cp.o, in, r);
        bool expired = false;
        store_.Match(s, p, o, [&](const rdf::Triple& t) {
          if (!TickBatch(bs)) {
            expired = true;
            return false;
          }
          dst->AppendJoinRow(in, r, t, src);
          return dst->rows() < cap;
        });
        if (expired) return false;
        if (dst->rows() >= cap) break;
      }
      return true;
    };
    return ShardRows(in, out, exec);
  }

 public:
  // Number of join steps that actually ran sharded / total morsels they
  // spawned (for the sparql.eval.* registry metrics; 0 on the serial path),
  // plus the vectorized path's step/batch-boundary counts and the planner's
  // multi-pattern group counts.
  size_t sharded_steps() const { return sharded_steps_; }
  size_t morsels() const { return morsel_count_; }
  size_t vectorized_steps() const { return vectorized_steps_; }
  size_t batches() const { return batches_; }
  size_t planned_groups() const { return planned_groups_; }
  size_t reordered_plans() const { return reordered_plans_; }

 private:
  // ---- FILTER expression evaluation ----
  //
  // Templated over the row representation (Binding or ChunkRow) so the
  // row and vectorized paths share one implementation.

  // Three-valued-lite: comparisons involving unbound vars are false.
  template <typename RowT>
  bool EvalExprBool(const Expr& e, const RowT& b) const {
    switch (e.op) {
      case ExprOp::kAnd:
        return EvalExprBool(*e.lhs, b) && EvalExprBool(*e.rhs, b);
      case ExprOp::kOr:
        return EvalExprBool(*e.lhs, b) || EvalExprBool(*e.rhs, b);
      case ExprOp::kNot:
        return !EvalExprBool(*e.lhs, b);
      case ExprOp::kBound: {
        auto slot = slots_.Find(e.var.name);
        return slot.has_value() && b[*slot] != kNullTermId;
      }
      case ExprOp::kEq:
      case ExprOp::kNe:
      case ExprOp::kLt:
      case ExprOp::kLe:
      case ExprOp::kGt:
      case ExprOp::kGe:
        return EvalComparison(e, b);
      case ExprOp::kVar: {
        auto slot = slots_.Find(e.var.name);
        if (!slot.has_value() || b[*slot] == kNullTermId) return false;
        return TermOf(b[*slot]).value == "true";
      }
      case ExprOp::kConstant:
        return e.constant.value == "true";
      case ExprOp::kRegex: {
        std::optional<Term> subject = EvalOperand(*e.lhs, b);
        std::optional<Term> pattern = EvalOperand(*e.rhs, b);
        if (!subject.has_value() || !pattern.has_value()) return false;
        // Construction failures (bad patterns) evaluate to false rather
        // than erroring, matching FILTER error semantics.
        std::regex re;
        if (auto status = CompileRegex(pattern->value, &re); !status) {
          return false;
        }
        return std::regex_search(subject->value, re);
      }
      case ExprOp::kContains: {
        std::optional<Term> hay = EvalOperand(*e.lhs, b);
        std::optional<Term> needle = EvalOperand(*e.rhs, b);
        if (!hay.has_value() || !needle.has_value()) return false;
        return hay->value.find(needle->value) != std::string::npos;
      }
      case ExprOp::kIsIri: {
        std::optional<Term> t = EvalOperand(*e.lhs, b);
        return t.has_value() && t->IsIri();
      }
      case ExprOp::kIsLiteral: {
        std::optional<Term> t = EvalOperand(*e.lhs, b);
        return t.has_value() && t->IsLiteral();
      }
      case ExprOp::kStr:
      case ExprOp::kLang: {
        std::optional<Term> t = EvalOperand(e, b);
        return t.has_value() && !t->value.empty();
      }
    }
    return false;
  }

  static bool CompileRegex(const std::string& pattern, std::regex* out) {
    try {
      *out = std::regex(pattern, std::regex::ECMAScript);
      return true;
    } catch (const std::regex_error&) {
      return false;
    }
  }

  template <typename RowT>
  std::optional<Term> EvalOperand(const Expr& e, const RowT& b) const {
    if (e.op == ExprOp::kConstant) return e.constant;
    if (e.op == ExprOp::kVar) {
      auto slot = slots_.Find(e.var.name);
      if (!slot.has_value() || b[*slot] == kNullTermId) return std::nullopt;
      return TermOf(b[*slot]);
    }
    if (e.op == ExprOp::kStr) {
      std::optional<Term> inner = EvalOperand(*e.lhs, b);
      if (!inner.has_value()) return std::nullopt;
      return rdf::StringLiteral(inner->value);
    }
    if (e.op == ExprOp::kLang) {
      std::optional<Term> inner = EvalOperand(*e.lhs, b);
      if (!inner.has_value() || !inner->IsLiteral()) return std::nullopt;
      return rdf::StringLiteral(inner->lang);
    }
    return std::nullopt;
  }

  static bool IsNumeric(const Term& t, double* out) {
    if (!t.IsLiteral()) return false;
    const char* begin = t.value.c_str();
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0') return false;
    *out = v;
    return true;
  }

  template <typename RowT>
  bool EvalComparison(const Expr& e, const RowT& b) const {
    std::optional<Term> lhs = EvalOperand(*e.lhs, b);
    std::optional<Term> rhs = EvalOperand(*e.rhs, b);
    if (!lhs.has_value() || !rhs.has_value()) return false;
    int cmp;
    double lv, rv;
    if (IsNumeric(*lhs, &lv) && IsNumeric(*rhs, &rv)) {
      cmp = lv < rv ? -1 : (lv > rv ? 1 : 0);
    } else {
      cmp = lhs->value.compare(rhs->value);
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
      // Equality additionally requires the same kind for non-numeric terms.
      if (cmp == 0 && lhs->kind != rhs->kind) cmp = 1;
    }
    switch (e.op) {
      case ExprOp::kEq:
        return cmp == 0;
      case ExprOp::kNe:
        return cmp != 0;
      case ExprOp::kLt:
        return cmp < 0;
      case ExprOp::kLe:
        return cmp <= 0;
      case ExprOp::kGt:
        return cmp > 0;
      case ExprOp::kGe:
        return cmp >= 0;
      default:
        return false;
    }
  }

  // ---- Projection ----

  // The aggregate proper, over the already-collected operand values (in
  // row order, distinct already applied).  Shared by the row path and the
  // columnar path, which differ only in how they gather the values.
  Term AggregateFromValues(const Aggregate& agg,
                           const std::vector<TermId>& values) const {
    switch (agg.op) {
      case Aggregate::Op::kCount:
        return rdf::IntLiteral(static_cast<int64_t>(values.size()));
      case Aggregate::Op::kMin:
      case Aggregate::Op::kMax: {
        std::optional<TermId> best;
        std::optional<double> best_num;
        for (TermId id : values) {
          const Term& t = TermOf(id);
          double v;
          bool numeric = IsNumeric(t, &v);
          if (!best.has_value()) {
            best = id;
            if (numeric) best_num = v;
            continue;
          }
          bool better;
          if (numeric && best_num.has_value()) {
            better = agg.op == Aggregate::Op::kMin ? v < *best_num
                                                   : v > *best_num;
          } else {
            const Term& bt = TermOf(*best);
            better = agg.op == Aggregate::Op::kMin ? t.value < bt.value
                                                   : t.value > bt.value;
          }
          if (better) {
            best = id;
            best_num = numeric ? std::optional<double>(v) : std::nullopt;
          }
        }
        if (!best.has_value()) return rdf::IntLiteral(0);
        return TermOf(*best);
      }
      case Aggregate::Op::kSum:
      case Aggregate::Op::kAvg: {
        double sum = 0.0;
        size_t n = 0;
        bool integral = true;
        for (TermId id : values) {
          const Term& t = TermOf(id);
          double v;
          if (!IsNumeric(t, &v)) continue;
          if (t.datatype != rdf::vocab::kXsdInteger) integral = false;
          sum += v;
          ++n;
        }
        if (agg.op == Aggregate::Op::kAvg) {
          return rdf::DoubleLiteral(n == 0 ? 0.0 : sum / double(n));
        }
        if (integral) return rdf::IntLiteral(static_cast<int64_t>(sum));
        return rdf::DoubleLiteral(sum);
      }
    }
    return rdf::IntLiteral(0);
  }

  // Evaluates one aggregate over the solution rows.
  Term EvalAggregate(const Aggregate& agg,
                     const std::vector<Binding>& rows) const {
    auto slot = slots_.Find(agg.var.name);
    std::vector<TermId> values;
    if (slot.has_value()) {
      std::unordered_set<TermId> seen;
      for (const Binding& b : rows) {
        if (b[*slot] == kNullTermId) continue;
        if (agg.distinct && !seen.insert(b[*slot]).second) continue;
        values.push_back(b[*slot]);
      }
    }
    return AggregateFromValues(agg, values);
  }

  // Columnar variant: reads the slot's column directly — no row
  // materialization for aggregate-only queries.
  Term EvalAggregateChunk(const Aggregate& agg, const Chunk& chunk) const {
    auto slot = slots_.Find(agg.var.name);
    std::vector<TermId> values;
    if (slot.has_value()) {
      const std::vector<TermId>& col = chunk.Col(*slot);
      std::unordered_set<TermId> seen;
      for (size_t r = 0; r < chunk.rows(); ++r) {
        if (col[r] == kNullTermId) continue;
        if (agg.distinct && !seen.insert(col[r]).second) continue;
        values.push_back(col[r]);
      }
    }
    return AggregateFromValues(agg, values);
  }

  StatusOr<ResultSet> Project(const Query& query,
                              std::vector<Binding> rows) {
    // Aggregates: single-row result over the whole solution set.
    if (!query.aggregates.empty()) {
      std::vector<std::string> cols;
      Row out_row;
      for (const Aggregate& agg : query.aggregates) {
        cols.push_back(agg.alias.name);
        out_row.push_back(EvalAggregate(agg, rows));
      }
      ResultSet rs(std::move(cols));
      rs.AddRow(std::move(out_row));
      return rs;
    }

    // ORDER BY: sort the solution rows before projection.
    if (!query.order_by.empty()) {
      std::vector<std::pair<size_t, bool>> keys;  // (slot, descending)
      for (const OrderKey& key : query.order_by) {
        auto slot = slots_.Find(key.var.name);
        if (slot.has_value()) keys.emplace_back(*slot, key.descending);
      }
      auto term_less = [&](TermId a, TermId b) {
        // Unbound sorts first; numbers numerically; everything else by
        // lexical form.
        if (a == b) return false;
        if (a == kNullTermId) return true;
        if (b == kNullTermId) return false;
        const Term& ta = TermOf(a);
        const Term& tb = TermOf(b);
        double va, vb;
        if (IsNumeric(ta, &va) && IsNumeric(tb, &vb)) {
          if (va != vb) return va < vb;
        }
        return ta.value < tb.value;
      };
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const Binding& a, const Binding& b) {
                         for (const auto& [slot, desc] : keys) {
                           if (a[slot] == b[slot]) continue;
                           bool less = term_less(a[slot], b[slot]);
                           return desc ? !less : less;
                         }
                         return false;
                       });
    }

    // Column list.
    std::vector<std::string> cols;
    std::vector<size_t> col_slots;
    if (query.select_all) {
      // All pattern variables in first-appearance order (SlotMap does not
      // keep reverse order; re-derive names by walking the group in the
      // same order CollectVars did).
      std::vector<std::string> names;
      CollectVarNames(query.where, &names);
      for (const std::string& name : names) {
        cols.push_back(name);
        col_slots.push_back(*slots_.Find(name));
      }
    } else {
      for (const Var& v : query.select_vars) {
        cols.push_back(v.name);
        col_slots.push_back(slots_.SlotOf(v.name));
      }
    }

    ResultSet rs(cols);
    std::set<std::vector<TermId>> seen;
    size_t skipped = 0;
    for (const Binding& b : rows) {
      std::vector<TermId> key;
      key.reserve(col_slots.size());
      for (size_t slot : col_slots) key.push_back(b[slot]);
      if (query.distinct) {
        if (!seen.insert(key).second) continue;
      }
      if (skipped < query.offset) {
        ++skipped;
        continue;
      }
      Row row;
      row.reserve(col_slots.size());
      for (TermId id : key) {
        if (id == kNullTermId) {
          row.push_back(std::nullopt);
        } else {
          row.push_back(TermOf(id));
        }
      }
      rs.AddRow(std::move(row));
      if (query.limit > 0 && rs.NumRows() >= query.limit) break;
    }
    return rs;
  }

  // Vectorized projection: aggregates stay columnar; everything else
  // (ORDER BY, DISTINCT, OFFSET/LIMIT) materializes rows once at the very
  // end and reuses the row projection verbatim.
  StatusOr<ResultSet> ProjectChunk(const Query& query, Chunk chunk) {
    if (!query.aggregates.empty()) {
      std::vector<std::string> cols;
      Row out_row;
      for (const Aggregate& agg : query.aggregates) {
        cols.push_back(agg.alias.name);
        out_row.push_back(EvalAggregateChunk(agg, chunk));
      }
      ResultSet rs(std::move(cols));
      rs.AddRow(std::move(out_row));
      return rs;
    }
    std::vector<Binding> rows;
    rows.reserve(chunk.rows());
    for (size_t r = 0; r < chunk.rows(); ++r) {
      rows.push_back(chunk.ToBinding(r));
    }
    return Project(query, std::move(rows));
  }

  // Collects variable names in first-appearance order (matches SlotMap
  // insertion order for the same traversal).
  static void CollectVarNames(const GroupGraphPattern& group,
                              std::vector<std::string>* names) {
    auto visit = [&](const TermOrVar& tv) {
      if (IsVar(tv)) {
        const std::string& n = AsVar(tv).name;
        if (std::find(names->begin(), names->end(), n) == names->end()) {
          names->push_back(n);
        }
      }
    };
    for (const TriplePattern& tp : group.triples) {
      visit(tp.s);
      visit(tp.p);
      visit(tp.o);
    }
    auto visit_var = [&](const Var& v) {
      if (std::find(names->begin(), names->end(), v.name) == names->end()) {
        names->push_back(v.name);
      }
    };
    for (const TextPattern& tp : group.text_patterns) {
      visit_var(tp.var);
    }
    for (const InlineValues& iv : group.values) {
      visit_var(iv.var);
    }
    for (const GroupGraphPattern& opt : group.optionals) {
      CollectVarNames(opt, names);
    }
    for (const auto& branches : group.unions) {
      for (const GroupGraphPattern& branch : branches) {
        CollectVarNames(branch, names);
      }
    }
  }

  const StoreT& store_;
  const text::TextIndex& text_index_;
  const EvalOptions& options_;
  SlotMap slots_;
  // Query-local dictionary overlay for VALUES terms absent from the store
  // (their ids live above dictionary().MaxId(); see InternValue/TermOf).
  std::vector<Term> overlay_terms_;
  std::unordered_map<std::string, TermId> overlay_ids_;
  size_t sharded_steps_ = 0;
  size_t morsel_count_ = 0;
  size_t vectorized_steps_ = 0;
  size_t batches_ = 0;
  size_t planned_groups_ = 0;
  size_t reordered_plans_ = 0;
  // EXPLAIN ANALYZE: the calling thread's operator-stats sink (owned by
  // the engine) and the once-per-query analyze decision.  Only the
  // coordinator thread touches profile_ — the step loops never run on
  // morsel workers.
  EvalProfile* profile_ = nullptr;
  bool analyze_ = false;
};

// One evaluation, generic over the backend.  Both public overloads land
// here; the registry counters resolve to the same entries either way, so
// both stores share one metric namespace.
template <typename StoreT>
StatusOr<ResultSet> EvaluateImpl(const Query& query, const StoreT& store,
                                 const text::TextIndex& text_index,
                                 const EvalOptions& options) {
  // Registry instrumentation: evaluation volume and result-set sizes
  // (bucket bounds are row counts, not latencies).
  static obs::Counter& evaluations =
      obs::MetricsRegistry::Global().GetCounter("sparql.evaluator.evaluations");
  static obs::Histogram& result_rows =
      obs::MetricsRegistry::Global().GetHistogram(
          "sparql.evaluator.result_rows",
          {0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0});
  evaluations.Add(1);
  Evaluator<StoreT> evaluator(store, text_index, options);
  StatusOr<ResultSet> result = evaluator.Run(query);
  if (result.ok() && !result->is_ask()) {
    result_rows.Record(double(result->NumRows()));
  }
  if (evaluator.planned_groups() > 0) {
    // Join-planner instrumentation, multi-pattern groups only: the
    // single-pattern linking probes keep their pre-existing metric set.
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static obs::Counter& plan_groups =
        registry.GetCounter("sparql.plan.groups");
    static obs::Counter& plan_reordered =
        registry.GetCounter("sparql.plan.reordered");
    plan_groups.Add(evaluator.planned_groups());
    if (evaluator.reordered_plans() > 0) {
      plan_reordered.Add(evaluator.reordered_plans());
    }
  }
  if (evaluator.sharded_steps() > 0) {
    // Sharded-path-only instrumentation: the serial path must not touch
    // the registry beyond the pre-existing counters and the plan counters
    // above.
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static obs::Counter& sharded_queries =
        registry.GetCounter("sparql.eval.sharded_queries");
    static obs::Counter& sharded_steps =
        registry.GetCounter("sparql.eval.sharded_steps");
    static obs::Counter& morsels = registry.GetCounter("sparql.eval.morsels");
    sharded_queries.Add(1);
    sharded_steps.Add(evaluator.sharded_steps());
    morsels.Add(evaluator.morsels());
    if (obs::Trace* trace = obs::CurrentTrace()) {
      trace->AddCounter(obs::TraceCounter::kEvalMorsels,
                        evaluator.morsels());
    }
  }
  if (evaluator.vectorized_steps() > 0) {
    // Vectorized-path-only instrumentation (the path is opt-in).
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static obs::Counter& vec_queries =
        registry.GetCounter("sparql.eval.batch.queries");
    static obs::Counter& vec_steps =
        registry.GetCounter("sparql.eval.batch.steps");
    static obs::Counter& vec_batches =
        registry.GetCounter("sparql.eval.batch.batches");
    vec_queries.Add(1);
    vec_steps.Add(evaluator.vectorized_steps());
    vec_batches.Add(evaluator.batches());
    if (obs::Trace* trace = obs::CurrentTrace()) {
      trace->AddCounter(obs::TraceCounter::kEvalBatches,
                        evaluator.batches());
    }
  }
  return result;
}

}  // namespace

StatusOr<ResultSet> Evaluate(const Query& query,
                             const store::TripleStore& store,
                             const text::TextIndex& text_index,
                             const EvalOptions& options) {
  return EvaluateImpl(query, store, text_index, options);
}

StatusOr<ResultSet> Evaluate(const Query& query,
                             const store::CompactStore& store,
                             const text::TextIndex& text_index,
                             const EvalOptions& options) {
  return EvaluateImpl(query, store, text_index, options);
}

}  // namespace kgqan::sparql
