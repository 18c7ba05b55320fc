#include "sparql/evaluator.h"

#include <algorithm>
#include <cstdlib>
#include <regex>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparql/planner.h"
#include "util/cancel.h"

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

// Hard cap on intermediate/solution rows, like the result caps of public
// SPARQL endpoints.  Evaluation stops (successfully) when reached.
constexpr size_t kMaxRows = 100000;
// Cap on candidates pulled from the text index per bif:contains pattern.
constexpr size_t kTextCandidateLimit = 4096;

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

class Evaluator {
 public:
  Evaluator(const store::TripleStore& store, const text::TextIndex& text_index)
      : store_(store), text_index_(text_index),
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
  // where a wrong guess only costs the planner estimate quality — the join
  // step resolves boundness per row).  Planning input only.
  std::vector<bool> BoundSlots(const std::vector<Binding>& rows) const {
    std::vector<bool> bound(slots_.size(), false);
    if (!rows.empty()) {
      for (size_t i = 0; i < slots_.size(); ++i) {
        bound[i] = rows.front()[i] != kNullTermId;
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
                size_t rows_out, obs::ScopedSpan* span) {
    if (span != nullptr && span->recording()) {
      span->AddAttribute("pattern", std::to_string(step.pattern));
      span->AddAttribute("order", std::to_string(order));
      span->AddAttribute("estimate", std::to_string(step.estimate));
      span->AddAttribute("rows_in", std::to_string(rows_in));
      span->AddAttribute("rows_out", std::to_string(rows_out));
    }
    if (profile_ != nullptr) {
      OperatorStats stats;
      stats.pattern = step.pattern;
      stats.order = order;
      stats.estimate = step.estimate;
      stats.rows_in = rows_in;
      stats.rows_out = rows_out;
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
  // store id or was returned by InternValue; not kNullTermId).  The
  // reference is invalidated by the next InternValue.
  const Term& TermOf(TermId id) const {
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
          text_index_.MatchLiterals(cq, kTextCandidateLimit);
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
          if (next.size() >= kMaxRows) break;
        }
        if (next.size() >= kMaxRows) break;
      }
      rows = std::move(next);
    }

    // 1b. Inline VALUES bindings.  Terms that do not occur in the KG are
    // interned into a query-local overlay dictionary: per SPARQL semantics
    // they still bind (e.g. a VALUES row naming an IRI absent from the
    // KG), they simply can never join a stored triple.
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
          if (next.size() >= kMaxRows) break;
        }
        if (next.size() >= kMaxRows) break;
      }
      rows = std::move(next);
    }

    // 2. Triple patterns, ordered by the cardinality planner (greedy
    // selectivity over exact Locate range sizes; see sparql/planner.h).
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
        KGQAN_ASSIGN_OR_RETURN(next, JoinStep(cp, rows));
        if (analyze_) {
          NoteStep(step, order, rows_in, next.size(),
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
          if (next.size() >= kMaxRows) break;
        }
        if (next.size() >= kMaxRows) break;
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
            if (next.size() >= kMaxRows) break;
          }
        }
        if (next.size() >= kMaxRows) break;
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

  // One join step: extend every row by every match of `cp`, in (row,
  // index) order, capped at max_rows.
  StatusOr<std::vector<Binding>> JoinStep(const CompiledTriple& cp,
                                          const std::vector<Binding>& rows) {
    std::vector<Binding> next;
    size_t visited = 0;
    bool cancelled = false;
    for (const Binding& row : rows) {
      TermId s = Resolve(cp.s, row);
      TermId p = Resolve(cp.p, row);
      TermId o = Resolve(cp.o, row);
      store_.Match(s, p, o, [&](const rdf::Triple& t) {
        // Deadline poll: cheap enough every 256 triples that serving
        // deadlines bite mid-scan, not only between patterns.
        if ((++visited & 255u) == 0 && util::Cancelled()) {
          cancelled = true;
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
        next.push_back(std::move(ext));
        return next.size() < kMaxRows;
      });
      if (cancelled) {
        return Status::DeadlineExceeded("evaluation cancelled mid-scan");
      }
      if (next.size() >= kMaxRows) break;
    }
    return next;
  }

 public:
  // The planner's multi-pattern group counts (sparql.plan.* metrics).
  size_t planned_groups() const { return planned_groups_; }
  size_t reordered_plans() const { return reordered_plans_; }

 private:
  // ---- FILTER expression evaluation ----

  // Three-valued-lite: comparisons involving unbound vars are false.
  bool EvalExprBool(const Expr& e, const Binding& b) const {
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

  std::optional<Term> EvalOperand(const Expr& e, const Binding& b) const {
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

  bool EvalComparison(const Expr& e, const Binding& b) const {
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

  // Evaluates one aggregate over the solution rows: gathers the bound
  // operand values in row order (distinct applied), then aggregates them.
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

  const store::TripleStore& store_;
  const text::TextIndex& text_index_;
  SlotMap slots_;
  // Query-local dictionary overlay for VALUES terms absent from the store
  // (their ids live above dictionary().MaxId(); see InternValue/TermOf).
  std::vector<Term> overlay_terms_;
  std::unordered_map<std::string, TermId> overlay_ids_;
  size_t planned_groups_ = 0;
  size_t reordered_plans_ = 0;
  // EXPLAIN ANALYZE: the calling thread's operator-stats sink (owned by
  // the engine) and the once-per-query analyze decision.
  EvalProfile* profile_ = nullptr;
  bool analyze_ = false;
};

}  // namespace

StatusOr<ResultSet> Evaluate(const Query& query,
                             const store::TripleStore& store,
                             const text::TextIndex& text_index) {
  // Registry instrumentation: evaluation volume and result-set sizes
  // (bucket bounds are row counts, not latencies).
  static obs::Counter& evaluations =
      obs::MetricsRegistry::Global().GetCounter("sparql.evaluator.evaluations");
  static obs::Histogram& result_rows =
      obs::MetricsRegistry::Global().GetHistogram(
          "sparql.evaluator.result_rows",
          {0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0});
  evaluations.Add(1);
  Evaluator evaluator(store, text_index);
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
  return result;
}

}  // namespace kgqan::sparql
