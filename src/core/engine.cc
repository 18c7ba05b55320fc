#include "core/engine.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <optional>
#include <utility>

#include "obs/trace.h"
#include "util/cancel.h"
#include "util/string_util.h"

namespace kgqan::core {

namespace {

// Resolves the configured thread count: 0 = hardware concurrency, 1 =
// serial (no pool at all).
std::unique_ptr<util::ThreadPool> MakePool(size_t num_threads) {
  size_t n =
      num_threads == 0 ? util::ThreadPool::DefaultThreads() : num_threads;
  if (n <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(n);
}

// Entries per mode of the engine's linking cache.
constexpr size_t kLinkingCacheCapacity = 4096;

std::unique_ptr<LinkingCache> MakeCache(bool enabled) {
  if (!enabled) return nullptr;
  return std::make_unique<LinkingCache>(kLinkingCacheCapacity);
}

}  // namespace

std::string Explain(const KgqanResult& result) {
  std::string out;
  out += "understood:  ";
  out += result.response.understood ? "yes" : "no";
  out += "\n";
  if (!result.response.understood) return out;
  out += "PGP:         " + result.pgp.DebugString() + "\n";
  out += "answer type: ";
  out += nlp::AnswerDataTypeName(result.answer_type.data_type);
  if (!result.answer_type.semantic_type.empty()) {
    out += " (" + result.answer_type.semantic_type + ")";
  }
  out += "\n";
  for (size_t n = 0; n < result.agp.node_vertices.size(); ++n) {
    const auto& vertices = result.agp.node_vertices[n];
    if (vertices.empty()) continue;
    out += "node \"" + result.pgp.nodes()[n].label + "\":\n";
    size_t shown = 0;
    for (const RelevantVertex& rv : vertices) {
      if (shown++ >= 3) break;
      out += "  <" + rv.iri + ">  " + util::FormatDouble(rv.score, 2) + "\n";
    }
  }
  for (size_t e = 0; e < result.agp.edge_predicates.size(); ++e) {
    const auto& preds = result.agp.edge_predicates[e];
    if (preds.empty()) continue;
    out += "edge \"" + result.pgp.edges()[e].label + "\":\n";
    size_t shown = 0;
    for (const RelevantPredicate& rp : preds) {
      if (shown++ >= 3) break;
      out += "  <" + rp.iri + ">  " + util::FormatDouble(rp.score, 2) + "\n";
    }
  }
  out += "queries:     " + std::to_string(result.queries_executed) + " of " +
         std::to_string(result.queries_generated) + " executed\n";
  size_t shown_candidates = 0;
  for (const CandidateQueryStats& c : result.candidates) {
    if (!c.executed) continue;
    if (shown_candidates++ >= 10) {
      out += "  ... (" +
             std::to_string(result.queries_executed - shown_candidates + 1) +
             " more)\n";
      break;
    }
    out += "  #" + std::to_string(c.rank) + "  score " +
           util::FormatDouble(c.score, 2) + "  " +
           util::FormatDouble(c.latency_ms, 1) + " ms  " +
           std::to_string(c.rows) + (c.rows == 1 ? " row\n" : " rows\n");
    // EXPLAIN ANALYZE: per-operator plan execution, estimate vs. actual;
    // step numbers restart in every group.
    for (const sparql::OperatorStats& op : c.operators) {
      out += "     group " + std::to_string(op.group) + " step " +
             std::to_string(op.order) + ": pattern " +
             std::to_string(op.pattern) + "  est " +
             std::to_string(op.estimate) + "  rows " +
             std::to_string(op.rows_in) + " -> " +
             std::to_string(op.rows_out);
      out += "  " + util::FormatDouble(op.ms, 2) + " ms\n";
    }
  }
  out += "linking:     " + std::to_string(result.linking_requests) +
         " requests\n";
  if (result.trace_id != 0) {
    char trace_hex[24];
    std::snprintf(trace_hex, sizeof(trace_hex), "%016llx",
                  static_cast<unsigned long long>(result.trace_id));
    out += "trace:       " + std::string(trace_hex) + "\n";
  }
  if (result.response.is_boolean) {
    out += std::string("answer:      ") +
           (result.response.boolean_answer ? "true" : "false") + "\n";
  } else {
    for (const rdf::Term& a : result.response.answers) {
      out += "answer:      " + rdf::ToNTriples(a) + "\n";
    }
    if (result.response.answers.empty()) out += "answer:      (none)\n";
  }
  return out;
}

KgqanEngine::KgqanEngine(const KgqanConfig& config)
    : config_(config),
      generator_(config.qu),
      affinity_(std::make_unique<embed::SemanticAffinity>(
          config.affinity_mode)),
      pool_(MakePool(config.num_threads)),
      cache_(MakeCache(config.linking_cache)),
      linker_(&config_, affinity_.get(), pool_.get(), cache_.get()),
      bgp_generator_(&config_),
      filtration_(&config_, affinity_.get()) {}

RuntimeCounters KgqanEngine::Counters() const {
  RuntimeCounters counters;
  if (cache_ != nullptr) {
    LinkingCacheStats stats = cache_->stats();
    counters.linking_cache_hits = stats.hits;
    counters.linking_cache_misses = stats.misses;
  }
  return counters;
}

std::vector<rdf::Term> KgqanEngine::RunSelectCandidate(
    const Bgp& bgp, size_t rank, const std::string& var,
    const nlp::AnswerTypePrediction& answer_type, sparql::Endpoint& endpoint,
    CandidateQueryStats* stats) const {
  obs::ScopedSpan span("execution.candidate");
  if (span.recording()) span.AddAttribute("rank", std::to_string(rank));
  stats->executed = true;
  // Stamps the stats slot and the span on every return path.
  auto finish = [&](std::vector<rdf::Term> answers) {
    stats->latency_ms = span.ElapsedMillis();
    stats->rows = answers.size();
    if (span.recording()) {
      span.AddAttribute("answers", std::to_string(answers.size()));
    }
    return answers;
  };
  // EXPLAIN ANALYZE: bind an operator-stats sink around the candidate's
  // evaluation when this question's trace is recording spans (sampled
  // requests get operator detail for free).
  sparql::EvalProfile profile;
  std::optional<sparql::ScopedEvalProfile> analyze;
  if (span.recording()) analyze.emplace(&profile);
  auto rs = endpoint.Query(BgpGenerator::ToSelectSparql(bgp, var));
  analyze.reset();
  stats->operators = std::move(profile.operators);
  if (!rs.ok() || rs->NumRows() == 0) return finish({});

  // Group rows into (answer, class list) candidates.  The grouping is a
  // pure function of the row *set*: candidates come out in N-Triples
  // order with sorted, deduplicated class lists.
  auto a_col = rs->ColumnIndex(var);
  auto c_col = rs->ColumnIndex("c");
  if (!a_col.has_value()) return finish({});
  std::map<std::string, CandidateAnswer> grouped;
  for (size_t r = 0; r < rs->NumRows(); ++r) {
    const auto& a = rs->At(r, *a_col);
    if (!a.has_value()) continue;
    std::string key = rdf::ToNTriples(*a);
    auto [it, inserted] = grouped.emplace(key, CandidateAnswer{*a, {}});
    if (c_col.has_value()) {
      const auto& c = rs->At(r, *c_col);
      if (c.has_value() && c->IsIri()) {
        it->second.class_iris.push_back(c->value);
      }
    }
  }
  std::vector<CandidateAnswer> candidates;
  candidates.reserve(grouped.size());
  for (auto& [key, candidate] : grouped) {
    std::sort(candidate.class_iris.begin(), candidate.class_iris.end());
    candidate.class_iris.erase(std::unique(candidate.class_iris.begin(),
                                           candidate.class_iris.end()),
                               candidate.class_iris.end());
    candidates.push_back(std::move(candidate));
  }

  if (!config_.enable_filtration) {
    std::vector<rdf::Term> all;
    all.reserve(candidates.size());
    for (const CandidateAnswer& c : candidates) {
      all.push_back(c.term);
    }
    return finish(std::move(all));
  }
  std::vector<rdf::Term> filtered;
  {
    obs::ScopedSpan filtration_span("filtration");
    if (filtration_span.recording()) {
      filtration_span.AddAttribute("candidates",
                                   std::to_string(candidates.size()));
    }
    filtered = filtration_.Filter(candidates, answer_type);
  }
  return finish(std::move(filtered));
}

void KgqanEngine::ExecuteAskCandidates(const std::vector<Bgp>& bgps,
                                       sparql::Endpoint& endpoint,
                                       KgqanResult* result) const {
  // ASK semantics: the question holds if any of the ranked candidate
  // queries holds in the KG.
  auto run_ask = [this, &endpoint](const Bgp& bgp, size_t rank,
                                   CandidateQueryStats* stats) {
    obs::ScopedSpan span("execution.candidate");
    if (span.recording()) span.AddAttribute("rank", std::to_string(rank));
    stats->executed = true;
    sparql::EvalProfile profile;
    std::optional<sparql::ScopedEvalProfile> analyze;
    if (span.recording()) analyze.emplace(&profile);
    auto rs = endpoint.Query(BgpGenerator::ToAskSparql(bgp));
    analyze.reset();
    stats->operators = std::move(profile.operators);
    bool held = rs.ok() && rs->is_ask() && rs->ask_value();
    stats->latency_ms = span.ElapsedMillis();
    stats->rows = held ? 1 : 0;
    return held;
  };
  bool value = false;
  if (pool_ == nullptr) {
    for (size_t i = 0; i < bgps.size(); ++i) {
      if (util::Cancelled()) {
        result->deadline_exceeded = true;
        break;
      }
      ++result->queries_executed;
      if (run_ask(bgps[i], i, &result->candidates[i])) {
        value = true;
        break;
      }
    }
    result->response.boolean_answer = value;
    return;
  }
  // Parallel: execute in rank-ordered waves of pool-size queries; the
  // first true (in rank order) decides, exactly as the serial early exit.
  const size_t wave = pool_->size();
  for (size_t start = 0; start < bgps.size() && !value; start += wave) {
    if (util::Cancelled()) {
      result->deadline_exceeded = true;
      break;
    }
    size_t end = std::min(start + wave, bgps.size());
    std::vector<std::future<bool>> futures;
    futures.reserve(end - start);
    for (size_t i = start; i < end; ++i) {
      ++result->queries_executed;
      const Bgp& bgp = bgps[i];
      // Each task writes its own preallocated stats slot: no race.
      CandidateQueryStats* stats = &result->candidates[i];
      futures.push_back(pool_->Submit([&run_ask, &bgp, i, stats]() {
        return run_ask(bgp, i, stats);
      }));
    }
    for (std::future<bool>& future : futures) {
      if (future.get()) value = true;  // Join the whole wave regardless.
    }
  }
  result->response.boolean_answer = value;
}

void KgqanEngine::ExecuteSelectCandidates(const std::vector<Bgp>& bgps,
                                          const std::string& var,
                                          sparql::Endpoint& endpoint,
                                          KgqanResult* result) const {
  // Recall-first union in rank order (Sec. 6): stop once enough top-ranked
  // queries were productive, and skip queries scoring far below the first
  // productive one.  The in-order combine below applies the identical
  // stopping rules for serial and parallel execution, so the answer set is
  // the same; parallel runs merely execute some queries speculatively.
  size_t productive_queries = 0;
  double base_score = -1.0;

  auto combine = [&](const Bgp& bgp,
                     std::vector<rdf::Term>&& answers) -> bool {
    // Returns false when the rank-order scan is done.
    if (base_score >= 0.0 && bgp.score < config_.score_gap * base_score) {
      return false;
    }
    if (answers.empty()) return true;  // Filtered away: try the next query.
    // Union into the running answer set.
    for (rdf::Term& term : answers) {
      bool dup = false;
      for (const rdf::Term& have : result->response.answers) {
        if (have == term) {
          dup = true;
          break;
        }
      }
      if (!dup) result->response.answers.push_back(std::move(term));
    }
    ++productive_queries;
    if (base_score < 0.0) base_score = bgp.score;
    return productive_queries < config_.max_productive_queries;
  };

  if (pool_ == nullptr) {
    for (size_t i = 0; i < bgps.size(); ++i) {
      const Bgp& bgp = bgps[i];
      if (util::Cancelled()) {
        result->deadline_exceeded = true;
        break;
      }
      // Once an answer set exists, only near-equivalent queries (semantic
      // score within the gap) can extend it.
      if (base_score >= 0.0 && bgp.score < config_.score_gap * base_score) {
        break;
      }
      ++result->queries_executed;
      if (!combine(bgp, RunSelectCandidate(bgp, i, var, result->answer_type,
                                           endpoint,
                                           &result->candidates[i]))) {
        break;
      }
    }
    return;
  }

  const size_t wave = pool_->size();
  for (size_t start = 0; start < bgps.size(); start += wave) {
    if (util::Cancelled()) {
      result->deadline_exceeded = true;
      return;
    }
    size_t end = std::min(start + wave, bgps.size());
    std::vector<std::future<std::vector<rdf::Term>>> futures;
    futures.reserve(end - start);
    for (size_t i = start; i < end; ++i) {
      ++result->queries_executed;
      const Bgp& bgp = bgps[i];
      futures.push_back(
          pool_->Submit([this, &bgp, i, &var, result, &endpoint]() {
            return RunSelectCandidate(bgp, i, var, result->answer_type,
                                      endpoint, &result->candidates[i]);
          }));
    }
    bool done = false;
    for (size_t i = start; i < end; ++i) {
      // Join every submitted future (they borrow endpoint/result state),
      // but stop combining once the rank-order scan is finished.
      std::vector<rdf::Term> answers = futures[i - start].get();
      if (!done && !combine(bgps[i], std::move(answers))) done = true;
    }
    if (done) return;
  }
}

KgqanResult KgqanEngine::AnswerFull(const std::string& question,
                                    sparql::Endpoint& endpoint,
                                    obs::Trace* trace) const {
  // Always bind a trace: the caller's full one, or a private counters-only
  // one.  Either way the endpoint and the linking cache attribute this
  // question's traffic to it (through every pool worker), which is what
  // makes the per-question counters below exact under concurrency.
  obs::Trace local_trace(obs::Trace::Mode::kCountersOnly);
  if (trace == nullptr) trace = &local_trace;
  obs::ScopedSpan root(trace, "question");
  root.AddAttribute("question", question);

  KgqanResult result;
  // Surface the span-recording trace's id so callers (serving front-end,
  // flight recorder, logs) can correlate this response with its trace.
  if (trace->spans_enabled()) result.trace_id = trace->id();

  // ---- Phase 1: question understanding (KG-independent). ----
  {
    obs::ScopedSpan span("qu");
    qu::TriplePatterns triples = generator_.Extract(question);
    result.answer_type = answer_type_classifier_.Predict(question);
    result.pgp = qu::Pgp::Build(triples);
    result.response.understood = !triples.empty();
    result.response.timings.qu_ms = span.ElapsedMillis();
  }
  root.AddAttribute("understood",
                    result.response.understood ? "true" : "false");
  if (!result.response.understood) return result;
  result.response.is_boolean = result.pgp.IsBoolean();

  // Deadline check between phases: an expired request stops before the
  // first endpoint exchange and returns the partial result.
  if (util::Cancelled()) {
    result.deadline_exceeded = true;
    return result;
  }

  // ---- Phase 2: JIT linking against the target KG. ----
  {
    obs::ScopedSpan span("linking");
    uint64_t requests_before =
        trace->counter(obs::TraceCounter::kEndpointRequests);
    result.agp = linker_.Link(result.pgp, endpoint);
    result.linking_requests =
        trace->counter(obs::TraceCounter::kEndpointRequests) - requests_before;
    result.linking_round_trips = result.linking_requests;
    if (span.recording()) {
      span.AddAttribute("endpoint.requests",
                        std::to_string(result.linking_requests));
    }
    result.response.timings.linking_ms = span.ElapsedMillis();
  }
  if (util::Cancelled()) {
    result.deadline_exceeded = true;
    return result;
  }

  // ---- Phase 3: execution and filtration. ----
  obs::ScopedSpan span("execution");
  std::vector<Bgp> bgps = bgp_generator_.Generate(result.agp);
  result.queries_generated = bgps.size();
  // Preallocate one stats slot per candidate so parallel execution waves
  // write distinct slots without synchronization.
  result.candidates.resize(bgps.size());
  for (size_t i = 0; i < bgps.size(); ++i) {
    result.candidates[i].rank = i;
    result.candidates[i].score = bgps[i].score;
  }
  auto finish_execution = [&]() {
    if (span.recording()) {
      span.AddAttribute("queries_generated",
                        std::to_string(result.queries_generated));
      span.AddAttribute("queries_executed",
                        std::to_string(result.queries_executed));
    }
    result.response.timings.execution_ms = span.ElapsedMillis();
  };

  if (result.response.is_boolean) {
    // Record the top candidate's SPARQL up front — before execution, which
    // a deadline may truncate — so slow-question forensics always see it.
    if (!bgps.empty()) {
      result.top_sparql = BgpGenerator::ToAskSparql(bgps.front());
    }
    ExecuteAskCandidates(bgps, endpoint, &result);
    finish_execution();
    return result;
  }

  auto main_unknown = result.pgp.MainUnknown();
  if (!main_unknown.has_value()) {
    finish_execution();
    return result;
  }
  // Built with += (not operator+) to dodge GCC 12's -Wrestrict false
  // positive on inlined small-string concatenation.
  std::string var = "u";
  var += std::to_string(result.pgp.nodes()[*main_unknown].var_id);
  if (!bgps.empty()) {
    result.top_sparql = BgpGenerator::ToSelectSparql(bgps.front(), var);
  }
  ExecuteSelectCandidates(bgps, var, endpoint, &result);
  finish_execution();
  return result;
}

}  // namespace kgqan::core
