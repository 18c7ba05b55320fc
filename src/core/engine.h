// KgqanEngine: the end-to-end universal question-answering pipeline
// (Figure 4) — question understanding, JIT linking, execution and
// filtration — against an arbitrary SPARQL endpoint, with no per-KG
// pre-processing.

#ifndef KGQAN_CORE_ENGINE_H_
#define KGQAN_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/agp.h"
#include "core/bgp.h"
#include "core/config.h"
#include "core/filtration.h"
#include "core/linker.h"
#include "core/linking_cache.h"
#include "core/qa_interface.h"
#include "embedding/affinity.h"
#include "nlp/answer_type.h"
#include "qu/pgp.h"
#include "qu/triple_pattern_generator.h"
#include "sparql/endpoint.h"
#include "sparql/evaluator.h"

namespace kgqan::core {

// Per-candidate-query execution record (rank order of the BGP list).
// Slots exist for every generated query; `executed` distinguishes the ones
// the rank-order scan actually ran from the ones it skipped.
struct CandidateQueryStats {
  size_t rank = 0;
  double score = 0.0;
  bool executed = false;
  double latency_ms = 0.0;
  size_t rows = 0;  // Surviving answers (SELECT) or 1/0 (ASK held or not).
  // EXPLAIN ANALYZE: per-operator runtime stats of the candidate's
  // evaluation, in execution order.  Populated when the question's trace
  // records spans; empty otherwise.
  std::vector<sparql::OperatorStats> operators;
};

// Full per-question result, including the intermediate artifacts the
// analysis experiments inspect.
struct KgqanResult {
  QaResponse response;
  qu::Pgp pgp;
  nlp::AnswerTypePrediction answer_type;
  Agp agp;                    // Annotated graph (after linking).
  size_t queries_generated = 0;
  size_t queries_executed = 0;
  std::vector<CandidateQueryStats> candidates;
  // Endpoint requests of the linking phase.  Exact even when other
  // questions share the endpoint concurrently: the endpoint attributes
  // traffic to the trace that the question's thread binds.
  size_t linking_requests = 0;
  // Always equal to linking_requests (every request is its own exchange);
  // kept because the benchmark harness reports it.
  size_t linking_round_trips = 0;
  // True when cooperative cancellation truncated the pipeline (the bound
  // util::CancelToken expired mid-question): the response holds whatever
  // was complete at that point — possibly no answers at all — and the
  // linking cache holds no entries produced after the expiry.
  bool deadline_exceeded = false;
  // Id of the question's span-recording trace (0 when the request ran
  // counters-only) — the handle that correlates a response with the
  // serving front-end's flight recorder and trace dumps.
  uint64_t trace_id = 0;
  // SPARQL text of the top-ranked candidate query, set as soon as BGP
  // generation produced one — even when the deadline then expires before
  // execution — so slow-question forensics always have the query.
  std::string top_sparql;
};

// Renders a human-readable trace of the pipeline for `result`: the PGP,
// the predicted answer type, the top link annotations per node/edge, and
// the answers.  Used by the CLI's verbose mode and handy when debugging a
// misanswered question.
std::string Explain(const KgqanResult& result);

class KgqanEngine : public QaSystem {
 public:
  KgqanEngine() : KgqanEngine(KgqanConfig()) {}
  explicit KgqanEngine(const KgqanConfig& config);

  std::string name() const override { return "KGQAn"; }

  // KGQAn is on-demand: no pre-processing at all (its zero cost *is* the
  // Table 2 result).
  PreprocessStats Preprocess(sparql::Endpoint& endpoint) override {
    (void)endpoint;
    return PreprocessStats{};
  }

  QaResponse Answer(const std::string& question,
                    sparql::Endpoint& endpoint) override {
    return AnswerFull(question, endpoint).response;
  }
  QaResponse Answer(const std::string& question, sparql::Endpoint& endpoint,
                    obs::Trace* trace) override {
    return AnswerFull(question, endpoint, trace).response;
  }

  // Full pipeline with intermediate artifacts exposed.  When `trace` is a
  // full-mode obs::Trace, one span tree for the question is recorded into
  // it (qu → linking → execution → filtration, down to individual probes
  // and candidate queries).  With nullptr the engine still binds a private
  // counters-only trace, so linking_requests is exact either way and span
  // bookkeeping costs nothing.
  //
  // Deadlines: when the calling thread has a util::CancelToken bound (see
  // serve::QaServer), the pipeline polls it between phases, before every
  // candidate query, and at every endpoint exchange; on expiry it stops
  // issuing work and returns the partial result with deadline_exceeded
  // set.
  KgqanResult AnswerFull(const std::string& question,
                         sparql::Endpoint& endpoint,
                         obs::Trace* trace = nullptr) const;

  // Linking-cache hit/miss counters (zeros when caching is disabled).
  RuntimeCounters Counters() const override;

  const KgqanConfig& config() const { return config_; }
  const embed::SemanticAffinity& affinity() const { return *affinity_; }
  const qu::TriplePatternGenerator& generator() const { return generator_; }

  const LinkingCache* linking_cache() const { return cache_.get(); }

 private:
  // Executes the ranked candidate queries of a non-boolean question one
  // after another and unions answers in rank order (Sec. 6 semantics).
  void ExecuteSelectCandidates(const std::vector<Bgp>& bgps,
                               const std::string& var,
                               sparql::Endpoint& endpoint,
                               KgqanResult* result) const;
  void ExecuteAskCandidates(const std::vector<Bgp>& bgps,
                            sparql::Endpoint& endpoint,
                            KgqanResult* result) const;

  // Runs one SELECT candidate and groups its rows into (answer, classes)
  // candidates; post-filtration is applied so the caller only unions.
  // Fills `stats` (the candidate's preallocated slot) and records an
  // "execution.candidate" span.
  // `top_sparql` is rank 0's query, rendered once by AnswerFull; other
  // ranks are rendered here.
  std::vector<rdf::Term> RunSelectCandidate(
      const Bgp& bgp, size_t rank, const std::string& var,
      std::string_view top_sparql,
      const nlp::AnswerTypePrediction& answer_type, sparql::Endpoint& endpoint,
      CandidateQueryStats* stats) const;

  KgqanConfig config_;
  qu::TriplePatternGenerator generator_;
  nlp::AnswerTypeClassifier answer_type_classifier_;
  std::unique_ptr<embed::SemanticAffinity> affinity_;
  // Declared before linker_: the linker borrows both raw pointers.
  std::unique_ptr<LinkingCache> cache_;
  JitLinker linker_;
  BgpGenerator bgp_generator_;
  Filtration filtration_;
};

}  // namespace kgqan::core

#endif  // KGQAN_CORE_ENGINE_H_
