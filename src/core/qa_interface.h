// Common interface implemented by KGQAn and the baseline QA systems, so
// the evaluation harness can drive them uniformly.

#ifndef KGQAN_CORE_QA_INTERFACE_H_
#define KGQAN_CORE_QA_INTERFACE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "rdf/term.h"
#include "sparql/endpoint.h"

namespace kgqan::obs {
class Trace;
}  // namespace kgqan::obs

namespace kgqan::core {

// Wall-clock time spent in each of the three QA phases, in milliseconds
// (Figure 7).
struct PhaseTimings {
  double qu_ms = 0.0;
  double linking_ms = 0.0;
  double execution_ms = 0.0;

  double TotalMs() const { return qu_ms + linking_ms + execution_ms; }
};

struct QaResponse {
  // False iff question understanding produced nothing usable (the
  // "failure due to QU" class of Figure 8).
  bool understood = false;
  bool is_boolean = false;
  bool boolean_answer = false;
  std::vector<rdf::Term> answers;  // Empty for boolean questions.
  PhaseTimings timings;
};

// Runtime counters a QA system may expose to the evaluation harness
// (cumulative since construction).  Systems without caches report zeros.
struct RuntimeCounters {
  size_t linking_cache_hits = 0;
  size_t linking_cache_misses = 0;
};

class QaSystem {
 public:
  virtual ~QaSystem() = default;

  virtual std::string name() const = 0;

  // Cache / concurrency counters for the eval harness (Fig. 7 reporting).
  virtual RuntimeCounters Counters() const { return RuntimeCounters{}; }

  // Statistics of the per-KG pre-processing phase (Table 2).
  struct PreprocessStats {
    double seconds = 0.0;
    size_t index_bytes = 0;
  };

  // Performs whatever per-KG pre-processing the system requires before it
  // can answer questions at this endpoint.  KGQAn requires none.
  virtual PreprocessStats Preprocess(sparql::Endpoint& endpoint) = 0;

  // Answers a natural-language question against the endpoint.
  virtual QaResponse Answer(const std::string& question,
                            sparql::Endpoint& endpoint) = 0;

  // Trace-aware variant: systems that support per-question tracing record
  // their span tree and counters into `trace` (nullable).  The default
  // ignores the trace so baseline systems need no changes.
  virtual QaResponse Answer(const std::string& question,
                            sparql::Endpoint& endpoint, obs::Trace* trace) {
    (void)trace;
    return Answer(question, endpoint);
  }
};

}  // namespace kgqan::core

#endif  // KGQAN_CORE_QA_INTERFACE_H_
