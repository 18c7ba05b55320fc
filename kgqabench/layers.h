// Per-layer attribution for traced runs.  After the program answers a
// question, Replay() re-runs that question's own artifacts through each
// layer's public entry point — QU extraction with and without the QU cost
// shim, answer-type
// prediction, entity and relation linking, the text probe, affinity
// scoring, BGP generation, SPARQL parsing and candidate execution — and
// records one span around every call.  Nothing inside the program is
// instrumented: the spans live here and are written as Chrome-trace JSONL
// when the run ends.

#ifndef KGQABENCH_LAYERS_H_
#define KGQABENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bgp.h"
#include "core/engine.h"
#include "core/linker.h"
#include "nlp/answer_type.h"
#include "obs/trace.h"
#include "qu/triple_pattern_generator.h"
#include "sparql/endpoint.h"

namespace kgqabench {

// Nanoseconds on the steady clock since the benchmark started.
int64_t NowNs();

// In-memory span store, one span list per question.
class SpanLog {
 public:
  // Opens a question's span list; returns its id.
  size_t BeginQuestion(std::string label);
  // Records a finished span; returns its index within the question.
  size_t Add(size_t question, std::string name, int64_t start_ns,
             int64_t end_ns, size_t parent);
  // Writes every question as one Perfetto-loadable process (JSONL).
  bool Write(const std::string& path) const;

 private:
  struct Question {
    std::string label;
    std::vector<kgqan::obs::SpanRecord> spans;
  };
  std::vector<Question> questions_;
};

// Raw samples behind the per-layer metrics.
struct LayerSamples {
  std::vector<double> extract_ms, shim_ms, answer_type_us;
  std::vector<double> entity_ms, relation_ms, probe_ms, probe_rows;
  std::vector<double> score_us;  // Mean per pair, one sample per probe.
  std::vector<double> pairs_per_question, bgp_ms, queries_generated;
  std::vector<double> candidate_ms, parse_us, rows_per_candidate;
  std::vector<double> requests, round_trips;
  double pairs = 0, kept = 0, generated = 0, executed = 0;
  double questions = 0, qu_failed = 0;
  double replayed_ms = 0, answered_ms = 0;  // For trace coverage.
};

// Uncached, serial copies of the engine's layers, built from
// engine.config() and engine.affinity().  QU is replayed twice when the
// engine's shim is on: by a generator with the shim off (qu.extract_ms, the
// QU work) and by engine.generator() as AnswerFull runs it; the difference
// is the shim's share (qu.shim_ms).
class LayerReplayer {
 public:
  explicit LayerReplayer(const kgqan::core::KgqanEngine& engine);

  // Replays `result` (the answer to `text`, which took `answer_ms` inside
  // AnswerFull) into `samples`, recording spans under `root` of
  // `question` in `log`.
  void Replay(const std::string& text, const kgqan::core::KgqanResult& result,
              double answer_ms, kgqan::sparql::Endpoint& endpoint,
              SpanLog& log, size_t question, size_t root,
              LayerSamples& samples) const;

 private:
  const kgqan::core::KgqanEngine& engine_;
  kgqan::core::JitLinker linker_;
  kgqan::core::BgpGenerator bgp_;
  kgqan::nlp::AnswerTypeClassifier answer_type_;
  kgqan::qu::TriplePatternGenerator plain_qu_;  // Shim off.
};

}  // namespace kgqabench

#endif  // KGQABENCH_LAYERS_H_
