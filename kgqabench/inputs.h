// Workload definitions and seeded input generation for the KGQAn
// benchmark.  Everything a run feeds the program — the KG, the questions
// with their gold answers, the Zipf request stream, the arrival schedule
// and the write deltas — is a pure function of (workload, seed, seconds).

#ifndef KGQABENCH_INPUTS_H_
#define KGQABENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/kg.h"
#include "benchgen/question_gen.h"
#include "rdf/graph.h"

namespace kgqabench {

struct Workload {
  std::string name;
  kgqan::benchgen::QuestionMix mix;  // Generated before gold filtering.
  bool served;  // QaServer, open loop, concurrent writer, QU shim on.
  size_t num_threads;  // KgqanConfig::num_threads; 0 is the default.
  double latency_limit_ms;  // SLO limit on per-question latency.
};

// Both workloads run LC-QuAD 1.0's DBpedia-like KG at benchgen scale 4
// (about 29 k triples); this is the argument of BuildGeneralKg.
inline constexpr double kKgScale = 0.72 * 4;
// Frozen parameters of the open-loop workload (see README.md).
inline constexpr double kServeRateQps = 40.0;
inline constexpr double kServeZipfS = 0.8;
inline constexpr size_t kServeDistinctQuestions = 1000;
inline constexpr double kWriteIntervalMs = 500.0;
// Cold starts per run; setup_s is their median.
inline constexpr size_t kSetupReps = 15;
// The closed-loop workload applies this many writes, spaced over this
// window after the questions.
inline constexpr size_t kSerialWrites = 100;
inline constexpr double kSerialWriteWindowS = 5.0;
// A run whose dispatcher sent more than 1% of its questions later than this
// after their due time fell behind schedule and is invalid.
inline constexpr double kMaxDispatchLateP99Ms = 50.0;

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// One write: a fresh entity whose IRI and label tokens occur nowhere in the
// KG or the questions, so it cannot change any workload answer.
struct Delta {
  std::string iri;
  std::string label;
  std::string ntriples;
};

struct Inputs {
  kgqan::benchgen::BuiltKg kg;
  // Distinct question texts with materialized gold answers.  questions[0]
  // is the cold-start question; the measured stream never asks it.
  std::vector<kgqan::benchgen::BenchQuestion> questions;
  // Open loop: question index and due time (seconds after start) of each
  // request.
  std::vector<uint32_t> stream;
  std::vector<double> due_s;
  std::vector<Delta> deltas;
};

Inputs MakeInputs(const Workload& workload, uint64_t seed, double seconds);

// A copy of `graph` with identical term ids (rdf::Graph is move-only; every
// endpoint build consumes one).
kgqan::rdf::Graph CopyGraph(const kgqan::rdf::Graph& graph);

// Order-sensitive digest of everything MakeInputs produced.
uint64_t Fingerprint(const Inputs& inputs);

}  // namespace kgqabench

#endif  // KGQABENCH_INPUTS_H_
