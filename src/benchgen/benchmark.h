// Benchmark assembly: builds the KG, brings up its SPARQL endpoint,
// generates the question set with the Table 2 / Table 5 composition, and
// materializes gold answers by executing the gold SPARQL.

#ifndef KGQAN_BENCHGEN_BENCHMARK_H_
#define KGQAN_BENCHGEN_BENCHMARK_H_

#include <memory>
#include <string>
#include <vector>

#include "benchgen/kg.h"
#include "benchgen/question_gen.h"
#include "sparql/endpoint.h"

namespace kgqan::benchgen {

enum class BenchmarkId { kQald9, kLcQuad, kYago, kDblp, kMag };

const char* BenchmarkName(BenchmarkId id);

struct Benchmark {
  std::string name;
  std::string kg_name;
  std::unique_ptr<sparql::Endpoint> endpoint;
  std::vector<BenchQuestion> questions;
};

// Builds one of the five paper benchmarks.  `scale` scales both the KG
// size and the question count (1.0 = the paper's composition at 1/10,000
// of the KG sizes; tests use small scales).
Benchmark BuildBenchmark(BenchmarkId id, double scale = 1.0);

// The five benchmarks in paper order.
std::vector<BenchmarkId> AllBenchmarks();

}  // namespace kgqan::benchgen

#endif  // KGQAN_BENCHGEN_BENCHMARK_H_
