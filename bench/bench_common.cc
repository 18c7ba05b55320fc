#include "bench_common.h"

#include <cstdlib>
#include <cstring>

namespace kgqan::bench {

double ParseScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) continue;
    double s = std::atof(argv[i]);
    if (s > 0.0) return s;
  }
  return 1.0;
}

std::string ParseFlag(int argc, char** argv, const std::string& name) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return std::string();
}

benchgen::Benchmark BuildAnnounced(benchgen::BenchmarkId id, double scale) {
  benchgen::Benchmark bench = benchgen::BuildBenchmark(id, scale);
  std::printf("[setup] %s on %s: %zu questions, %zu triples\n",
              bench.name.c_str(), bench.kg_name.c_str(),
              bench.questions.size(), bench.endpoint->NumTriples());
  std::fflush(stdout);
  return bench;
}

void ConfigureEdgqaFor(baselines::EdgqaLike& edgqa,
                       benchgen::BenchmarkId id,
                       const benchgen::Benchmark& bench) {
  if (id == benchgen::BenchmarkId::kDblp) {
    edgqa.ConfigureLabelPredicates(
        bench.endpoint->name(),
        {"http://purl.org/dc/terms/title", "http://xmlns.com/foaf/0.1/name"});
  } else if (id == benchgen::BenchmarkId::kMag) {
    edgqa.ConfigureLabelPredicates(bench.endpoint->name(),
                                   {"http://xmlns.com/foaf/0.1/name"});
  }
}

core::KgqanConfig DefaultEngineConfig() {
  core::KgqanConfig config;
  config.qu.inference.enabled = true;
  return config;
}

void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace kgqan::bench
