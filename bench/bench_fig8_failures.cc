// Figure 8 — Failing questions: per benchmark and system, the number of
// questions with R = 0 and F1 = 0, split bottom-up into failures caused by
// question understanding versus all other causes (linking / execution /
// filtering).
//
// Expected shape (Sec. 7.3.1): KGQAn fails on the fewest questions across
// all benchmarks, and in particular has the fewest QU-caused failures — it
// understands questions in unseen domains (DBLP) far better than the
// rule-based baselines.

#include <cstdio>

#include "bench_common.h"
#include "eval/runner.h"

int main(int argc, char** argv) {
  using namespace kgqan;
  double scale = bench::ParseScale(argc, argv);

  std::printf("Figure 8: failing questions (R = 0 and F1 = 0), split by "
              "cause\n");
  bench::PrintRule(86);
  std::printf("%-13s %-9s %12s %12s %12s %10s\n", "Benchmark", "System",
              "#Questions", "due to QU", "others", "Total");
  bench::PrintRule(86);

  for (benchgen::BenchmarkId id : benchgen::AllBenchmarks()) {
    benchgen::Benchmark b = bench::BuildAnnounced(id, scale);
    std::printf("  index footprint: %.1f MiB "
                "(five permutation indexes + term dictionary)\n",
                static_cast<double>(b.endpoint->ApproxIndexBytes()) /
                    (1024.0 * 1024.0));
    core::KgqanEngine kgqan(bench::DefaultEngineConfig());
    baselines::GAnswerLike ganswer;
    baselines::EdgqaLike edgqa;
    bench::ConfigureEdgqaFor(edgqa, id, b);
    ganswer.Preprocess(*b.endpoint);
    edgqa.Preprocess(*b.endpoint);

    struct Entry {
      const char* label;
      eval::SystemBenchmarkResult result;
    };
    Entry entries[] = {
        {"gAnswer", eval::RunEvaluation(ganswer, b)},
        {"EDGQA", eval::RunEvaluation(edgqa, b)},
        {"KGQAn", eval::RunEvaluation(kgqan, b)},
    };
    for (const Entry& e : entries) {
      std::printf("%-13s %-9s %12zu %12zu %12zu %10zu\n", b.name.c_str(),
                  e.label, e.result.num_questions, e.result.qu_failures,
                  e.result.failures - e.result.qu_failures,
                  e.result.failures);
    }
    std::fflush(stdout);
  }
  bench::PrintRule(86);
  return 0;
}
