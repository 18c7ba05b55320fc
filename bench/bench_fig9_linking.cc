// Figure 9 — Standalone entity and relation linking on the LC-QuAD
// labelled linking dataset: P/R/F1 of each system's linker probed with the
// gold (phrase -> URI) pairs, next to the system's final end-to-end F1.
//
// Expected shape (Sec. 7.3.2): EDGQA's three-index ensemble achieves the
// strongest standalone linking, but its end-to-end F1 falls well below its
// linking F1; KGQAn's final F1 is almost identical to its entity-linking
// F1 (the post-filtering recovers what recall-first linking lets through);
// gAnswer links poorly on LC-QuAD because its QU rules were curated on
// QALD-9.

#include <cstdio>

#include "bench_common.h"
#include "eval/linking_eval.h"
#include "eval/runner.h"

int main(int argc, char** argv) {
  using namespace kgqan;
  double scale = bench::ParseScale(argc, argv);

  benchgen::Benchmark b =
      bench::BuildAnnounced(benchgen::BenchmarkId::kLcQuad, scale);
  core::KgqanEngine kgqan(bench::DefaultEngineConfig());
  baselines::GAnswerLike ganswer;
  baselines::EdgqaLike edgqa;
  bench::ConfigureEdgqaFor(edgqa, benchgen::BenchmarkId::kLcQuad, b);
  ganswer.Preprocess(*b.endpoint);
  edgqa.Preprocess(*b.endpoint);

  eval::LinkingScores k = eval::EvaluateKgqanLinking(kgqan, b);
  eval::LinkingScores g = eval::EvaluateGAnswerLinking(ganswer, b);
  eval::LinkingScores e = eval::EvaluateEdgqaLinking(edgqa, b);

  double k_final = eval::RunEvaluation(kgqan, b).macro.f1;
  double g_final = eval::RunEvaluation(ganswer, b).macro.f1;
  double e_final = eval::RunEvaluation(edgqa, b).macro.f1;

  std::printf("\nFigure 9: entity and relation linking on the LC-QuAD "
              "labelled linking set (percent)\n");
  bench::PrintRule(92);
  std::printf("%-9s | %-23s | %-23s | %s\n", "System",
              "Entity linking P/R/F1", "Relation linking P/R/F1",
              "Final (end-to-end) F1");
  bench::PrintRule(92);
  auto row = [](const char* name, const eval::LinkingScores& s,
                double final_f1) {
    std::printf("%-9s | %6.1f %6.1f %6.1f   | %6.1f %6.1f %6.1f   | %6.1f\n",
                name, s.entity.p * 100, s.entity.r * 100, s.entity.f1 * 100,
                s.relation.p * 100, s.relation.r * 100, s.relation.f1 * 100,
                final_f1 * 100);
  };
  row("gAnswer", g, g_final);
  row("EDGQA", e, e_final);
  row("KGQAn", k, k_final);
  bench::PrintRule(92);

  // Endpoint traffic of the serial pipeline's linking phase (K) over the
  // whole question set: one request per probe, in order (summed
  // KgqanResult linking counters).
  core::KgqanEngine serial(bench::DefaultEngineConfig());
  size_t requests = 0;
  double linking_ms = 0.0;
  for (const auto& q : b.questions) {
    core::KgqanResult result = serial.AnswerFull(q.text, *b.endpoint);
    requests += result.linking_requests;
    linking_ms += result.response.timings.linking_ms;
  }

  std::printf("\nJIT-linking endpoint traffic over the same question set\n");
  bench::PrintRule(40);
  std::printf("%-9s | %9s | %s\n", "Variant", "Requests", "Linking ms");
  bench::PrintRule(40);
  std::printf("%-9s | %9zu | %10.1f\n", "K", requests, linking_ms);
  bench::PrintRule(40);
  return 0;
}
