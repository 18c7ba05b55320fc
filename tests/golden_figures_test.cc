// Golden pins for Table 4 and Figs. 9–10 at scale 0.1: the numbers
// `bench_table4_plm 0.1`, `bench_fig9_linking 0.1` and
// `bench_fig10_filtration 0.1` print, recorded to 12 significant digits,
// so a refactor of the QU variants, affinity models, linker or filtration
// cannot move them silently.  (Fig. 8's failure counts come from the
// Table 3 runs and are pinned in golden_quality_test.)  Every run is
// deterministic, so the values must match to within 1e-9 and the counts
// exactly; a mismatch is a determinism bug, not a reason to widen the
// tolerance.  One case per benchmark or figure, so `ctest -j` spreads them.

#include <gtest/gtest.h>

#include <cstddef>

#include "bench_common.h"
#include "eval/linking_eval.h"
#include "eval/metrics.h"
#include "eval/runner.h"

namespace kgqan {
namespace {

constexpr double kScale = 0.1;
constexpr double kTolerance = 1e-9;

void ExpectPrf(const eval::Prf& got, double p, double r, double f1) {
  EXPECT_NEAR(got.p, p, kTolerance);
  EXPECT_NEAR(got.r, r, kTolerance);
  EXPECT_NEAR(got.f1, f1, kTolerance);
}

// Table 4: KGQAn's macro F1 with the GPT-3-like QU variant and with the
// coarse-grained (sentence-vector) affinity, run as bench_table4_plm runs
// them.  The default column is Table 3's KGQAn F1, pinned there.
void ExpectTable4(benchgen::BenchmarkId id, double gpt3_qu_f1,
                  double coarse_affinity_f1) {
  benchgen::Benchmark b = bench::BuildAnnounced(id, kScale);
  core::KgqanConfig gpt3_qu_cfg = bench::DefaultEngineConfig();
  gpt3_qu_cfg.qu.variant = qu::QuVariant::kGpt3Like;
  core::KgqanConfig cg_affinity_cfg = bench::DefaultEngineConfig();
  cg_affinity_cfg.affinity_mode = embed::AffinityMode::kCoarseGrained;

  core::KgqanEngine gpt3_qu(gpt3_qu_cfg);
  core::KgqanEngine cg_affinity(cg_affinity_cfg);
  EXPECT_NEAR(eval::RunEvaluation(gpt3_qu, b).macro.f1, gpt3_qu_f1,
              kTolerance)
      << "QU:GPT-3 SA:FG on " << b.name;
  EXPECT_NEAR(eval::RunEvaluation(cg_affinity, b).macro.f1,
              coarse_affinity_f1, kTolerance)
      << "QU:BART SA:CG on " << b.name;
}

TEST(GoldenTable4Test, Qald9) {
  ExpectTable4(benchgen::BenchmarkId::kQald9, 0.5, 0.5);
}

TEST(GoldenTable4Test, LcQuad) {
  ExpectTable4(benchgen::BenchmarkId::kLcQuad,
               0.597619047619, 0.639455782313);
}

TEST(GoldenTable4Test, Yago) {
  ExpectTable4(benchgen::BenchmarkId::kYago,
               0.583333333333, 0.712121212121);
}

TEST(GoldenTable4Test, Dblp) {
  ExpectTable4(benchgen::BenchmarkId::kDblp,
               0.606060606061, 0.560606060606);
}

TEST(GoldenTable4Test, Mag) {
  ExpectTable4(benchgen::BenchmarkId::kMag,
               0.483333333333, 0.466666666667);
}

// Fig. 9: standalone entity and relation linking on LC-QuAD's labelled
// linking set, each system's final F1, and the endpoint requests KGQAn's
// serial linker issues over the whole question set.
TEST(GoldenFig9Test, LcQuadLinking) {
  benchgen::Benchmark b =
      bench::BuildAnnounced(benchgen::BenchmarkId::kLcQuad, kScale);
  core::KgqanEngine kgqan(bench::DefaultEngineConfig());
  baselines::GAnswerLike ganswer;
  baselines::EdgqaLike edgqa;
  bench::ConfigureEdgqaFor(edgqa, benchgen::BenchmarkId::kLcQuad, b);
  ganswer.Preprocess(*b.endpoint);
  edgqa.Preprocess(*b.endpoint);

  const eval::LinkingScores k = eval::EvaluateKgqanLinking(kgqan, b);
  const eval::LinkingScores g = eval::EvaluateGAnswerLinking(ganswer, b);
  const eval::LinkingScores e = eval::EvaluateEdgqaLinking(edgqa, b);
  {
    SCOPED_TRACE("KGQAn");
    ExpectPrf(k.entity, 1.0, 0.832061068702, 0.908333333333);
    ExpectPrf(k.relation, 0.883116883117, 0.883116883117, 0.883116883117);
    EXPECT_NEAR(eval::RunEvaluation(kgqan, b).macro.f1, 0.642857142857,
                kTolerance);
  }
  {
    SCOPED_TRACE("gAnswer");
    ExpectPrf(g.entity, 0.863636363636, 0.145038167939, 0.248366013072);
    ExpectPrf(g.relation, 0.789473684211, 0.194805194805, 0.3125);
    EXPECT_NEAR(eval::RunEvaluation(ganswer, b).macro.f1, 0.112244897959,
                kTolerance);
  }
  {
    SCOPED_TRACE("EDGQA");
    ExpectPrf(e.entity, 0.96, 0.549618320611, 0.699029126214);
    ExpectPrf(e.relation, 0.866666666667, 0.844155844156, 0.855263157895);
    EXPECT_NEAR(eval::RunEvaluation(edgqa, b).macro.f1, 0.612244897959,
                kTolerance);
  }

  core::KgqanConfig serial_cfg = bench::DefaultEngineConfig();
  serial_cfg.num_threads = 1;
  core::KgqanEngine serial(serial_cfg);
  size_t requests = 0;
  for (const auto& q : b.questions) {
    requests += serial.AnswerFull(q.text, *b.endpoint).linking_requests;
  }
  EXPECT_EQ(requests, 300u);
}

// Fig. 10: KGQAn's macro P/R/F1 with and without post-filtration.
void ExpectFig10(benchgen::BenchmarkId id, eval::Prf with_filtration,
                 eval::Prf without_filtration) {
  benchgen::Benchmark b = bench::BuildAnnounced(id, kScale);
  core::KgqanConfig with_cfg = bench::DefaultEngineConfig();
  core::KgqanConfig without_cfg = with_cfg;
  without_cfg.enable_filtration = false;
  core::KgqanEngine with_filter(with_cfg);
  core::KgqanEngine without_filter(without_cfg);
  {
    SCOPED_TRACE("with filtration");
    const eval::Prf& w = with_filtration;
    ExpectPrf(eval::RunEvaluation(with_filter, b).macro, w.p, w.r, w.f1);
  }
  {
    SCOPED_TRACE("no filtration");
    const eval::Prf& wo = without_filtration;
    ExpectPrf(eval::RunEvaluation(without_filter, b).macro, wo.p, wo.r,
              wo.f1);
  }
}

TEST(GoldenFig10Test, Qald9) {
  ExpectFig10(benchgen::BenchmarkId::kQald9, {0.5, 0.5, 0.5},
              {0.5, 0.5, 0.5});
}

TEST(GoldenFig10Test, LcQuad) {
  ExpectFig10(benchgen::BenchmarkId::kLcQuad,
              {0.632653061224, 0.663265306122, 0.642857142857},
              {0.627551020408, 0.663265306122, 0.639455782313});
}

}  // namespace
}  // namespace kgqan
