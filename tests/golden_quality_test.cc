// Golden answer-quality test: pins the macro precision / recall / F1 of
// KGQAn and the gAnswer-like and EDGQA-like baselines on all five
// benchmarks at scale 0.1 — the numbers `bench_table3_quality 0.1` prints —
// so no refactor of the store, evaluator, linker or baselines can move
// answer quality silently.  Benchmarks, engines and baselines are all
// deterministic, so the values must match to within 1e-9 on every
// compiler and build type; a mismatch there is a determinism bug, not a
// reason to widen the tolerance.

#include <gtest/gtest.h>

#include "bench_common.h"
#include "eval/runner.h"

namespace kgqan {
namespace {

constexpr double kScale = 0.1;
constexpr double kTolerance = 1e-9;

struct Table3Row {
  eval::SystemBenchmarkResult kgqan, ganswer, edgqa;
};

// One benchmark's column of Table 3, run exactly as bench_table3_quality
// runs it.
Table3Row RunTable3(benchgen::BenchmarkId id) {
  benchgen::Benchmark b = bench::BuildAnnounced(id, kScale);
  core::KgqanEngine kgqan(bench::DefaultEngineConfig());
  baselines::GAnswerLike ganswer;
  baselines::EdgqaLike edgqa;
  bench::ConfigureEdgqaFor(edgqa, id, b);
  ganswer.Preprocess(*b.endpoint);
  edgqa.Preprocess(*b.endpoint);
  return {eval::RunEvaluation(kgqan, b), eval::RunEvaluation(ganswer, b),
          eval::RunEvaluation(edgqa, b)};
}

void ExpectMacro(const eval::SystemBenchmarkResult& got, double p, double r,
                 double f1) {
  SCOPED_TRACE(got.system + " on " + got.benchmark);
  EXPECT_NEAR(got.macro.p, p, kTolerance);
  EXPECT_NEAR(got.macro.r, r, kTolerance);
  EXPECT_NEAR(got.macro.f1, f1, kTolerance);
}

// Expected values: bench_table3_quality at scale 0.1, to 12 significant
// digits.
TEST(GoldenQualityTest, Qald9) {
  const Table3Row row = RunTable3(benchgen::BenchmarkId::kQald9);
  ExpectMacro(row.kgqan, 0.5, 0.5, 0.5);
  ExpectMacro(row.ganswer, 0.416666666667, 0.416666666667, 0.416666666667);
  ExpectMacro(row.edgqa, 0.5, 0.5, 0.5);
}

TEST(GoldenQualityTest, LcQuad) {
  const Table3Row row = RunTable3(benchgen::BenchmarkId::kLcQuad);
  ExpectMacro(row.kgqan, 0.632653061224, 0.663265306122, 0.642857142857);
  ExpectMacro(row.ganswer, 0.112244897959, 0.112244897959, 0.112244897959);
  ExpectMacro(row.edgqa, 0.612244897959, 0.612244897959, 0.612244897959);
}

TEST(GoldenQualityTest, Yago) {
  const Table3Row row = RunTable3(benchgen::BenchmarkId::kYago);
  ExpectMacro(row.kgqan, 0.75, 0.75, 0.75);
  ExpectMacro(row.ganswer, 0.5, 0.5, 0.5);
  ExpectMacro(row.edgqa, 0.583333333333, 0.583333333333, 0.583333333333);
}

TEST(GoldenQualityTest, Dblp) {
  const Table3Row row = RunTable3(benchgen::BenchmarkId::kDblp);
  ExpectMacro(row.kgqan, 0.590909090909, 0.636363636364, 0.606060606061);
  ExpectMacro(row.ganswer, 0.0, 0.0, 0.0);
  ExpectMacro(row.edgqa, 0.272727272727, 0.272727272727, 0.272727272727);
}

TEST(GoldenQualityTest, Mag) {
  const Table3Row row = RunTable3(benchgen::BenchmarkId::kMag);
  ExpectMacro(row.kgqan, 0.483333333333, 0.6, 0.516666666667);
  ExpectMacro(row.ganswer, 0.0, 0.0, 0.0);
  ExpectMacro(row.edgqa, 0.0, 0.0, 0.0);
}

}  // namespace
}  // namespace kgqan
