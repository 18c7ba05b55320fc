// Golden answer-quality test: pins the macro precision / recall / F1 of
// KGQAn and the gAnswer-like and EDGQA-like baselines on all five
// benchmarks at scale 0.1 — the numbers `bench_table3_quality 0.1` prints —
// and, from the same runs, the Fig. 8 failure counts
// (`bench_fig8_failures 0.1`) and the Table-5 solved counts by query shape
// and linguistic class (`bench_table5_taxonomy 0.1`), so no refactor of the
// store, evaluator, linker or baselines can move answer quality silently.
// Benchmarks, engines and baselines are all deterministic, so the P/R/F1
// values must match to within 1e-9 and the counts exactly on every
// compiler and build type; a mismatch there is a determinism bug, not a
// reason to widen the tolerance.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>

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

// Fig. 8: questions asked, and questions failed (R = 0 and F1 = 0) in
// total and because question understanding failed.
void ExpectFailures(const eval::SystemBenchmarkResult& got,
                    size_t num_questions, size_t qu_failures,
                    size_t failures) {
  SCOPED_TRACE(got.system + " on " + got.benchmark);
  EXPECT_EQ(got.num_questions, num_questions);
  EXPECT_EQ(got.qu_failures, qu_failures);
  EXPECT_EQ(got.failures, failures);
}

// Table 5: questions solved (F1 > 0) by shape (star, path) and by
// linguistic class (single, type, multi, boolean).
void ExpectSolved(const eval::SystemBenchmarkResult& got,
                  std::array<size_t, 2> by_shape,
                  std::array<size_t, 4> by_ling) {
  SCOPED_TRACE(got.system + " on " + got.benchmark);
  EXPECT_EQ(got.taxonomy.solved_by_shape, by_shape);
  EXPECT_EQ(got.taxonomy.solved_by_ling, by_ling);
}

// Expected values: bench_table3_quality at scale 0.1, to 12 significant
// digits, and the failure and solved counts bench_fig8_failures and
// bench_table5_taxonomy print at 0.1.
TEST(GoldenQualityTest, Qald9) {
  const Table3Row row = RunTable3(benchgen::BenchmarkId::kQald9);
  ExpectMacro(row.kgqan, 0.5, 0.5, 0.5);
  ExpectMacro(row.ganswer, 0.416666666667, 0.416666666667, 0.416666666667);
  ExpectMacro(row.edgqa, 0.5, 0.5, 0.5);
  ExpectFailures(row.kgqan, 12, 0, 6);
  ExpectFailures(row.ganswer, 12, 7, 7);
  ExpectFailures(row.edgqa, 12, 6, 6);
  ExpectSolved(row.kgqan, {6, 0}, {3, 1, 1, 1});
  ExpectSolved(row.ganswer, {5, 0}, {3, 1, 0, 1});
  ExpectSolved(row.edgqa, {6, 0}, {3, 1, 1, 1});
}

TEST(GoldenQualityTest, LcQuad) {
  const Table3Row row = RunTable3(benchgen::BenchmarkId::kLcQuad);
  ExpectMacro(row.kgqan, 0.632653061224, 0.663265306122, 0.642857142857);
  ExpectMacro(row.ganswer, 0.112244897959, 0.112244897959, 0.112244897959);
  ExpectMacro(row.edgqa, 0.612244897959, 0.612244897959, 0.612244897959);
  ExpectFailures(row.kgqan, 98, 0, 33);
  ExpectFailures(row.ganswer, 98, 80, 87);
  ExpectFailures(row.edgqa, 98, 34, 38);
  ExpectSolved(row.kgqan, {61, 4}, {42, 9, 11, 3});
  ExpectSolved(row.ganswer, {11, 0}, {5, 2, 0, 4});
  ExpectSolved(row.edgqa, {56, 4}, {36, 9, 11, 4});
}

TEST(GoldenQualityTest, Yago) {
  const Table3Row row = RunTable3(benchgen::BenchmarkId::kYago);
  ExpectMacro(row.kgqan, 0.75, 0.75, 0.75);
  ExpectMacro(row.ganswer, 0.5, 0.5, 0.5);
  ExpectMacro(row.edgqa, 0.583333333333, 0.583333333333, 0.583333333333);
  ExpectFailures(row.kgqan, 12, 0, 3);
  ExpectFailures(row.ganswer, 12, 4, 6);
  ExpectFailures(row.edgqa, 12, 3, 5);
  ExpectSolved(row.kgqan, {7, 2}, {6, 1, 1, 1});
  ExpectSolved(row.ganswer, {6, 0}, {4, 1, 0, 1});
  ExpectSolved(row.edgqa, {5, 2}, {4, 1, 1, 1});
}

TEST(GoldenQualityTest, Dblp) {
  const Table3Row row = RunTable3(benchgen::BenchmarkId::kDblp);
  ExpectMacro(row.kgqan, 0.590909090909, 0.636363636364, 0.606060606061);
  ExpectMacro(row.ganswer, 0.0, 0.0, 0.0);
  ExpectMacro(row.edgqa, 0.272727272727, 0.272727272727, 0.272727272727);
  ExpectFailures(row.kgqan, 11, 0, 4);
  ExpectFailures(row.ganswer, 11, 8, 11);
  ExpectFailures(row.edgqa, 11, 8, 8);
  ExpectSolved(row.kgqan, {5, 2}, {5, 1, 1, 0});
  ExpectSolved(row.ganswer, {0, 0}, {0, 0, 0, 0});
  ExpectSolved(row.edgqa, {3, 0}, {3, 0, 0, 0});
}

TEST(GoldenQualityTest, Mag) {
  const Table3Row row = RunTable3(benchgen::BenchmarkId::kMag);
  ExpectMacro(row.kgqan, 0.483333333333, 0.6, 0.516666666667);
  ExpectMacro(row.ganswer, 0.0, 0.0, 0.0);
  ExpectMacro(row.edgqa, 0.0, 0.0, 0.0);
  ExpectFailures(row.kgqan, 10, 0, 4);
  ExpectFailures(row.ganswer, 10, 10, 10);
  ExpectFailures(row.edgqa, 10, 10, 10);
  ExpectSolved(row.kgqan, {4, 2}, {4, 0, 1, 1});
  ExpectSolved(row.ganswer, {0, 0}, {0, 0, 0, 0});
  ExpectSolved(row.edgqa, {0, 0}, {0, 0, 0, 0});
}

}  // namespace
}  // namespace kgqan
