// Tests for the evaluation layer: QALD metrics, the runner aggregates,
// and the linking evaluation.

#include <gtest/gtest.h>

#include "benchgen/benchmark.h"
#include "core/engine.h"
#include "eval/linking_eval.h"
#include "eval/metrics.h"
#include "eval/runner.h"

namespace kgqan::eval {
namespace {

benchgen::BenchQuestion MakeGold(std::vector<std::string> iris) {
  benchgen::BenchQuestion q;
  for (const std::string& iri : iris) {
    q.gold_answers.push_back(rdf::Iri(iri));
  }
  return q;
}

core::QaResponse MakeResponse(std::vector<std::string> iris) {
  core::QaResponse r;
  r.understood = true;
  for (const std::string& iri : iris) {
    r.answers.push_back(rdf::Iri(iri));
  }
  return r;
}

TEST(MetricsTest, ExactMatchIsPerfect) {
  Prf s = ScoreQuestion(MakeGold({"a", "b"}), MakeResponse({"b", "a"}));
  EXPECT_DOUBLE_EQ(s.p, 1.0);
  EXPECT_DOUBLE_EQ(s.r, 1.0);
  EXPECT_DOUBLE_EQ(s.f1, 1.0);
}

TEST(MetricsTest, PartialOverlap) {
  Prf s = ScoreQuestion(MakeGold({"a", "b"}), MakeResponse({"a", "c"}));
  EXPECT_DOUBLE_EQ(s.p, 0.5);
  EXPECT_DOUBLE_EQ(s.r, 0.5);
  EXPECT_DOUBLE_EQ(s.f1, 0.5);
}

TEST(MetricsTest, EmptySystemAnswerScoresZero) {
  Prf s = ScoreQuestion(MakeGold({"a"}), MakeResponse({}));
  EXPECT_DOUBLE_EQ(s.p, 0.0);
  EXPECT_DOUBLE_EQ(s.r, 0.0);
  EXPECT_DOUBLE_EQ(s.f1, 0.0);
}

TEST(MetricsTest, DatatypeMattersInComparison) {
  benchgen::BenchQuestion gold;
  gold.gold_answers.push_back(rdf::IntLiteral(42));
  core::QaResponse r;
  r.understood = true;
  r.answers.push_back(rdf::StringLiteral("42"));
  Prf s = ScoreQuestion(gold, r);
  EXPECT_DOUBLE_EQ(s.f1, 0.0);
  core::QaResponse r2;
  r2.understood = true;
  r2.answers.push_back(rdf::IntLiteral(42));
  EXPECT_DOUBLE_EQ(ScoreQuestion(gold, r2).f1, 1.0);
}

TEST(MetricsTest, BooleanScoring) {
  benchgen::BenchQuestion gold;
  gold.is_boolean = true;
  gold.gold_boolean = true;
  core::QaResponse right;
  right.understood = true;
  right.is_boolean = true;
  right.boolean_answer = true;
  EXPECT_DOUBLE_EQ(ScoreQuestion(gold, right).f1, 1.0);
  core::QaResponse wrong = right;
  wrong.boolean_answer = false;
  EXPECT_DOUBLE_EQ(ScoreQuestion(gold, wrong).f1, 0.0);
  core::QaResponse not_boolean;
  not_boolean.understood = true;
  EXPECT_DOUBLE_EQ(ScoreQuestion(gold, not_boolean).f1, 0.0);
}

TEST(MetricsTest, MacroAverager) {
  MacroAverager avg;
  avg.Add(Prf{1.0, 1.0, 1.0});
  avg.Add(Prf{0.0, 0.0, 0.0});
  EXPECT_EQ(avg.count(), 2u);
  EXPECT_DOUBLE_EQ(avg.Average().f1, 0.5);
  EXPECT_DOUBLE_EQ(MacroAverager().Average().f1, 0.0);
}

TEST(RunnerTest, AggregatesOverBenchmark) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kYago, 0.15);
  core::KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  core::KgqanEngine engine(cfg);
  SystemBenchmarkResult r = RunEvaluation(engine, b);
  EXPECT_EQ(r.system, "KGQAn");
  EXPECT_EQ(r.benchmark, "YAGO-Bench");
  EXPECT_EQ(r.num_questions, b.questions.size());
  EXPECT_GE(r.macro.f1, 0.0);
  EXPECT_LE(r.macro.f1, 1.0);
  EXPECT_GE(r.failures, r.qu_failures);
  size_t taxonomy_total = r.taxonomy.total_by_shape[0] +
                          r.taxonomy.total_by_shape[1];
  EXPECT_EQ(taxonomy_total, r.num_questions);
  size_t ling_total = 0;
  for (size_t n : r.taxonomy.total_by_ling) ling_total += n;
  EXPECT_EQ(ling_total, r.num_questions);
  // Solved + failed = total (solved means F1 > 0; failed means F1 == 0).
  size_t solved = r.taxonomy.solved_by_shape[0] +
                  r.taxonomy.solved_by_shape[1];
  EXPECT_EQ(solved + r.failures, r.num_questions);
}

TEST(LinkingEvalTest, KgqanLinkingScoresAreMeaningful) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kQald9, 0.15);
  core::KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  core::KgqanEngine engine(cfg);
  LinkingScores s = EvaluateKgqanLinking(engine, b);
  // Gold links exist and most canonical phrases should resolve.
  EXPECT_GT(s.entity.f1, 0.4);
  EXPECT_GT(s.relation.f1, 0.3);
  EXPECT_LE(s.entity.f1, 1.0);
}

TEST(LinkingEvalTest, BaselineLinkersRunAfterPreprocessing) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kQald9, 0.15);
  baselines::GAnswerLike ganswer;
  baselines::EdgqaLike edgqa;
  ganswer.Preprocess(*b.endpoint);
  edgqa.Preprocess(*b.endpoint);
  LinkingScores g = EvaluateGAnswerLinking(ganswer, b);
  LinkingScores e = EvaluateEdgqaLinking(edgqa, b);
  // EDGQA's ensemble should link entities at least as well as gAnswer's
  // URI-token index on a label-rich KG.
  EXPECT_GE(e.entity.f1 + 1e-9, g.entity.f1 * 0.8);
  EXPECT_GT(e.entity.f1, 0.3);
}

}  // namespace
}  // namespace kgqan::eval
