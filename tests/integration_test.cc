// Cross-module integration tests: the full pipeline over generated
// benchmarks, determinism, universality (one engine across all KGs), and
// the headline result shapes the experiments depend on.

#include <gtest/gtest.h>

#include "baselines/edgqa_like.h"
#include "baselines/ganswer_like.h"
#include "benchgen/benchmark.h"
#include "core/engine.h"
#include "eval/runner.h"

namespace kgqan {
namespace {

core::KgqanConfig FastConfig() {
  core::KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  return cfg;
}

TEST(IntegrationTest, EngineIsDeterministic) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kQald9, 0.15);
  core::KgqanEngine e1(FastConfig());
  core::KgqanEngine e2(FastConfig());
  for (size_t i = 0; i < std::min<size_t>(10, b.questions.size()); ++i) {
    auto r1 = e1.Answer(b.questions[i].text, *b.endpoint);
    auto r2 = e2.Answer(b.questions[i].text, *b.endpoint);
    EXPECT_EQ(r1.answers.size(), r2.answers.size());
    for (size_t a = 0; a < r1.answers.size(); ++a) {
      EXPECT_EQ(r1.answers[a], r2.answers[a]);
    }
  }
}

TEST(IntegrationTest, BenchmarkBuildIsDeterministic) {
  benchgen::Benchmark a =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kDblp, 0.15);
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kDblp, 0.15);
  ASSERT_EQ(a.questions.size(), b.questions.size());
  for (size_t i = 0; i < a.questions.size(); ++i) {
    EXPECT_EQ(a.questions[i].text, b.questions[i].text);
    EXPECT_EQ(a.questions[i].gold_answers.size(),
              b.questions[i].gold_answers.size());
  }
}

TEST(IntegrationTest, OneEngineServesAllFiveKgs) {
  // Universality: the same engine instance, no per-KG setup of any kind.
  core::KgqanEngine engine(FastConfig());
  for (benchgen::BenchmarkId id : benchgen::AllBenchmarks()) {
    double scale = id == benchgen::BenchmarkId::kMag ? 0.05 : 0.15;
    benchgen::Benchmark b = benchgen::BuildBenchmark(id, scale);
    eval::SystemBenchmarkResult r = eval::RunEvaluation(engine, b);
    EXPECT_GT(r.macro.f1, 0.15) << b.name;
    EXPECT_EQ(r.qu_failures, 0u) << b.name;  // QU is KG-independent.
  }
}

TEST(IntegrationTest, HeadlineShapeOnUnseenScholarlyKg) {
  // The paper's core claim: on an unseen KG with opaque URIs, KGQAn beats
  // both baselines by a large margin.
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kDblp, 0.3);
  core::KgqanEngine kgqan(FastConfig());
  baselines::GAnswerLike ganswer;
  baselines::EdgqaLike edgqa;
  edgqa.ConfigureLabelPredicates(
      b.endpoint->name(),
      {"http://purl.org/dc/terms/title", "http://xmlns.com/foaf/0.1/name"});
  ganswer.Preprocess(*b.endpoint);
  edgqa.Preprocess(*b.endpoint);

  double k = eval::RunEvaluation(kgqan, b).macro.f1;
  double g = eval::RunEvaluation(ganswer, b).macro.f1;
  double e = eval::RunEvaluation(edgqa, b).macro.f1;
  EXPECT_GT(k, e + 0.15);
  EXPECT_GT(k, g + 0.3);
}

TEST(IntegrationTest, CrypticPredicatesResolveViaDescriptionFetch) {
  // Wikidata-style KG: P-id predicates force the Algorithm 2 fallback that
  // fetches the predicate description from the KG (Sec. 5.2, wdg:P227).
  benchgen::BuiltKg kg = benchgen::BuildWikidataStyleKg(1.0, 21);
  const benchgen::Fact spouse_fact = kg.facts.at("spouse").front();
  const benchgen::Fact capital_fact = kg.facts.at("capital").front();
  sparql::Endpoint endpoint("wikidata-style", std::move(kg.graph));

  core::KgqanEngine engine(FastConfig());
  auto r1 = engine.Answer(
      "Who is the spouse of " + spouse_fact.subject.label + "?", endpoint);
  bool found_gold = false;
  for (const rdf::Term& a : r1.answers) {
    if (a.value == spouse_fact.object.value) found_gold = true;
  }
  EXPECT_TRUE(found_gold) << spouse_fact.subject.label;

  auto r2 = engine.Answer(
      "What is the capital of " + capital_fact.subject.label + "?",
      endpoint);
  bool found_capital = false;
  for (const rdf::Term& a : r2.answers) {
    if (a.value == capital_fact.object.value) found_capital = true;
  }
  EXPECT_TRUE(found_capital) << capital_fact.subject.label;
}

TEST(IntegrationTest, PreprocessingShapeMatchesTable2) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kQald9, 0.3);
  baselines::GAnswerLike ganswer;
  baselines::EdgqaLike edgqa;
  auto gs = ganswer.Preprocess(*b.endpoint);
  auto es = edgqa.Preprocess(*b.endpoint);
  core::KgqanEngine kgqan(FastConfig());
  auto ks = kgqan.Preprocess(*b.endpoint);
  // gAnswer's index is larger; KGQAn needs nothing.
  EXPECT_GT(gs.index_bytes, es.index_bytes);
  EXPECT_EQ(ks.index_bytes, 0u);
  EXPECT_EQ(ks.seconds, 0.0);
}

TEST(IntegrationTest, FiltrationImprovesF1) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kQald9, 0.4);
  core::KgqanConfig on_cfg = FastConfig();
  core::KgqanConfig off_cfg = on_cfg;
  off_cfg.enable_filtration = false;
  core::KgqanEngine on(on_cfg);
  core::KgqanEngine off(off_cfg);
  double with = eval::RunEvaluation(on, b).macro.f1;
  double without = eval::RunEvaluation(off, b).macro.f1;
  EXPECT_GE(with + 1e-9, without);
}

TEST(IntegrationTest, Gpt3VariantStaysInTheSameBallpark) {
  benchgen::Benchmark b =
      benchgen::BuildBenchmark(benchgen::BenchmarkId::kYago, 0.2);
  core::KgqanConfig bart_cfg = FastConfig();
  core::KgqanConfig gpt_cfg = bart_cfg;
  gpt_cfg.qu.variant = qu::QuVariant::kGpt3Like;
  core::KgqanEngine bart(bart_cfg);
  core::KgqanEngine gpt(gpt_cfg);
  double f_bart = eval::RunEvaluation(bart, b).macro.f1;
  double f_gpt = eval::RunEvaluation(gpt, b).macro.f1;
  EXPECT_GT(f_gpt, f_bart * 0.5);  // Comparable, per Table 4.
  EXPECT_LE(f_gpt, f_bart + 0.15);
}

}  // namespace
}  // namespace kgqan
