#include "benchgen/benchmark.h"

#include <algorithm>

namespace kgqan::benchgen {

const char* BenchmarkName(BenchmarkId id) {
  switch (id) {
    case BenchmarkId::kQald9:
      return "QALD-9";
    case BenchmarkId::kLcQuad:
      return "LC-QuAD 1.0";
    case BenchmarkId::kYago:
      return "YAGO-Bench";
    case BenchmarkId::kDblp:
      return "DBLP-Bench";
    case BenchmarkId::kMag:
      return "MAG-Bench";
  }
  return "?";
}

std::vector<BenchmarkId> AllBenchmarks() {
  return {BenchmarkId::kQald9, BenchmarkId::kLcQuad, BenchmarkId::kYago,
          BenchmarkId::kDblp, BenchmarkId::kMag};
}

namespace {

struct BenchSpec {
  KgFlavor flavor;
  double kg_scale;  // Relative KG size (Table 2 ratios / 10,000).
  QuestionStyle style;
  QuestionMix mix;  // Table 5 composition (shape x linguistic class).
  uint64_t kg_seed;
  uint64_t question_seed;
  std::string kg_name;
};

BenchSpec SpecFor(BenchmarkId id) {
  BenchSpec s;
  switch (id) {
    case BenchmarkId::kQald9:
      // 150 questions: star 131 / path 19; 81 single, 28 type, 37 multi,
      // 4 boolean (Table 5).  Paths are drawn from the multi-fact class.
      s.flavor = KgFlavor::kDbpedia;
      s.kg_scale = 1.0;  // DBpedia-10: 194M -> ~19k triples.
      s.style = QuestionStyle::kHandWritten;
      s.mix = QuestionMix{81, 0, 28, 18, 19, 4};
      s.kg_seed = 101;
      s.question_seed = 201;
      s.kg_name = "DBpedia-10";
      break;
    case BenchmarkId::kLcQuad:
      // 1000 template questions on an older DBpedia snapshot.
      s.flavor = KgFlavor::kDbpedia;
      s.kg_scale = 0.72;  // DBpedia-04: 140M.
      s.style = QuestionStyle::kTemplated;
      s.mix = QuestionMix{520, 0, 200, 180, 60, 40};
      s.kg_seed = 102;
      s.question_seed = 202;
      s.kg_name = "DBpedia-04";
      break;
    case BenchmarkId::kYago:
      // 100: star 92 / path 8; 87 single, 6 type, 6 multi, 1 boolean.
      s.flavor = KgFlavor::kYago;
      s.kg_scale = 0.75;  // YAGO-4: 145M.
      s.style = QuestionStyle::kSimple;
      s.mix = QuestionMix{85, 2, 6, 0, 6, 1};
      s.kg_seed = 103;
      s.question_seed = 203;
      s.kg_name = "YAGO-4";
      break;
    case BenchmarkId::kDblp:
      // 100: star 92 / path 8; 85 single, 11 type, 4 multi.
      s.flavor = KgFlavor::kDblp;
      s.kg_scale = 1.0;  // DBLP: 136M -> ~14k triples.
      s.style = QuestionStyle::kScholarly;
      s.mix = QuestionMix{81, 4, 11, 0, 4, 0};
      s.kg_seed = 104;
      s.question_seed = 204;
      s.kg_name = "DBLP";
      break;
    case BenchmarkId::kMag:
      // 100: star 77 / path 23; 75 single, 7 type, 16 multi, 2 boolean.
      s.flavor = KgFlavor::kMag;
      s.kg_scale = 1.0;  // MAG: 13B -> ~1.3M triples.
      s.style = QuestionStyle::kScholarly;
      s.mix = QuestionMix{68, 7, 7, 0, 16, 2};
      s.kg_seed = 105;
      s.question_seed = 205;
      s.kg_name = "MAG";
      break;
  }
  return s;
}

}  // namespace

Benchmark BuildBenchmark(BenchmarkId id, double scale) {
  BenchSpec spec = SpecFor(id);
  BuiltKg kg =
      (spec.flavor == KgFlavor::kDblp || spec.flavor == KgFlavor::kMag)
          ? BuildScholarlyKg(spec.flavor, spec.kg_scale * scale,
                             spec.kg_seed)
          : BuildGeneralKg(spec.flavor, spec.kg_scale * scale, spec.kg_seed);

  Benchmark bench;
  bench.name = BenchmarkName(id);
  bench.kg_name = spec.kg_name;

  QuestionMix mix = spec.mix;
  if (scale < 1.0) {
    auto scaled = [&](size_t n) {
      return std::max<size_t>(n > 0 ? 1 : 0,
                              static_cast<size_t>(double(n) * scale));
    };
    mix.single_star = scaled(mix.single_star);
    mix.single_path = scaled(mix.single_path);
    mix.type_star = scaled(mix.type_star);
    mix.multi_star = scaled(mix.multi_star);
    mix.multi_path = scaled(mix.multi_path);
    mix.boolean_star = scaled(mix.boolean_star);
  }

  QuestionGenerator gen(&kg, spec.style, spec.question_seed);
  std::vector<BenchQuestion> questions = gen.Generate(mix);

  bench.endpoint = std::make_unique<sparql::Endpoint>(
      bench.kg_name, std::move(kg.graph));

  // Materialize gold answers; drop questions whose gold query returns
  // nothing (or an unreasonably large set) on the actual KG.
  std::vector<BenchQuestion> kept;
  for (BenchQuestion& q : questions) {
    // Out-of-scope (superlative / count) questions come with directly
    // computed gold answers; their gold query is not expressible in the
    // BGP subset.
    if (!q.gold_answers.empty()) {
      kept.push_back(std::move(q));
      continue;
    }
    auto rs = bench.endpoint->Query(q.gold_sparql);
    if (!rs.ok()) continue;
    if (q.is_boolean) {
      if (!rs->is_ask()) continue;
      q.gold_boolean = rs->ask_value();
      kept.push_back(std::move(q));
      continue;
    }
    if (rs->NumRows() == 0 || rs->NumRows() > 25) continue;
    for (size_t r = 0; r < rs->NumRows(); ++r) {
      const auto& a = rs->At(r, 0);
      if (a.has_value()) q.gold_answers.push_back(*a);
    }
    if (q.gold_answers.empty()) continue;
    kept.push_back(std::move(q));
  }
  bench.questions = std::move(kept);
  return bench;
}

}  // namespace kgqan::benchgen
