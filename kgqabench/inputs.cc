#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "sparql/endpoint.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace kgqabench {

namespace bg = kgqan::benchgen;

const std::vector<Workload>& Workloads() {
  // Question mixes follow the Table 5 composition of LC-QuAD 1.0
  // (520/0/200/180/60/40 per 1000).
  // lcquad-serial runs the serial pipeline (num_threads = 1): with the
  // pooled default its sub-millisecond questions wait on pool hand-offs,
  // which under CPU steal made the median about 2x slower and its
  // run-to-run spread 0.45.
  static const std::vector<Workload> kWorkloads = {
      {"lcquad-serial", bg::QuestionMix{4160, 0, 1600, 1440, 480, 320}, false,
       1, 10.0},
      {"lcquad-serve-rw", bg::QuestionMix{780, 0, 300, 270, 90, 60}, true, 0,
       100.0},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

kgqan::rdf::Graph CopyGraph(const kgqan::rdf::Graph& graph) {
  kgqan::rdf::Graph copy;
  const auto& dict = graph.dictionary();
  for (kgqan::rdf::TermId id = 1; id <= dict.MaxId(); ++id) {
    copy.dictionary().Intern(dict.Get(id));
  }
  for (const kgqan::rdf::Triple& t : graph.triples()) copy.Add(t.s, t.p, t.o);
  return copy;
}

namespace {

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t state = seed ^ (salt * 0xA24BAED4963EE407ULL);
  return kgqan::util::SplitMix64(state);
}

// Drops repeated texts and questions whose gold query fails, returns no
// rows or more than 25 (the filter benchgen::BuildBenchmark applies).
std::vector<bg::BenchQuestion> MaterializeGold(
    std::vector<bg::BenchQuestion> generated, const kgqan::rdf::Graph& graph) {
  kgqan::sparql::LocalEndpoint endpoint("gold", CopyGraph(graph));
  std::unordered_set<std::string> seen;
  std::vector<bg::BenchQuestion> kept;
  for (bg::BenchQuestion& q : generated) {
    if (!seen.insert(q.text).second) continue;
    if (!q.gold_answers.empty()) {
      kept.push_back(std::move(q));
      continue;
    }
    auto rs = endpoint.Query(q.gold_sparql);
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
  return kept;
}

std::string PseudoWord(kgqan::util::Rng& rng) {
  static const char* kSyllables[] = {"zor", "qua", "vex", "kil", "dru",
                                     "myx", "pho", "tav", "xen", "bru",
                                     "gok", "yth", "wem", "jiv", "sul"};
  std::string word;
  const int n = static_cast<int>(rng.UniformInt(3, 4));
  for (int i = 0; i < n; ++i) word += kSyllables[rng.UniformInt(0, 14)];
  return word;
}

std::vector<Delta> MakeDeltas(uint64_t seed, size_t count,
                              const std::vector<bg::BenchQuestion>& questions) {
  std::unordered_set<std::string> question_tokens;
  for (const bg::BenchQuestion& q : questions) {
    for (std::string& t : kgqan::text::Tokenize(q.text)) {
      question_tokens.insert(std::move(t));
    }
  }
  kgqan::util::Rng rng(SubSeed(seed, 5));
  std::unordered_set<std::string> used;
  auto fresh_word = [&]() {
    for (;;) {
      std::string w = PseudoWord(rng);
      if (!question_tokens.count(w) && used.insert(w).second) return w;
    }
  };
  std::vector<Delta> deltas;
  for (size_t k = 0; k < count; ++k) {
    Delta d;
    d.iri = "http://kgqabench.example/fresh/" + std::to_string(seed) + "/" +
            std::to_string(k);
    std::string first = fresh_word();
    std::string second = fresh_word();
    first[0] = static_cast<char>(first[0] - 'a' + 'A');
    second[0] = static_cast<char>(second[0] - 'a' + 'A');
    d.label = first + " " + second;
    d.ntriples = "<" + d.iri +
                 "> <http://www.w3.org/2000/01/rdf-schema#label> \"" +
                 d.label + "\" .\n<" + d.iri +
                 "> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
                 "<http://kgqabench.example/ontology/FreshEntity> .\n";
    deltas.push_back(std::move(d));
  }
  return deltas;
}

}  // namespace

Inputs MakeInputs(const Workload& workload, uint64_t seed, double seconds) {
  Inputs in;
  in.kg = bg::BuildGeneralKg(bg::KgFlavor::kDbpedia, kKgScale,
                             SubSeed(seed, 1));
  bg::QuestionGenerator generator(&in.kg, bg::QuestionStyle::kTemplated,
                                 SubSeed(seed, 2));
  in.questions = MaterializeGold(generator.Generate(workload.mix), in.kg.graph);

  if (workload.served) {
    if (in.questions.size() > kServeDistinctQuestions + 1) {
      in.questions.resize(kServeDistinctQuestions + 1);
    }
    // Zipf(s) over a seeded ranking of questions[1..]: rank r is drawn
    // with probability proportional to 1/(r+1)^s.
    const size_t n = in.questions.size() - 1;
    std::vector<uint32_t> by_rank(n);
    for (size_t i = 0; i < n; ++i) by_rank[i] = static_cast<uint32_t>(i + 1);
    kgqan::util::Rng rank_rng(SubSeed(seed, 3));
    for (size_t i = n; i > 1; --i) {
      std::swap(by_rank[i - 1], by_rank[rank_rng.UniformInt(0, i - 1)]);
    }
    std::vector<double> cdf(n);
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(double(r + 1), kServeZipfS);
      cdf[r] = total;
    }
    // Constant-rate arrivals at the frozen rate (a Poisson schedule made
    // p99 swing with each seed's bursts more than with the program).
    kgqan::util::Rng zipf_rng(SubSeed(seed, 4));
    const size_t requests = static_cast<size_t>(seconds * kServeRateQps);
    for (size_t i = 0; i < requests; ++i) {
      double u = zipf_rng.UniformDouble() * total;
      size_t r = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      in.stream.push_back(by_rank[std::min(r, n - 1)]);
      in.due_s.push_back(double(i) / kServeRateQps);
    }
  }
  const size_t writes =
      workload.served
          ? static_cast<size_t>(seconds * 1000.0 / kWriteIntervalMs)
          : kSerialWrites;
  in.deltas = MakeDeltas(seed, writes, in.questions);
  return in;
}

uint64_t Fingerprint(const Inputs& in) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::string_view s) {
    h ^= kgqan::util::Fnv1a64(s) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  const auto& dict = in.kg.graph.dictionary();
  for (const kgqan::rdf::Triple& t : in.kg.graph.triples()) {
    mix(dict.Get(t.s).value);
    mix(dict.Get(t.p).value);
    mix(dict.Get(t.o).value);
  }
  for (const bg::BenchQuestion& q : in.questions) {
    mix(q.text);
    mix(q.gold_boolean ? "1" : "0");
    for (const auto& a : q.gold_answers) mix(a.value);
  }
  for (size_t i = 0; i < in.stream.size(); ++i) {
    mix(std::to_string(in.stream[i]) + "@" + std::to_string(in.due_s[i]));
  }
  for (const Delta& d : in.deltas) mix(d.ntriples);
  return h;
}

}  // namespace kgqabench
