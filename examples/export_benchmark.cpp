// export_benchmark: materializes one of the five benchmarks to disk so the
// datasets can be inspected or consumed by other tools — the KG as Turtle,
// the questions (with gold SPARQL, answers and links) as TSV.
//
//   $ ./examples/export_benchmark qald9 /tmp/qald9_export 0.2
//   /tmp/qald9_export/kg.ttl
//   /tmp/qald9_export/questions.tsv

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "benchgen/benchmark.h"
#include "benchgen/kg.h"
#include "rdf/turtle.h"
#include "util/string_util.h"

namespace {

using namespace kgqan;

std::map<std::string, std::string> PrefixesFor(benchgen::BenchmarkId id) {
  switch (id) {
    case benchgen::BenchmarkId::kQald9:
    case benchgen::BenchmarkId::kLcQuad:
      return {{"dbr", "http://dbpedia.org/resource/"},
              {"dbo", "http://dbpedia.org/ontology/"},
              {"dbp", "http://dbpedia.org/property/"},
              {"rdfs", "http://www.w3.org/2000/01/rdf-schema#"}};
    case benchgen::BenchmarkId::kYago:
      return {{"yago", "http://yago-knowledge.org/resource/"},
              {"schema", "http://schema.org/"},
              {"rdfs", "http://www.w3.org/2000/01/rdf-schema#"}};
    case benchgen::BenchmarkId::kDblp:
      return {{"dblp", "https://dblp.org/rdf/schema#"},
              {"dc", "http://purl.org/dc/terms/"},
              {"foaf", "http://xmlns.com/foaf/0.1/"}};
    case benchgen::BenchmarkId::kMag:
      return {{"magp", "http://ma-graph.org/property/"},
              {"foaf", "http://xmlns.com/foaf/0.1/"}};
  }
  return {};
}

std::string TsvEscape(const std::string& s) {
  std::string out = kgqan::util::ReplaceAll(s, "\t", " ");
  return kgqan::util::ReplaceAll(out, "\n", " ");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <qald9|lcquad|yago|dblp|mag> <out_dir> "
                 "[scale]\n",
                 argv[0]);
    return 2;
  }
  std::string which = argv[1];
  benchgen::BenchmarkId id;
  if (which == "qald9") {
    id = benchgen::BenchmarkId::kQald9;
  } else if (which == "lcquad") {
    id = benchgen::BenchmarkId::kLcQuad;
  } else if (which == "yago") {
    id = benchgen::BenchmarkId::kYago;
  } else if (which == "dblp") {
    id = benchgen::BenchmarkId::kDblp;
  } else if (which == "mag") {
    id = benchgen::BenchmarkId::kMag;
  } else {
    std::fprintf(stderr, "unknown benchmark '%s'\n", which.c_str());
    return 2;
  }
  double scale = argc > 3 ? std::atof(argv[3]) : 1.0;

  benchgen::Benchmark bench = benchgen::BuildBenchmark(id, scale);
  std::filesystem::path dir(argv[2]);
  std::filesystem::create_directories(dir);

  // The endpoint owns the store; re-render its triples as a Graph.
  {
    rdf::Graph graph;
    const store::TripleStore& store = bench.endpoint->store();
    const rdf::TermDictionary& dict = store.dictionary();
    store.Match(rdf::kNullTermId, rdf::kNullTermId, rdf::kNullTermId,
                [&](const rdf::Triple& t) {
                  graph.Add(dict.Get(t.s), dict.Get(t.p), dict.Get(t.o));
                  return true;
                });
    std::ofstream out(dir / "kg.ttl");
    out << rdf::WriteTurtle(graph, PrefixesFor(id));
  }
  {
    std::ofstream out(dir / "questions.tsv");
    out << "question\tshape\tclass\tgold_sparql\tgold_answers\tgold_links\n";
    for (const benchgen::BenchQuestion& q : bench.questions) {
      out << TsvEscape(q.text) << "\t" << benchgen::QueryShapeName(q.shape)
          << "\t" << benchgen::LingClassName(q.ling) << "\t"
          << TsvEscape(q.gold_sparql) << "\t";
      if (q.is_boolean) {
        out << (q.gold_boolean ? "true" : "false");
      } else {
        for (size_t i = 0; i < q.gold_answers.size(); ++i) {
          if (i > 0) out << " | ";
          out << TsvEscape(rdf::ToNTriples(q.gold_answers[i]));
        }
      }
      out << "\t";
      for (size_t i = 0; i < q.gold_links.size(); ++i) {
        if (i > 0) out << " | ";
        out << (q.gold_links[i].is_relation ? "rel:" : "ent:")
            << TsvEscape(q.gold_links[i].phrase) << "="
            << q.gold_links[i].iri;
      }
      out << "\n";
    }
  }
  std::printf("exported %s (%zu triples, %zu questions) to %s\n",
              bench.name.c_str(), bench.endpoint->NumTriples(),
              bench.questions.size(), dir.string().c_str());
  return 0;
}
