// SPARQL console: a tiny REPL over the in-process endpoint, demonstrating
// the substrate API directly (store + full-text index + SPARQL engine)
// without KGQAn on top.  Reads one query per line from stdin; a demo
// query runs first so the example is useful non-interactively:
//
//   $ echo 'SELECT ?v ?d WHERE { ?v ?p ?d . ?d <bif:contains> "sea" . } LIMIT 3' |
//       ./examples/sparql_console

#include <cstdio>
#include <iostream>
#include <string>

#include "benchgen/kg.h"
#include "sparql/endpoint.h"

int main() {
  using namespace kgqan;

  benchgen::BuiltKg kg =
      benchgen::BuildGeneralKg(benchgen::KgFlavor::kDbpedia, 0.2, 11);
  sparql::Endpoint endpoint("console", std::move(kg.graph));
  std::printf("SPARQL console over %zu triples.  One query per line; "
              "Ctrl-D to exit.\n",
              endpoint.NumTriples());

  const std::string demo =
      "SELECT DISTINCT ?city ?mayor WHERE { "
      "?city <http://dbpedia.org/ontology/mayor> ?mayor . } LIMIT 3";
  std::printf("\ndemo> %s\n", demo.c_str());
  if (auto rs = endpoint.Query(demo); rs.ok()) {
    std::printf("%s", rs->ToTsv().c_str());
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    auto rs = endpoint.Query(line);
    if (!rs.ok()) {
      std::printf("error: %s\n", rs.status().ToString().c_str());
      continue;
    }
    std::printf("%s(%zu rows)\n", rs->ToTsv().c_str(), rs->NumRows());
  }
  return 0;
}
