// kgqan_cli: command-line question answering over any N-Triples or
// Turtle (.ttl) file.
//
//   $ ./examples/kgqan_cli my_graph.nt
//   > Who is the spouse of Barack Obama?
//   <http://dbpedia.org/resource/Michelle_Obama>
//
// Without a file argument it serves a bundled demo KG.
// Multi-intention questions ("When and where was X born?") are
// decomposed automatically; prefixing a question with "explain " prints
// the full pipeline trace (PGP, links, candidate queries with their
// per-operator EXPLAIN ANALYZE steps, trace id).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "benchgen/kg.h"
#include "core/engine.h"
#include "core/multi_intention.h"
#include "obs/trace.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "sparql/endpoint.h"

namespace {

kgqan::util::StatusOr<kgqan::rdf::Graph> LoadGraph(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return kgqan::util::Status::NotFound(std::string("cannot open ") + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string p(path);
  if (p.size() > 4 && p.substr(p.size() - 4) == ".ttl") {
    return kgqan::rdf::ParseTurtle(text.str());
  }
  return kgqan::rdf::ParseNTriples(text.str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kgqan;

  std::string name;
  rdf::Graph graph;
  if (argc > 1) {
    auto loaded = LoadGraph(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    name = argv[1];
    graph = std::move(loaded).value();
  } else {
    benchgen::BuiltKg kg =
        benchgen::BuildGeneralKg(benchgen::KgFlavor::kDbpedia, 0.3, 99);
    std::printf("(no KG file given; serving a bundled demo KG)\n");
    name = "demo";
    graph = std::move(kg.graph);
  }
  sparql::Endpoint endpoint(std::move(name), std::move(graph));
  std::printf("KG ready: %zu triples.  Ask a question per line; Ctrl-D to "
              "exit.\n",
              endpoint.NumTriples());

  core::KgqanEngine engine;
  core::MultiIntentionAnswerer multi(&engine);

  std::string line;
  std::printf("> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (!line.empty()) {
      if (core::MultiIntentionAnswerer::IsMultiIntention(line)) {
        for (const core::IntentionAnswer& ia :
             multi.Answer(line, endpoint)) {
          std::printf("[%s] %s\n", ia.intention.c_str(),
                      ia.question.c_str());
          for (const rdf::Term& a : ia.response.answers) {
            std::printf("  %s\n", rdf::ToNTriples(a).c_str());
          }
          if (ia.response.answers.empty()) std::printf("  (no answers)\n");
        }
      } else if (line.rfind("explain ", 0) == 0) {
        // A recording trace makes the engine keep per-operator stats
        // (EXPLAIN ANALYZE) and stamp the result with a trace id.
        obs::Trace trace(obs::Trace::Mode::kFull);
        core::KgqanResult full =
            engine.AnswerFull(line.substr(8), endpoint, &trace);
        std::printf("%s", core::Explain(full).c_str());
      } else {
        core::QaResponse r = engine.Answer(line, endpoint);
        if (!r.understood) {
          std::printf("(could not understand the question)\n");
        } else if (r.is_boolean) {
          std::printf("%s\n", r.boolean_answer ? "true" : "false");
        } else if (r.answers.empty()) {
          std::printf("(no answers)\n");
        } else {
          for (const rdf::Term& a : r.answers) {
            std::printf("%s\n", rdf::ToNTriples(a).c_str());
          }
        }
        std::printf("  [%.0fms: QU %.0f | link %.0f | exec %.0f]\n",
                    r.timings.TotalMs(), r.timings.qu_ms,
                    r.timings.linking_ms, r.timings.execution_ms);
      }
    }
    std::printf("> ");
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}
