// Store dashboard: single-query latency of candidate-shaped SPARQL queries
// through the serial evaluator on the v1 store and, with --store=compact,
// on the compact store over the identical graph — plus the index-build,
// store-bytes and snapshot cold-start numbers that ride on the same KG.
//
// Every compact run is checked byte-identical to the v1 reference before
// its timing is reported; a ratio printed here is a ratio of the *same*
// answer.  `--json=out.json` writes a machine-readable summary the CI
// store-bench-smoke gate checks (identity, compression, cold start).
// Numbers depend on the machine's core count (printed in the header).

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "benchgen/kg.h"
#include "sparql/endpoint.h"
#include "sparql/result_set.h"
#include "store/compact_store.h"
#include "store/triple_store.h"
#include "util/stopwatch.h"

namespace {

using kgqan::sparql::ResultSet;

bool SameResults(const ResultSet& a, const ResultSet& b) {
  return a.is_ask() == b.is_ask() && a.ask_value() == b.ask_value() &&
         a.columns() == b.columns() && a.rows() == b.rows();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kgqan;
  const double scale = bench::ParseScale(argc, argv);
  const std::string json_path = bench::ParseFlag(argc, argv, "json");
  // Best-of-kReps per cell; `--reps=N` raises it so ratio gates in CI
  // see the converged floor of both columns, not scheduler noise.
  const std::string reps_flag = bench::ParseFlag(argc, argv, "reps");
  const int kReps = reps_flag.empty() ? 5 : std::stoi(reps_flag);
  // `--store=compact` adds the compact (dictionary-compressed CSR, store
  // v2) endpoint as a differential column, identity-checked against the v1
  // reference, plus snapshot
  // write / mmap-load timings and the bytes comparison the CI
  // store-bench-smoke gate checks.
  const std::string store_flag = bench::ParseFlag(argc, argv, "store");
  const bool compact_enabled = store_flag == "compact";
  if (!store_flag.empty() && !compact_enabled && store_flag != "v1") {
    std::fprintf(stderr, "unknown --store '%s' (v1|compact)\n",
                 store_flag.c_str());
    return 2;
  }

  std::printf("Serial evaluation, v1 vs compact store "
              "(hardware threads on this host: %u)\n",
              std::thread::hardware_concurrency());

  // The MAG-style builder is the largest (~10-100x the general KGs at the
  // same scale), so scans are wide enough to time.
  benchgen::BuiltKg kg =
      benchgen::BuildScholarlyKg(benchgen::KgFlavor::kMag, scale, 42);
  std::printf("KG: %s, %zu triples (scale %.2f)\n", kg.name.c_str(),
              kg.graph.size(), scale);

  // Satellite: parallel TripleStore construction.  The builder is seeded,
  // so regenerating yields the identical graph (rdf::Graph is move-only);
  // only the wall time of the six permutation sorts differs.
  double build_serial_ms = 0.0;
  double build_parallel_ms = 0.0;
  {
    rdf::Graph g = benchgen::BuildScholarlyKg(benchgen::KgFlavor::kMag, scale,
                                              42)
                       .graph;
    util::Stopwatch w;
    store::TripleStore serial(std::move(g), /*build_threads=*/1);
    build_serial_ms = w.ElapsedMillis();
  }
  {
    rdf::Graph g = benchgen::BuildScholarlyKg(benchgen::KgFlavor::kMag, scale,
                                              42)
                       .graph;
    util::Stopwatch w;
    store::TripleStore parallel(std::move(g), /*build_threads=*/8);
    build_parallel_ms = w.ElapsedMillis();
  }
  std::printf("index build: serial %.1f ms, 8-thread %.1f ms (%.2fx)\n",
              build_serial_ms, build_parallel_ms,
              build_serial_ms / (build_parallel_ms > 0.0 ? build_parallel_ms
                                                         : 1.0));

  // A productive two-hop chain predicate (objects typed like subjects, e.g.
  // paper-cites-paper), and the star hub: the subject type with the most
  // distinct entity-valued predicates, whose top predicates form the
  // common-subject star of a typical LC-QuAD candidate.
  std::string chain_pred;
  size_t chain_facts = 0;
  std::map<std::string, std::map<std::string, size_t>> preds_by_type;
  for (const auto& [key, facts] : kg.facts) {
    if (facts.empty()) continue;
    const benchgen::Fact& f = facts.front();
    if (f.object_type_key.empty()) continue;  // literal objects
    preds_by_type[f.subject.type_key][f.predicate_iri] += facts.size();
    const bool self_typed = f.object_type_key == f.subject.type_key;
    if ((self_typed && (chain_facts == 0 || facts.size() > chain_facts)) ||
        (chain_pred.empty() && !facts.empty())) {
      chain_pred = f.predicate_iri;
      chain_facts = facts.size();
    }
  }
  std::vector<std::string> star_preds;
  for (const auto& [type_key, preds] : preds_by_type) {
    if (preds.size() > star_preds.size()) {
      star_preds.clear();
      for (const auto& [iri, count] : preds) star_preds.push_back(iri);
    }
  }
  if (star_preds.size() > 3) star_preds.resize(3);
  // An entity anchor for the candidate-shaped star: KGQAn's linker always
  // grounds at least one term, so real LC-QuAD candidates enter the join
  // from a selective bound pattern, not a full predicate scan.
  std::string star_anchor;
  if (!star_preds.empty()) {
    for (const auto& [key, facts] : kg.facts) {
      if (!facts.empty() && facts.front().predicate_iri == star_preds[0] &&
          facts.front().object.kind == rdf::TermKind::kIri) {
        star_anchor = facts.front().object.value;
        break;
      }
    }
  }

  struct QuerySpec {
    const char* label;
    std::string text;
  };
  std::vector<QuerySpec> specs = {
      {"count-scan", "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }"},
      {"distinct-pred", "SELECT DISTINCT ?p WHERE { ?s ?p ?o }"},
  };
  if (star_preds.size() >= 2) {
    std::string star = "SELECT (COUNT(?x) AS ?n) WHERE {";
    for (size_t i = 0; i < star_preds.size(); ++i) {
      star += " ?x <" + star_preds[i] + "> ?v" + std::to_string(i) + " .";
    }
    star += " }";
    specs.push_back({"star-hub", std::move(star)});
    if (!star_anchor.empty()) {
      // Candidate-shaped: the anchored pattern is most selective, so the
      // planner enters there and the remaining star edges join a small
      // batch — the shape the engine's generated queries actually have.
      std::string anchored = "SELECT ?x WHERE { ?x <" + star_preds[0] +
                             "> <" + star_anchor + "> .";
      for (size_t i = 1; i < star_preds.size(); ++i) {
        anchored += " ?x <" + star_preds[i] + "> ?v" + std::to_string(i) +
                    " .";
      }
      anchored += " }";
      specs.push_back({"star-anchored", std::move(anchored)});
    }
  }
  if (!chain_pred.empty()) {
    specs.push_back({"chain-2hop",
                     "SELECT (COUNT(?a) AS ?n) WHERE { ?a <" + chain_pred +
                         "> ?b . ?b <" + chain_pred + "> ?c }"});
  }

  sparql::EndpointOptions ep_options;
  ep_options.build_threads = 8;
  sparql::LocalEndpoint ep("mag-eval", std::move(kg.graph), ep_options);
  // Let the joins' intermediate results grow past the default cap so the
  // later steps have real work; identical on both stores.
  ep.mutable_eval_options().max_rows = 4'000'000;

  // Optional compact-store differential endpoint over the identical graph
  // (the builder is seeded, so regenerating yields the identical graph).
  std::unique_ptr<sparql::CompactEndpoint> compact_ep;
  double compact_build_ms = 0.0;
  double snapshot_write_ms = 0.0;
  double snapshot_load_ms = 0.0;
  size_t snapshot_bytes = 0;
  if (compact_enabled) {
    rdf::Graph g = benchgen::BuildScholarlyKg(benchgen::KgFlavor::kMag, scale,
                                              42)
                       .graph;
    util::Stopwatch w;
    compact_ep = std::make_unique<sparql::CompactEndpoint>(
        "mag-eval-compact", std::move(g), ep_options);
    compact_build_ms = w.ElapsedMillis();
    compact_ep->mutable_eval_options().max_rows = 4'000'000;
    // Cold-start satellite: persist the store once, then time a pure
    // mmap load of the snapshot against the from-source rebuild above.
    const std::string snap_path = "/tmp/bench_eval_compact.snap";
    {
      util::Stopwatch sw;
      util::Status st = compact_ep->WriteSnapshot(snap_path);
      snapshot_write_ms = sw.ElapsedMillis();
      if (!st.ok()) {
        std::fprintf(stderr, "snapshot write failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    }
    {
      util::Stopwatch sw;
      store::CompactStore loaded;
      util::Status st = loaded.LoadSnapshot(snap_path);
      snapshot_load_ms = sw.ElapsedMillis();
      if (!st.ok()) {
        std::fprintf(stderr, "snapshot load failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      snapshot_bytes = loaded.index_bytes() + loaded.dict_bytes();
    }
    std::remove(snap_path.c_str());
    std::printf("compact store: build %.1f ms, snapshot write %.1f ms, "
                "mmap load %.2f ms (%.0fx faster than rebuild)\n",
                compact_build_ms, snapshot_write_ms, snapshot_load_ms,
                compact_build_ms /
                    (snapshot_load_ms > 0.0 ? snapshot_load_ms : 0.001));
    std::printf("compact bytes: %.1f MiB vs v1 %.1f MiB (%.2fx)\n",
                static_cast<double>(compact_ep->ApproxIndexBytes()) /
                    (1024.0 * 1024.0),
                static_cast<double>(ep.store().ApproxIndexBytes()) /
                    (1024.0 * 1024.0),
                static_cast<double>(compact_ep->ApproxIndexBytes()) /
                    static_cast<double>(ep.store().ApproxIndexBytes()));
  }
  std::printf("index footprint: %.1f MiB "
              "(six permutation indexes + term dictionary)\n\n",
              static_cast<double>(ep.store().ApproxIndexBytes()) /
                  (1024.0 * 1024.0));

  bench::PrintRule(60);
  std::printf("%-14s  %10s  %10s  %10s\n", "query", "v1", "compact",
              "v1/compact");
  bench::PrintRule(60);

  struct Run {
    const char* query;
    const char* mode;
    double ms;
    size_t rows;
  };
  std::vector<Run> runs;
  bool all_identical = true;
  auto rows_of = [](const ResultSet& rs) {
    return rs.is_ask() ? size_t{rs.ask_value()} : rs.NumRows();
  };
  for (const QuerySpec& spec : specs) {
    double v1_ms = 0.0;
    double compact_ms = 0.0;
    size_t v1_rows = 0;
    size_t compact_rows = 0;
    // Reps are interleaved across the two stores, not run as per-store
    // blocks: a load spike on a busy runner then inflates both columns of
    // that rep, so the best-of-reps ratio stays stable.
    for (int rep = 0; rep < kReps; ++rep) {
      util::Stopwatch w;
      auto rs = ep.Query(spec.text);
      double ms = w.ElapsedMillis();
      if (!rs.ok()) {
        std::printf("query failed: %s\n", rs.status().message().c_str());
        return 1;
      }
      v1_rows = rows_of(*rs);
      if (rep == 0 || ms < v1_ms) v1_ms = ms;
      if (!compact_ep) continue;
      util::Stopwatch cw;
      auto crs = compact_ep->Query(spec.text);
      double cms = cw.ElapsedMillis();
      if (!crs.ok()) {
        std::printf("compact query failed: %s\n",
                    crs.status().message().c_str());
        return 1;
      }
      compact_rows = rows_of(*crs);
      if (rep == 0 && !SameResults(*rs, *crs)) all_identical = false;
      if (rep == 0 || cms < compact_ms) compact_ms = cms;
    }
    runs.push_back({spec.label, "serial", v1_ms, v1_rows});
    std::printf("%-14s  %7.2f ms", spec.label, v1_ms);
    if (compact_ep) {
      runs.push_back({spec.label, "compact-serial", compact_ms, compact_rows});
      // v1 ms / compact ms: >= 1.0 means compact is at least as fast.
      std::printf("  %7.2f ms  %9.2fx", compact_ms,
                  v1_ms / (compact_ms > 0.0 ? compact_ms : 0.001));
    }
    std::printf("\n");
  }
  bench::PrintRule(60);
  if (compact_ep) {
    std::printf("compact byte-identical to v1: %s\n",
                all_identical ? "yes" : "NO — BUG");
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"bench_eval\",\n");
    std::fprintf(out, "  \"scale\": %g,\n  \"triples\": %zu,\n", scale,
                 ep.NumTriples());
    std::fprintf(out, "  \"identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(out, "  \"build_serial_ms\": %.3f,\n", build_serial_ms);
    std::fprintf(out, "  \"build_parallel_ms\": %.3f,\n", build_parallel_ms);
    // Aggregate store footprint of the endpoint under test: the active
    // store's bytes (compact when --store=compact), with the v1 bytes kept
    // alongside so the CI compression gate can form the ratio.
    std::fprintf(out, "  \"store_bytes\": %zu,\n",
                 compact_ep ? compact_ep->ApproxIndexBytes()
                            : ep.store().ApproxIndexBytes());
    std::fprintf(out, "  \"v1_store_bytes\": %zu,\n",
                 ep.store().ApproxIndexBytes());
    if (compact_ep) {
      std::fprintf(out, "  \"compact_build_ms\": %.3f,\n", compact_build_ms);
      std::fprintf(out, "  \"snapshot_write_ms\": %.3f,\n", snapshot_write_ms);
      std::fprintf(out, "  \"snapshot_load_ms\": %.3f,\n", snapshot_load_ms);
      std::fprintf(out, "  \"snapshot_bytes\": %zu,\n", snapshot_bytes);
    }
    std::fprintf(out, "  \"runs\": [\n");
    for (size_t i = 0; i < runs.size(); ++i) {
      std::fprintf(out,
                   "    {\"query\": \"%s\", \"mode\": \"%s\", "
                   "\"ms\": %.4f, \"rows\": %zu}%s\n",
                   runs[i].query, runs[i].mode, runs[i].ms, runs[i].rows,
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
}
