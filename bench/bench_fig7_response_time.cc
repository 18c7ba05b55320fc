// Figure 7 — Response time: average per-question time of gAnswer (G),
// EDGQA (E) and KGQAn (K) on every benchmark, split bottom-up into
// question understanding (QU), linking, and execution & filtration (E&F).
//
// Expected shape (Sec. 7.2.4): KGQAn's time is dominated by the QU model
// inference; its linking is the cheapest phase; gAnswer's in-memory
// indices make its linking fast; total response time tracks pipeline
// complexity, not KG size (KGQAn takes similar time on LC-QuAD and MAG).
//
// Beyond the paper, the harness also runs the default engine (K-cache: the
// same serial pipeline with the linking cache on) and reports the speedup
// of the KG-bound phases over the stateless engine, with the cache hit
// rate.  The averages come from per-phase latency histograms, so the K and
// K-cache rows are followed by per-phase tail percentiles
// (p50/p90/p95/p99), and `--trace-out=FILE` dumps one Chrome-trace span
// tree per K-cache question (JSONL; load at ui.perfetto.dev).

#include <cstdio>
#include <fstream>

#include "bench_common.h"
#include "eval/runner.h"
#include "obs/chrome_trace.h"

namespace {

// Per-phase latency percentiles of one system's run.
void PrintPercentiles(const char* benchmark, const char* label,
                      const kgqan::eval::SystemBenchmarkResult& r) {
  struct Phase {
    const char* name;
    const kgqan::obs::HistogramSnapshot& hist;
  };
  const Phase phases[] = {{"QU", r.qu_hist},
                          {"Linking", r.linking_hist},
                          {"E&F", r.execution_hist},
                          {"Total", r.total_hist}};
  for (const Phase& p : phases) {
    std::printf("%-13s %-9s %-8s p50 %8.2f  p90 %8.2f  p95 %8.2f  "
                "p99 %8.2f\n",
                benchmark, label, p.name, p.hist.Percentile(50.0),
                p.hist.Percentile(90.0), p.hist.Percentile(95.0),
                p.hist.Percentile(99.0));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kgqan;
  double scale = bench::ParseScale(argc, argv);
  std::string trace_out = bench::ParseFlag(argc, argv, "trace-out");

  obs::TraceCollector collector;

  std::printf("Figure 7: average response time per question, split into "
              "QU / Linking / E&F (milliseconds)\n");
  std::printf("K = KGQAn (paper pipeline); K-cache = K + linking cache\n");
  bench::PrintRule(86);
  std::printf("%-13s %-9s %10s %10s %10s %10s\n", "Benchmark", "System",
              "QU", "Linking", "E&F", "Total");
  bench::PrintRule(86);

  for (benchgen::BenchmarkId id : benchgen::AllBenchmarks()) {
    benchgen::Benchmark b = bench::BuildAnnounced(id, scale);
    core::KgqanConfig stateless_cfg = bench::DefaultEngineConfig();
    stateless_cfg.linking_cache = false;  // The paper's stateless engine.
    core::KgqanEngine kgqan(stateless_cfg);
    core::KgqanEngine kgqan_cache(bench::DefaultEngineConfig());
    baselines::GAnswerLike ganswer;
    baselines::EdgqaLike edgqa;
    bench::ConfigureEdgqaFor(edgqa, id, b);
    ganswer.Preprocess(*b.endpoint);
    edgqa.Preprocess(*b.endpoint);

    // Only the K-cache run is traced: span recording is not free, and K is
    // the timing-sensitive paper configuration.
    eval::EvalRunOptions traced;
    traced.traces = trace_out.empty() ? nullptr : &collector;

    struct Entry {
      const char* label;
      eval::SystemBenchmarkResult result;
    };
    Entry entries[] = {
        {"G", eval::RunEvaluation(ganswer, b)},
        {"E", eval::RunEvaluation(edgqa, b)},
        {"K", eval::RunEvaluation(kgqan, b)},
        {"K-cache", eval::RunEvaluation(kgqan_cache, b, traced)},
    };
    for (const Entry& e : entries) {
      const core::PhaseTimings& t = e.result.avg_timings;
      std::printf("%-13s %-9s %10.2f %10.2f %10.2f %10.2f\n",
                  b.name.c_str(), e.label, t.qu_ms, t.linking_ms,
                  t.execution_ms, t.TotalMs());
    }
    PrintPercentiles(b.name.c_str(), "K", entries[2].result);
    PrintPercentiles(b.name.c_str(), "K-cache", entries[3].result);
    const core::PhaseTimings& tk = entries[2].result.avg_timings;
    const core::PhaseTimings& tc = entries[3].result.avg_timings;
    const eval::SystemBenchmarkResult& cached = entries[3].result;
    double kg_bound_stateless = tk.linking_ms + tk.execution_ms;
    double kg_bound_cached = tc.linking_ms + tc.execution_ms;
    size_t cache_total =
        cached.linking_cache_hits + cached.linking_cache_misses;
    std::printf("%-13s K-cache KG-bound speedup: %.2fx (linking %.2fx), "
                "cache hit rate %.0f%%\n",
                "",
                kg_bound_cached > 0 ? kg_bound_stateless / kg_bound_cached
                                    : 1.0,
                tc.linking_ms > 0 ? tk.linking_ms / tc.linking_ms : 1.0,
                cache_total > 0
                    ? 100.0 * double(cached.linking_cache_hits) /
                          double(cache_total)
                    : 0.0);
    std::fflush(stdout);
  }
  bench::PrintRule(86);

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_out.c_str());
      return 1;
    }
    obs::WriteChromeTrace(collector, out);
    std::printf("[trace] %zu question traces written to %s "
                "(JSONL; load at ui.perfetto.dev)\n",
                collector.entries().size(), trace_out.c_str());
  }
  return 0;
}
