// Shared setup for the table/figure reproduction binaries: benchmark
// construction, per-KG baseline configuration, and plain-text table
// printing.
//
// Every binary accepts an optional scale argument (the first non-flag
// argument, default 1.0) that scales KG sizes and question counts; the
// reported numbers in EXPERIMENTS.md use scale 1.0.  `--name=value` flags
// (e.g. --trace-out=trace.jsonl) may appear in any position.

#ifndef KGQAN_BENCH_BENCH_COMMON_H_
#define KGQAN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/edgqa_like.h"
#include "baselines/ganswer_like.h"
#include "benchgen/benchmark.h"
#include "core/engine.h"

namespace kgqan::bench {

// Parses the first non-flag argument as the benchmark scale (default 1.0).
double ParseScale(int argc, char** argv);

// Returns the value of a `--name=value` flag, or "" when absent.
std::string ParseFlag(int argc, char** argv, const std::string& name);

// Builds a benchmark and announces it on stdout.
benchgen::Benchmark BuildAnnounced(benchgen::BenchmarkId id, double scale);

// Applies the per-KG label-predicate configuration EDGQA requires (the
// manual Falcon customization of Sec. 7.2.1): rdfs:label by default,
// dc:title/foaf:name for the scholarly KGs.
void ConfigureEdgqaFor(baselines::EdgqaLike& edgqa,
                       benchgen::BenchmarkId id,
                       const benchgen::Benchmark& bench);

// Default KGQAn engine configuration for the experiments (paper settings;
// the QU inference cost model is enabled so Fig. 7 reflects the BART-like
// response-time profile).
core::KgqanConfig DefaultEngineConfig();

// Prints a horizontal rule sized for our tables.
void PrintRule(int width);

}  // namespace kgqan::bench

#endif  // KGQAN_BENCH_BENCH_COMMON_H_
