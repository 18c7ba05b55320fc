// Serving throughput and tail latency: drives serve::QaServer over the
// LC-QuAD questions with a simulated remote-endpoint RTT and reports
// throughput and p50/p95/p99 end-to-end latency versus worker count
// (closed loop) and versus offered load (open loop, with Overloaded
// rejection counts once the admission queue saturates).
//
// The injected endpoint latency (--latency-ms=, default 5) is what makes
// worker scaling visible on any machine: in the paper's deployment the
// endpoint is a remote SPARQL service, so a question's wall-clock is
// dominated by network waits the workers can overlap even on one core.
//
// Introspection extras:
//   --json=PATH       write the final metrics snapshot (the full
//                     obs::ExpositionJson document) to PATH on exit.
//   --sample-overhead run the head-sampling overhead comparison instead:
//                     closed-loop throughput at the knee for sample-every
//                     ∈ {0 (counters-only), 64, 8, 1}.
//   --serve-s=N       smoke mode: serve a mixed workload (including
//                     deadline-limited requests) for N seconds with the
//                     admin listener up, printing "ADMIN port=..." so CI
//                     can curl /metrics and /slow.  --admin-port=P binds a
//                     fixed port (default ephemeral).
//
// Usage: bench_serving [scale] [--latency-ms=5] [--repeat=N]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "serve/qa_server.h"
#include "util/stopwatch.h"

namespace {

using kgqan::serve::QaServer;
using kgqan::serve::QaServerOptions;
using kgqan::serve::QaServerResponse;
using kgqan::serve::QaServerStats;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

struct LoadResult {
  double wall_s = 0.0;
  std::vector<double> latencies_ms;  // Per completed request, end-to-end.
  QaServerStats stats;
};

// Closed loop: `clients` threads, each submitting its share of the
// question list back-to-back (a new request the moment the previous one
// answers).  Offered load self-adjusts to server capacity, so this
// measures capacity and in-capacity tail latency.
LoadResult RunClosedLoop(const kgqan::core::KgqanEngine& engine,
                         kgqan::sparql::Endpoint& endpoint,
                         const std::vector<std::string>& questions,
                         size_t workers, size_t clients,
                         size_t sample_every = 64) {
  QaServerOptions options;
  options.num_workers = workers;
  options.queue_capacity = 2 * clients;  // Clients self-throttle; no shed.
  options.trace_sample_every = sample_every;
  QaServer server(&engine, &endpoint, options);

  std::vector<std::vector<double>> per_client(clients);
  std::vector<std::thread> threads;
  kgqan::util::Stopwatch wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = c; i < questions.size(); i += clients) {
        auto response = server.Ask(questions[i]);
        if (response.ok()) per_client[c].push_back(response->total_ms);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoadResult result;
  result.wall_s = wall.ElapsedMillis() / 1000.0;
  server.Shutdown();
  result.stats = server.stats();
  for (const auto& latencies : per_client) {
    result.latencies_ms.insert(result.latencies_ms.end(), latencies.begin(),
                               latencies.end());
  }
  return result;
}

// Open loop: one dispatcher submits at a fixed offered rate regardless of
// completions (Poisson-style arrivals simplified to a uniform schedule).
// Past the capacity knee the queue fills and Submit sheds load with
// Overloaded — the backpressure path this binary exists to demonstrate.
LoadResult RunOpenLoop(const kgqan::core::KgqanEngine& engine,
                       kgqan::sparql::Endpoint& endpoint,
                       const std::vector<std::string>& questions,
                       size_t workers, double offered_qps) {
  QaServerOptions options;
  options.num_workers = workers;
  options.queue_capacity = 32;
  QaServer server(&engine, &endpoint, options);

  std::vector<std::future<QaServerResponse>> futures;
  futures.reserve(questions.size());
  kgqan::util::Stopwatch wall;
  const double interval_ms = 1000.0 / offered_qps;
  for (size_t i = 0; i < questions.size(); ++i) {
    double due_ms = static_cast<double>(i) * interval_ms;
    double now_ms = wall.ElapsedMillis();
    if (now_ms < due_ms) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(due_ms - now_ms));
    }
    auto future = server.Submit(questions[i]);
    if (future.ok()) futures.push_back(std::move(*future));
  }
  server.Drain();
  LoadResult result;
  result.wall_s = wall.ElapsedMillis() / 1000.0;
  server.Shutdown();
  result.stats = server.stats();
  for (auto& future : futures) {
    result.latencies_ms.push_back(future.get().total_ms);
  }
  return result;
}

void DumpMetricsJson(const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << kgqan::obs::ExpositionJson(
             kgqan::obs::MetricsRegistry::Global().Snapshot())
      << "\n";
  std::printf("metrics snapshot written to %s\n", path.c_str());
}

// Smoke mode for CI: serve a mixed workload — normal questions plus a
// slice with near-impossible deadlines, so deadline_exceeded flight
// records accumulate — with the admin listener bound, for `seconds`.
int RunServeSmoke(const kgqan::core::KgqanEngine& engine,
                  kgqan::sparql::Endpoint& endpoint,
                  const std::vector<std::string>& questions, int admin_port,
                  double seconds, const std::string& json_path) {
  QaServerOptions options;
  options.num_workers = 4;
  options.queue_capacity = 32;
  options.trace_sample_every = 4;  // Sampled traces show up fast.
  options.trace_sample_per_sec = 64.0;
  options.slow_question_ms = 50.0;
  options.admin_port = admin_port;
  QaServer server(&engine, &endpoint, options);
  if (server.admin_port() <= 0) {
    std::fprintf(stderr, "admin listener failed to bind\n");
    return 1;
  }
  std::printf("ADMIN port=%d\n", server.admin_port());
  std::fflush(stdout);

  kgqan::util::Stopwatch wall;
  size_t i = 0;
  while (wall.ElapsedMillis() < seconds * 1000.0) {
    const std::string& q = questions[i % questions.size()];
    // Every 5th request gets a ~1 ms deadline: guaranteed
    // deadline_exceeded records for /slow.
    double deadline_ms = i % 5 == 4 ? 1.0 : 0.0;
    auto response = server.Ask(q, deadline_ms);
    (void)response;
    ++i;
  }
  server.Drain();
  QaServerStats stats = server.stats();
  std::printf("smoke: completed=%zu deadline_exceeded=%zu "
              "traces_sampled=%zu flight_records=%zu\n",
              stats.completed, stats.deadline_exceeded, stats.traces_sampled,
              stats.flight_records);
  DumpMetricsJson(json_path);
  server.Shutdown();
  return 0;
}

void PrintRow(const char* load, size_t workers, const LoadResult& r) {
  double completed = static_cast<double>(r.stats.completed);
  std::printf("%-18s %7zu %9.1f %8zu %8zu %9.1f %9.1f %9.1f\n", load,
              workers, r.wall_s > 0.0 ? completed / r.wall_s : 0.0,
              r.stats.completed, r.stats.rejected_overloaded,
              Percentile(r.latencies_ms, 50.0),
              Percentile(r.latencies_ms, 95.0),
              Percentile(r.latencies_ms, 99.0));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kgqan;
  double scale = bench::ParseScale(argc, argv);
  std::string latency_flag = bench::ParseFlag(argc, argv, "latency-ms");
  double latency_ms = latency_flag.empty() ? 5.0 : std::stod(latency_flag);
  std::string repeat_flag = bench::ParseFlag(argc, argv, "repeat");
  size_t repeat = repeat_flag.empty() ? 4 : std::stoul(repeat_flag);

  benchgen::Benchmark bench =
      bench::BuildAnnounced(benchgen::BenchmarkId::kLcQuad, scale);
  bench.endpoint->set_injected_latency_ms(latency_ms);
  std::vector<std::string> questions;
  for (size_t r = 0; r < repeat; ++r) {
    for (const auto& q : bench.questions) questions.push_back(q.text);
  }

  core::KgqanConfig cfg = bench::DefaultEngineConfig();
  cfg.qu.inference.enabled = false;  // Keep the bench endpoint-bound.
  core::KgqanEngine engine(cfg);

  std::string json_path = bench::ParseFlag(argc, argv, "json");
  std::string serve_s_flag = bench::ParseFlag(argc, argv, "serve-s");
  if (!serve_s_flag.empty()) {
    std::string port_flag = bench::ParseFlag(argc, argv, "admin-port");
    int admin_port = port_flag.empty() ? 0 : std::stoi(port_flag);
    return RunServeSmoke(engine, *bench.endpoint, questions, admin_port,
                         std::stod(serve_s_flag), json_path);
  }

  bool sample_overhead = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--sample-overhead") sample_overhead = true;
  }
  if (sample_overhead) {
    // Head-sampling overhead at the closed-loop knee (8 workers): 0
    // disables sampling entirely (counters-only baseline); the rest
    // upgrade every Nth request to a full span tree, subject to the
    // default per-second rate cap.
    std::printf("Head-sampling overhead — closed loop, 8 workers\n");
    bench::PrintRule(84);
    std::printf("%-18s %7s %9s %8s %8s %9s %9s %9s\n", "Sampling", "Workers",
                "qps", "done", "shed", "p50 ms", "p95 ms", "p99 ms");
    bench::PrintRule(84);
    double baseline_qps = 0.0;
    for (size_t every : {0, 64, 8, 1}) {
      obs::MetricsRegistry::Global().Reset();
      LoadResult r = RunClosedLoop(engine, *bench.endpoint, questions,
                                   /*workers=*/8, /*clients=*/16, every);
      char label[32];
      if (every == 0) {
        std::snprintf(label, sizeof(label), "counters-only");
      } else {
        std::snprintf(label, sizeof(label), "1-in-%zu", every);
      }
      PrintRow(label, 8, r);
      double qps = r.wall_s > 0.0
                       ? static_cast<double>(r.stats.completed) / r.wall_s
                       : 0.0;
      if (every == 0) {
        baseline_qps = qps;
      } else if (baseline_qps > 0.0) {
        std::printf("  -> %5.2f%% of counters-only throughput "
                    "(sampled %zu traces, %zu flight records)\n",
                    100.0 * qps / baseline_qps, r.stats.traces_sampled,
                    r.stats.flight_records);
      }
    }
    bench::PrintRule(84);
    DumpMetricsJson(json_path);
    return 0;
  }

  std::printf("Serving throughput & tail latency — LC-QuAD, %zu requests, "
              "%.1f ms injected endpoint RTT\n",
              questions.size(), latency_ms);
  bench::PrintRule(84);
  std::printf("%-18s %7s %9s %8s %8s %9s %9s %9s\n", "Load", "Workers",
              "qps", "done", "shed", "p50 ms", "p95 ms", "p99 ms");
  bench::PrintRule(84);

  // Closed loop: throughput versus worker count (2 clients per worker
  // keeps every worker busy without queueing delay dominating the tail).
  double qps_1 = 0.0;
  double qps_8 = 0.0;
  for (size_t workers : {1, 2, 4, 8}) {
    obs::MetricsRegistry::Global().Reset();
    LoadResult r =
        RunClosedLoop(engine, *bench.endpoint, questions, workers,
                      /*clients=*/2 * workers);
    PrintRow("closed", workers, r);
    double qps = r.wall_s > 0.0
                     ? static_cast<double>(r.stats.completed) / r.wall_s
                     : 0.0;
    if (workers == 1) qps_1 = qps;
    if (workers == 8) qps_8 = qps;
  }
  bench::PrintRule(84);

  // Open loop at 4 workers: below the knee everything completes; the
  // saturating rates force Overloaded rejections (`shed`).
  const size_t kOpenWorkers = 4;
  for (double factor : {0.5, 0.9, 2.0, 4.0}) {
    obs::MetricsRegistry::Global().Reset();
    double offered = std::max(1.0, factor * qps_8 / 2.0);
    LoadResult r = RunOpenLoop(engine, *bench.endpoint, questions,
                               kOpenWorkers, offered);
    char label[32];
    std::snprintf(label, sizeof(label), "open %.0f qps", offered);
    PrintRow(label, kOpenWorkers, r);
  }
  bench::PrintRule(84);
  std::printf("closed-loop scaling 8w/1w: %.2fx\n",
              qps_1 > 0.0 ? qps_8 / qps_1 : 0.0);
  DumpMetricsJson(json_path);
  return 0;
}
