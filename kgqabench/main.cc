// kgqabench: one-command benchmark of the KGQAn pipeline.
//
//   kgqabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>] [--git-sha <sha>] [--source-digest <d>]
//   kgqabench --self-test
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics and write the span file.  The
// last line of stdout is the result object; the line before it carries
// run metadata and sample counts.  Exit code 0 means every correctness
// check passed; 1 a check failed; 2 bad arguments; 3 the open-loop
// dispatcher fell behind schedule, so the run is invalid and not scored.
// See README.md for the workloads and the metric map.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "inputs.h"
#include "layers.h"
#include "obs/json_util.h"
#include "serve/qa_server.h"
#include "sparql/endpoint.h"
#include "store/triple_store.h"
#include "text/text_index.h"

namespace kgqabench {
namespace {

namespace core = kgqan::core;
namespace sparql = kgqan::sparql;
namespace serve = kgqan::serve;
namespace bg = kgqan::benchgen;
using kgqan::obs::kNoSpan;

// ---------------------------------------------------------------- helpers

constexpr size_t kTraceBlock = 32;
constexpr size_t kServeReplayEvery = 8;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / double(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Latency distribution in fixed memory: log-spaced buckets 0.1% wide from
// 1 us up, so the closed loop's own footprint does not grow with the number
// of questions it answers.  Quantiles use the rank convention of Quantile()
// and interpolate within their bucket.
class LatencyHistogram {
 public:
  void Add(double ms) {
    const double x = std::max(ms, kMinMs);
    const size_t b = static_cast<size_t>(std::log(x / kMinMs) / kLogWidth);
    ++counts_[std::min(b, counts_.size() - 1)];
    ++total_;
  }
  size_t count() const { return total_; }
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * double(total_ - 1);
    double below = 0.0;
    for (size_t b = 0; b < counts_.size(); ++b) {
      const double n = double(counts_[b]);
      if (rank < below + n) {
        const double within = (rank - below + 0.5) / n;
        return kMinMs * std::exp(kLogWidth * (double(b) + within));
      }
      below += n;
    }
    return kMinMs * std::exp(kLogWidth * double(counts_.size()));
  }

 private:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kLogWidth = 1e-3;  // ln of a bucket's max/min.
  std::vector<uint32_t> counts_ = std::vector<uint32_t>(21000);  // ~1300 s.
  size_t total_ = 0;
};

// Restarts VmHWM at the current resident size, so that peak_rss_mb leaves
// out input preparation.  False where the kernel does not allow it.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return !clear.fail();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

void Sleep(int64_t until_ns) {
  const int64_t now = NowNs();
  if (until_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(until_ns - now));
  }
}

bool SameResponse(const core::QaResponse& a, const core::QaResponse& b) {
  return a.understood == b.understood && a.is_boolean == b.is_boolean &&
         a.boolean_answer == b.boolean_answer && a.answers == b.answers;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

struct Checks {
  bool ok = true;
  std::vector<std::string> failures;
  void Fail(std::string what) {
    if (failures.size() < 20) failures.push_back(std::move(what));
    ok = false;
  }
};

// ------------------------------------------------------------- cold start

// The program as a user brings it up: endpoint over the graph, engine,
// (server,) first answered question.
struct Stack {
  std::unique_ptr<sparql::LocalEndpoint> endpoint;
  std::unique_ptr<core::KgqanEngine> engine;
  std::unique_ptr<serve::QaServer> server;
  double seconds = 0.0;

  void Reset() {
    server.reset();
    engine.reset();
    endpoint.reset();
  }
};

core::KgqanConfig ConfigFor(const Workload& w) {
  core::KgqanConfig config;
  config.qu.inference.enabled = w.served;
  config.num_threads = w.num_threads;
  return config;
}

void ColdStart(const Workload& w, const Inputs& in, Stack* stack,
               Checks* checks) {
  stack->Reset();
  kgqan::rdf::Graph graph = CopyGraph(in.kg.graph);
  const std::string& text = in.questions[0].text;
  const int64_t start = NowNs();
  stack->endpoint =
      std::make_unique<sparql::LocalEndpoint>(in.kg.name, std::move(graph));
  stack->engine = std::make_unique<core::KgqanEngine>(ConfigFor(w));
  if (w.served) {
    stack->server = std::make_unique<serve::QaServer>(
        stack->engine.get(), stack->endpoint.get(), serve::QaServerOptions{});
    auto response = stack->server->Ask(text);
    if (!response.ok()) {
      checks->Fail("cold-start question rejected: " +
                   response.status().ToString());
    }
  } else {
    stack->engine->AnswerFull(text, *stack->endpoint);
  }
  stack->seconds = double(NowNs() - start) / 1e9;
}

// ----------------------------------------------------------- measurement

struct Run {
  LatencyHistogram latency;  // Per question.
  // Traced runs only: per-question samples behind the per-layer metrics.
  std::vector<double> traced_ms, untraced_ms;
  std::vector<double> qu_ms, linking_ms, execution_ms;
  std::vector<double> update_ms;
  std::vector<double> queue_ms, service_ms, late_ms;  // Open loop.
  // answer_f1 is the macro F1 over `scored`: each distinct question asked,
  // in the order first answered, with that first response.
  std::vector<size_t> scored;
  std::vector<core::QaResponse> scored_responses;
  double f1_sum = 0.0;
  double peak_rss_mb = 0.0;  // At the end of the measured phase.
  size_t answered = 0;   // Questions with a response.
  size_t sent = 0;       // Questions attempted.
  size_t failed_questions = 0;
  size_t failed_writes = 0;
  size_t within_limit = 0;
  size_t rejected = 0;
  double elapsed_s = 0.0;
  size_t passes = 1;
  double cache_hits = 0.0, cache_lookups = 0.0;
};

void AddCounters(const core::RuntimeCounters& before,
                 const core::RuntimeCounters& after, Run* run) {
  const double hits =
      double(after.linking_cache_hits - before.linking_cache_hits);
  const double misses =
      double(after.linking_cache_misses - before.linking_cache_misses);
  run->cache_hits += hits;
  run->cache_lookups += hits + misses;
}

// Applies one delta and checks that the text probe finds the new entity.
void ApplyWrite(const Delta& delta, const core::KgqanConfig& config,
                sparql::Endpoint& endpoint, Run* run, std::mutex* mu,
                Checks* checks) {
  const int64_t start = NowNs();
  auto added = endpoint.AddNTriples(delta.ntriples);
  const double ms = double(NowNs() - start) / 1e6;
  bool found = false;
  if (added.ok()) {
    auto rs = endpoint.Query(core::JitLinker::PotentialRelevantVerticesQuery(
        delta.label, config.max_fetched_vertices));
    if (rs.ok()) {
      auto col = rs->ColumnIndex("v");
      for (size_t r = 0; col && r < rs->NumRows(); ++r) {
        const auto& v = rs->At(r, *col);
        found = found || (v && v->value == delta.iri);
      }
    }
  }
  std::lock_guard<std::mutex> lock(*mu);
  if (!added.ok() || *added != 2) {
    ++run->failed_writes;
    checks->Fail("write failed: " + delta.iri);
    return;
  }
  run->update_ms.push_back(ms);
  if (!found) checks->Fail("text probe misses fresh entity " + delta.iri);
}

// Answers the recorded responses again, in order, so eval::RunEvaluation
// scores exactly what the measured run produced.
class RecordedSystem : public core::QaSystem {
 public:
  RecordedSystem(const std::vector<bg::BenchQuestion>& questions,
                 const std::vector<core::QaResponse>& responses)
      : questions_(questions), responses_(responses) {}
  std::string name() const override { return "recorded"; }
  PreprocessStats Preprocess(sparql::Endpoint&) override { return {}; }
  core::QaResponse Answer(const std::string& question,
                          sparql::Endpoint&) override {
    if (next_ >= responses_.size() || questions_[next_].text != question) {
      out_of_order_ = true;
      return core::QaResponse{};
    }
    return responses_[next_++];
  }
  bool out_of_order() const { return out_of_order_; }

 private:
  const std::vector<bg::BenchQuestion>& questions_;
  const std::vector<core::QaResponse>& responses_;
  size_t next_ = 0;
  bool out_of_order_ = false;
};

// Delegates to an engine and keeps every response.
class RecordingSystem : public core::QaSystem {
 public:
  explicit RecordingSystem(const core::KgqanEngine& engine) : engine_(engine) {}
  std::string name() const override { return engine_.name(); }
  PreprocessStats Preprocess(sparql::Endpoint&) override { return {}; }
  core::QaResponse Answer(const std::string& question,
                          sparql::Endpoint& endpoint) override {
    responses.push_back(engine_.AnswerFull(question, endpoint).response);
    return responses.back();
  }
  std::vector<core::QaResponse> responses;

 private:
  const core::KgqanEngine& engine_;
};

// answer_f1 must equal the macro F1 that the evaluation harness computes
// over the same questions and responses.  On the closed loop, a fresh
// engine with the same config also re-answers a sample of them after all
// writes; its answers must match the recorded ones exactly.
void CheckAnswers(const Workload& w, const Inputs& in, Stack& stack,
                  const Run& run, Checks* checks) {
  bg::Benchmark bench;
  bench.name = w.name;
  bench.endpoint = std::move(stack.endpoint);
  for (size_t i : run.scored) bench.questions.push_back(in.questions[i]);
  RecordedSystem recorded(bench.questions, run.scored_responses);
  auto all = kgqan::eval::RunEvaluation(recorded, bench);
  const double f1 = Ratio(run.f1_sum, double(run.scored.size()));
  if (recorded.out_of_order() || std::abs(all.macro.f1 - f1) > 1e-12) {
    checks->Fail("answer_f1 differs from eval::RunEvaluation");
  }

  if (!w.served) {
    const size_t sample = std::min<size_t>(run.scored.size(), 48);
    std::vector<size_t> picks;
    for (size_t k = 0; k < sample; ++k) {
      picks.push_back(k * run.scored.size() / sample);
    }
    bench.questions.clear();
    kgqan::eval::MacroAverager expected;
    for (size_t p : picks) {
      const bg::BenchQuestion& q = in.questions[run.scored[p]];
      bench.questions.push_back(q);
      expected.Add(kgqan::eval::ScoreQuestion(q, run.scored_responses[p]));
    }
    core::KgqanEngine fresh(ConfigFor(w));
    RecordingSystem again(fresh);
    auto sampled = kgqan::eval::RunEvaluation(again, bench);
    if (sampled.macro.f1 != expected.Average().f1) {
      checks->Fail("re-answered sample F1 differs from the measured run");
    }
    for (size_t k = 0; k < picks.size() && k < again.responses.size(); ++k) {
      if (!SameResponse(again.responses[k], run.scored_responses[picks[k]])) {
        checks->Fail("answer changed after writes: " +
                     bench.questions[k].text);
      }
    }
  }
  stack.endpoint.reset(
      static_cast<sparql::LocalEndpoint*>(bench.endpoint.release()));
}

void RunClosedLoop(const Workload& w, const Inputs& in, double seconds,
                   bool trace, Stack& stack, SpanLog& log,
                   LayerSamples& layers, Run* run, Checks* checks) {
  sparql::LocalEndpoint& endpoint = *stack.endpoint;
  std::unique_ptr<core::KgqanEngine> engine = std::move(stack.engine);
  auto replayer = std::make_unique<LayerReplayer>(*engine);
  core::RuntimeCounters before = engine->Counters();
  size_t next = 1;
  int64_t paused_ns = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    if (next == in.questions.size()) {
      // Every question asked once: continue with cold caches.
      const int64_t pause = NowNs();
      AddCounters(before, engine->Counters(), run);
      engine = std::make_unique<core::KgqanEngine>(ConfigFor(w));
      replayer = std::make_unique<LayerReplayer>(*engine);
      before = engine->Counters();
      next = 1;
      ++run->passes;
      paused_ns += NowNs() - pause;
    }
    const bg::BenchQuestion& q = in.questions[next];
    const int64_t t0 = NowNs();
    core::KgqanResult result = engine->AnswerFull(q.text, endpoint);
    const int64_t t1 = NowNs();
    const double ms = double(t1 - t0) / 1e6;
    // Traced runs alternate blocks of questions with and without replay,
    // so trace.overhead compares neighbours under the same cache state.
    const bool traced = trace && (run->sent / kTraceBlock) % 2 == 1;
    run->latency.Add(ms);
    if (trace) {
      (traced ? run->traced_ms : run->untraced_ms).push_back(ms);
      run->qu_ms.push_back(result.response.timings.qu_ms);
      run->linking_ms.push_back(result.response.timings.linking_ms);
      run->execution_ms.push_back(result.response.timings.execution_ms);
    }
    ++run->sent;
    ++run->answered;
    if (ms <= w.latency_limit_ms) ++run->within_limit;
    if (result.deadline_exceeded) ++run->failed_questions;
    if (traced) {
      const size_t qid = log.BeginQuestion(q.text);
      const size_t root = log.Add(qid, "question", t0, t1, kNoSpan);
      replayer->Replay(q.text, result, ms, endpoint, log, qid, root, layers);
    }
    // Later passes ask the same questions again; only the first is scored
    // and kept, so the benchmark's own memory stays fixed.
    if (run->passes == 1) {
      run->f1_sum += kgqan::eval::ScoreQuestion(q, result.response).f1;
      run->scored.push_back(next);
      run->scored_responses.push_back(std::move(result.response));
    }
    ++next;
  }
  run->elapsed_s = double(NowNs() - start - paused_ns) / 1e9;
  AddCounters(before, engine->Counters(), run);
  stack.engine = std::move(engine);

  // The writes are spaced evenly over kSerialWriteWindowS: back to back
  // they sampled about one second of the host, whose speed shifts on that
  // scale, and spreading them between questions would reset the linking
  // cache (each write bumps the generation that keys it).
  const core::KgqanConfig config = ConfigFor(w);
  std::mutex mu;
  const int64_t writes_start = NowNs();
  for (size_t k = 0; k < in.deltas.size(); ++k) {
    Sleep(writes_start + static_cast<int64_t>(double(k) * kSerialWriteWindowS *
                                              1e9 / double(in.deltas.size())));
    ApplyWrite(in.deltas[k], config, endpoint, run, &mu, checks);
  }
  run->peak_rss_mb = PeakRssMb();
}

struct Sent {
  size_t index = 0;  // Into in.stream.
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  std::optional<std::future<serve::QaServerResponse>> future;
};

void RunOpenLoop(const Workload& w, const Inputs& in, double seconds,
                 bool trace, Stack& stack, SpanLog& log, LayerSamples& layers,
                 Run* run, Checks* checks) {
  sparql::LocalEndpoint& endpoint = *stack.endpoint;
  serve::QaServer& server = *stack.server;
  const core::KgqanConfig config = ConfigFor(w);

  // Serial reference answers, before any write.  The QU shim is a pure
  // cost model (its output is discarded), so the reference engine runs
  // without it; everything that decides an answer is the served config.
  std::vector<core::QaResponse> reference(in.questions.size());
  {
    core::KgqanConfig ref_config = config;
    ref_config.qu.inference.enabled = false;
    core::KgqanEngine ref(ref_config);
    for (size_t i = 1; i < in.questions.size(); ++i) {
      reference[i] = ref.AnswerFull(in.questions[i].text, endpoint).response;
    }
  }

  const core::RuntimeCounters before = stack.engine->Counters();
  LayerReplayer replayer(*stack.engine);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> queue;
  bool dispatched = false;

  const int64_t start = NowNs() + 5'000'000;
  // jthreads join on every exit path, exceptions included.
  std::jthread dispatcher([&] {
    for (size_t i = 0; i < in.stream.size(); ++i) {
      Sent s{i, start + static_cast<int64_t>(in.due_s[i] * 1e9), 0, {}};
      Sleep(s.due_ns);
      s.sent_ns = NowNs();
      auto submitted = server.Submit(in.questions[in.stream[i]].text);
      if (submitted.ok()) s.future = std::move(*submitted);
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(s));
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    dispatched = true;
    cv.notify_one();
  });
  std::jthread writer([&] {
    for (size_t k = 0; k < in.deltas.size(); ++k) {
      Sleep(start + static_cast<int64_t>((double(k) + 0.5) *
                                         kWriteIntervalMs * 1e6));
      ApplyWrite(in.deltas[k], config, endpoint, run, &mu, checks);
    }
  });

  std::vector<bool> first_served(in.questions.size(), false);
  int64_t last_done = start;
  for (;;) {
    Sent s;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty() || dispatched; });
      if (queue.empty()) break;
      s = std::move(queue.front());
      queue.pop_front();
    }
    const size_t qi = in.stream[s.index];
    const bg::BenchQuestion& q = in.questions[qi];
    const double late_ms = double(s.sent_ns - s.due_ns) / 1e6;
    run->late_ms.push_back(late_ms);
    ++run->sent;
    if (!s.future.has_value()) {
      ++run->rejected;
      ++run->failed_questions;
      continue;
    }
    serve::QaServerResponse r = s.future->get();
    const double ms = late_ms + r.total_ms;
    last_done = std::max<int64_t>(
        last_done, s.sent_ns + static_cast<int64_t>(r.total_ms * 1e6));
    // Traced runs replay every kServeReplayEvery-th response of the second
    // half; trace.overhead compares the halves' latency.
    const bool second_half = in.due_s[s.index] >= seconds / 2;
    const bool traced =
        trace && second_half && s.index % kServeReplayEvery == 0;
    run->latency.Add(ms);
    run->queue_ms.push_back(r.queue_ms);
    run->service_ms.push_back(r.total_ms - r.queue_ms);
    if (trace) {
      (second_half ? run->traced_ms : run->untraced_ms).push_back(ms);
      run->qu_ms.push_back(r.result.response.timings.qu_ms);
      run->linking_ms.push_back(r.result.response.timings.linking_ms);
      run->execution_ms.push_back(r.result.response.timings.execution_ms);
    }
    // Macro F1 over the distinct questions served: Zipf repetition would
    // otherwise weight the score by a handful of hot questions.
    if (!first_served[qi]) {
      first_served[qi] = true;
      run->f1_sum += kgqan::eval::ScoreQuestion(q, r.result.response).f1;
      run->scored.push_back(qi);
      run->scored_responses.push_back(r.result.response);
    }
    ++run->answered;
    bool failed = r.deadline_exceeded;
    if (!SameResponse(r.result.response, reference[qi])) {
      failed = true;
      std::lock_guard<std::mutex> lock(mu);
      checks->Fail("served answer differs from serial reference: " + q.text);
    }
    if (failed) {
      ++run->failed_questions;
    } else if (ms <= w.latency_limit_ms) {
      ++run->within_limit;
    }
    if (traced) {
      const size_t qid = log.BeginQuestion(q.text);
      const size_t root =
          log.Add(qid, "question", s.sent_ns,
                  s.sent_ns + static_cast<int64_t>(r.total_ms * 1e6), kNoSpan);
      replayer.Replay(q.text, r.result, r.total_ms - r.queue_ms, endpoint, log,
                      qid, root, layers);
    }
  }
  dispatcher.join();
  writer.join();
  server.Drain();
  run->peak_rss_mb = PeakRssMb();
  run->elapsed_s = double(last_done - start) / 1e9;
  AddCounters(before, stack.engine->Counters(), run);
  const serve::QaServerStats stats = server.stats();
  if (stats.rejected_overloaded + stats.rejected_unavailable != run->rejected) {
    checks->Fail("server rejection count disagrees with the dispatcher");
  }
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_file;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a->trace = std::atoi(value.c_str());
    } else if (flag == "--trace-file") {
      a->trace_file = value;
    } else if (flag == "--git-sha") {
      a->git_sha = value;
    } else if (flag == "--source-digest") {
      a->source_digest = value;
    } else {
      return false;
    }
  }
  return a->self_test || (FindWorkload(a->workload) != nullptr &&
                          a->seconds > 0.0 && (a->trace == 0 || a->trace == 1));
}

int SelfTest() {
  bool ok = true;
  for (const Workload& w : Workloads()) {
    const uint64_t a = Fingerprint(MakeInputs(w, 1, 4.0));
    const uint64_t b = Fingerprint(MakeInputs(w, 1, 4.0));
    Inputs other = MakeInputs(w, 2, 4.0);
    const uint64_t c = Fingerprint(other);
    std::map<std::string, int> texts;
    for (const auto& q : other.questions) ++texts[q.text];
    const bool distinct = texts.size() == other.questions.size();
    std::printf("%-16s same-seed %s  other-seed %s  distinct-texts %s\n",
                w.name.c_str(), a == b ? "identical" : "DIFFERENT",
                a != c ? "different" : "IDENTICAL",
                distinct ? "yes" : "NO");
    ok = ok && a == b && a != c && (w.served || distinct);
  }
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

std::string Json(const std::string& s) {
  std::string out;
  kgqan::obs::AppendJsonString(&out, s);
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kgqabench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-file f] | --self-test\n"
                 "workloads:");
    for (const Workload& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (args.self_test) return SelfTest();
  const Workload& w = *FindWorkload(args.workload);
  const bool trace = args.trace == 1;

  Inputs in = MakeInputs(w, args.seed, args.seconds);
  const bool rss_reset = ResetPeakRss();
  Checks checks;
  if (in.questions.size() < 2) checks.Fail("too few questions generated");

  // Cold start, repeated; the last stack serves the measured phase.
  Stack stack;
  std::vector<double> setup_s;
  for (size_t r = 0; r < kSetupReps && checks.ok; ++r) {
    ColdStart(w, in, &stack, &checks);
    setup_s.push_back(stack.seconds);
  }
  // Store and text-index builds, timed apart (traced runs only).
  std::vector<double> store_s, text_s;
  size_t index_bytes = stack.endpoint ? stack.endpoint->ApproxIndexBytes() : 0;
  if (trace) {
    for (size_t r = 0; r < kSetupReps; ++r) {
      kgqan::rdf::Graph graph = CopyGraph(in.kg.graph);
      const int64_t t0 = NowNs();
      kgqan::store::TripleStore store(std::move(graph));
      const int64_t t1 = NowNs();
      kgqan::text::TextIndex index(store);
      const int64_t t2 = NowNs();
      store_s.push_back(double(t1 - t0) / 1e9);
      text_s.push_back(double(t2 - t1) / 1e9);
    }
  }

  Run run;
  SpanLog log;
  LayerSamples layers;
  if (checks.ok) {
    if (w.served) {
      RunOpenLoop(w, in, args.seconds, trace, stack, log, layers, &run,
                  &checks);
    } else {
      RunClosedLoop(w, in, args.seconds, trace, stack, log, layers, &run,
                    &checks);
    }
    CheckAnswers(w, in, stack, run, &checks);
  }
  if (trace && !args.trace_file.empty() && !log.Write(args.trace_file)) {
    checks.Fail("cannot write span file " + args.trace_file);
  }
  const double late_p99 = Quantile(run.late_ms, 0.99);
  const bool valid = late_p99 <= kMaxDispatchLateP99Ms;
  const size_t triples = stack.endpoint ? stack.endpoint->NumTriples() : 0;
  stack.Reset();

  const size_t attempted = run.sent + in.deltas.size();
  const size_t failed = run.failed_questions + run.failed_writes;
  std::vector<Metric> metrics;
  const size_t n = run.latency.count();
  if (!trace) {
    metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s", setup_s.size()},
        {"latency_p50_ms", run.latency.Quantile(0.5), "ms", n},
        {"latency_p99_ms", run.latency.Quantile(0.99), "ms", n},
        {"throughput_qps", Ratio(double(run.answered), run.elapsed_s), "1/s",
         n},
        {"slo_attainment", Ratio(double(run.within_limit), double(run.sent)),
         "ratio", run.sent},
        {"answer_f1", Ratio(run.f1_sum, double(run.scored.size())), "ratio",
         run.scored.size()},
        {"success_share", 1.0 - Ratio(double(failed), double(attempted)),
         "ratio", attempted},
        {"update_p50_ms", Quantile(run.update_ms, 0.5), "ms",
         run.update_ms.size()},
        {"update_p90_ms", Quantile(run.update_ms, 0.9), "ms",
         run.update_ms.size()},
        {"peak_rss_mb", run.peak_rss_mb, "MB", 1},
    };
  } else {
    const LayerSamples& s = layers;
    const size_t q = static_cast<size_t>(s.questions);
    metrics = {
        {"qu.extract_ms", Quantile(s.extract_ms, 0.5), "ms",
         s.extract_ms.size()},
        {"qu.shim_ms", Quantile(s.shim_ms, 0.5), "ms", s.shim_ms.size()},
        {"qu.failed_share", Ratio(s.qu_failed, s.questions), "ratio", q},
        {"nlp.answer_type_us", Quantile(s.answer_type_us, 0.5), "us",
         s.answer_type_us.size()},
        {"linking.entity_ms", Quantile(s.entity_ms, 0.5), "ms",
         s.entity_ms.size()},
        {"linking.relation_ms", Quantile(s.relation_ms, 0.5), "ms",
         s.relation_ms.size()},
        {"linking.requests", Mean(s.requests), "count", s.requests.size()},
        {"linking.round_trips", Mean(s.round_trips), "count",
         s.round_trips.size()},
        {"linking.cache_hit_ratio", Ratio(run.cache_hits, run.cache_lookups),
         "ratio", static_cast<size_t>(run.cache_lookups)},
        {"text.probe_ms", Quantile(s.probe_ms, 0.5), "ms", s.probe_ms.size()},
        {"text.rows_per_probe", Mean(s.probe_rows), "count",
         s.probe_rows.size()},
        {"embedding.score_us", Quantile(s.score_us, 0.5), "us",
         s.score_us.size()},
        {"embedding.pairs_per_question", Mean(s.pairs_per_question), "count",
         q},
        {"embedding.kept_ratio", Ratio(s.kept, s.pairs), "ratio",
         static_cast<size_t>(s.pairs)},
        {"bgp.generate_ms", Quantile(s.bgp_ms, 0.5), "ms", s.bgp_ms.size()},
        {"execution.queries_generated", Mean(s.queries_generated), "count",
         s.queries_generated.size()},
        {"execution.executed_ratio", Ratio(s.executed, s.generated), "ratio",
         static_cast<size_t>(s.generated)},
        {"sparql.candidate_ms", Quantile(s.candidate_ms, 0.5), "ms",
         s.candidate_ms.size()},
        {"sparql.parse_us", Quantile(s.parse_us, 0.5), "us", s.parse_us.size()},
        {"sparql.rows_per_candidate", Mean(s.rows_per_candidate), "count",
         s.rows_per_candidate.size()},
        {"store.build_s", Quantile(store_s, 0.5), "s", store_s.size()},
        {"text.build_s", Quantile(text_s, 0.5), "s", text_s.size()},
        {"store.index_bytes", double(index_bytes), "bytes", 1},
        {"serve.queue_p50_ms", Quantile(run.queue_ms, 0.5), "ms",
         run.queue_ms.size()},
        {"serve.queue_p99_ms", Quantile(run.queue_ms, 0.99), "ms",
         run.queue_ms.size()},
        {"serve.service_ms", Quantile(run.service_ms, 0.5), "ms",
         run.service_ms.size()},
        {"serve.rejected", double(run.rejected), "count", run.sent},
        {"loadgen.late_p99_ms", Quantile(run.late_ms, 0.99), "ms",
         run.late_ms.size()},
        {"phase.qu_ms", Quantile(run.qu_ms, 0.5), "ms", run.qu_ms.size()},
        {"phase.linking_ms", Quantile(run.linking_ms, 0.5), "ms",
         run.linking_ms.size()},
        {"phase.execution_ms", Quantile(run.execution_ms, 0.5), "ms",
         run.execution_ms.size()},
        {"trace.coverage", Ratio(s.replayed_ms, s.answered_ms), "ratio", q},
        {"trace.overhead",
         Ratio(Quantile(run.traced_ms, 0.5), Quantile(run.untraced_ms, 0.5)),
         "ratio", run.traced_ms.size()},
    };
  }

  // Metadata line: host, build, inputs, sample counts, check results.
  std::string meta = "{\"run\":{\"workload\":" + Json(w.name) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"seconds\":" + std::to_string(args.seconds) +
                     ",\"trace\":" + std::to_string(args.trace) +
                     ",\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"git_sha\":" + Json(args.git_sha) +
                     ",\"source_digest\":" + Json(args.source_digest) +
                     ",\"build_type\":" + Json(KGQABENCH_BUILD_TYPE) +
                     ",\"compiler\":" + Json(KGQABENCH_COMPILER) +
                     ",\"triples\":" + std::to_string(triples) +
                     ",\"questions\":" +
                     std::to_string(in.questions.size() - 1) +
                     ",\"writes\":" + std::to_string(in.deltas.size()) +
                     ",\"passes\":" + std::to_string(run.passes) +
                     ",\"offered_qps\":" +
                     (w.served ? std::to_string(kServeRateQps) : "null") +
                     ",\"latency_limit_ms\":" +
                     std::to_string(w.latency_limit_ms) +
                     ",\"dispatch_late_p99_ms\":" + std::to_string(late_p99) +
                     ",\"valid\":" + (valid ? "true" : "false") +
                     ",\"rss_peak_reset\":" + (rss_reset ? "true" : "false") +
                     ",\"spans_file\":" +
                     (trace ? Json(args.trace_file) : std::string("null")) +
                     ",\"check_failures\":[";
  for (size_t i = 0; i < checks.failures.size(); ++i) {
    if (i) meta += ",";
    meta += Json(checks.failures[i]);
  }
  meta += "],\"samples\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) meta += ",";
    meta += Json(metrics[i].name);
    meta += ":";
    meta += std::to_string(metrics[i].samples);
  }
  meta += "}}}";
  std::printf("%s\n", meta.c_str());
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  if (!valid) {
    std::fprintf(stderr,
                 "invalid run: the dispatcher's p99 lateness was %.1f ms "
                 "(limit %.1f ms); not scored\n",
                 late_p99, kMaxDispatchLateP99Ms);
    return 3;
  }

  std::string out = "{\"correct\":" +
                    std::string(checks.ok ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i) out += ",";
    out += Json(metrics[i].name);
    out += ":{\"value\":";
    out += value;
    out += ",\"unit\":";
    out += Json(metrics[i].unit);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return checks.ok ? 0 : 1;
}

}  // namespace
}  // namespace kgqabench

int main(int argc, char** argv) { return kgqabench::Main(argc, argv); }
