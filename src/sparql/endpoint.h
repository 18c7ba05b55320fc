// SPARQL endpoint: the *only* interface KGQAn uses to talk to a knowledge
// graph, mirroring the publicly accessible HTTP API of Virtuoso / Stardog /
// Jena endpoints (Figure 2 of the paper).
//
// An `Endpoint` serves one KG from one TripleStore plus its built-in
// full-text index — the standard, unmodified installation of Sec. 7.1.4 —
// and owns parsing, the data lock, the request/round-trip/error
// accounting, tracing, cancellation and injected-latency behavior.
//
// Thread-safety: Query() may be called concurrently from any number of
// threads (the store, text index and evaluator are read-only on the query
// path; the request counter is atomic).  AddNTriples() takes the writer
// lock, so live updates serialize against in-flight queries exactly like a
// public endpoint's update channel.  ResetStats() is a configuration call:
// do not race it against queries.
//
// Observability: besides the global per-endpoint counters, every query is
// attributed to the calling thread's active obs::Trace (exact per-question
// request/round-trip counts under concurrency), recorded as a span when
// the trace collects spans, and fed into the process-wide metrics registry
// (request counters and a query-latency histogram).
//
// Cancellation: Query()/QueryBatch() poll the calling thread's
// util::CancelToken.  An already-expired token fails fast with
// DeadlineExceeded before any exchange is counted; a token expiring during
// the (injected) exchange latency aborts the wait and skips evaluation.
// Cancelled queries count in the serve-side cancellation metrics, never in
// query_count()/round_trips() unless the exchange was actually issued.
//
// Testing: set_injected_latency_ms() adds an artificial delay to every
// query, simulating the network round-trip of a remote public endpoint
// (deadline tests and the serving benchmark's open/closed-loop load
// generator use this).  The sleep is chunked so cancellation interrupts it
// promptly.

#ifndef KGQAN_SPARQL_ENDPOINT_H_
#define KGQAN_SPARQL_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "rdf/graph.h"
#include "sparql/result_set.h"
#include "store/triple_store.h"
#include "text/text_index.h"
#include "util/status.h"

namespace kgqan::sparql {

class Endpoint {
 public:
  // Builds the store and its default full-text index over `graph`, as
  // `store.build` and `text.build` spans of the calling thread's trace.
  Endpoint(std::string name, rdf::Graph graph);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const std::string& name() const { return name_; }

  // Parses and evaluates a SPARQL request.  Safe to call concurrently.
  util::StatusOr<ResultSet> Query(std::string_view sparql);

  // Parses and evaluates a *batched* SPARQL request: one query text that
  // folds `num_probes` logical sub-queries (UNION/VALUES branches) into a
  // single HTTP-equivalent exchange.  Counts `num_probes` requests in
  // query_count() — so eval/report tables stay comparable with the
  // per-probe path — but only one round trip in round_trips().  Safe to
  // call concurrently.
  util::StatusOr<ResultSet> QueryBatch(std::string_view sparql,
                                       size_t num_probes);

  // Loads additional data into the KG from N-Triples text (live updates to
  // the endpoint).  The store merges the new triples in place and the
  // full-text index adds only the literals they introduce, so the cost
  // follows the delta, not the KG.  Returns the number of new triples.
  // Blocks until in-flight queries drain.  Recorded as an `endpoint.update`
  // span with `triples` and `literals_indexed` attributes.
  util::StatusOr<size_t> AddNTriples(std::string_view ntriples);

  // Number of triples in the KG.
  size_t NumTriples() const { return store_.size(); }

  // Approximate bytes held by the store's indexes and dictionary.
  size_t ApproxIndexBytes() const { return store_.ApproxIndexBytes(); }

  // Direct substrate access — for index-building baselines (which, unlike
  // KGQAn, pre-process the KG), exporters and tests.  KGQAn itself only
  // calls Query().  Not synchronized against AddNTriples.
  const store::TripleStore& store() const { return store_; }
  const text::TextIndex& text_index() const { return text_index_; }

  // Request statistics.  query_count counts logical SPARQL requests (each
  // sub-query of a batch counts as one), round_trips counts physical
  // query exchanges (a whole batch counts as one).
  size_t query_count() const {
    return query_count_.load(std::memory_order_relaxed);
  }
  size_t round_trips() const {
    return round_trips_.load(std::memory_order_relaxed);
  }
  void ResetStats() {
    query_count_.store(0, std::memory_order_relaxed);
    round_trips_.store(0, std::memory_order_relaxed);
  }

  // Monotonic data version, bumped by every successful AddNTriples.
  size_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // Stable identity of (endpoint, data version) — the "KG" component of
  // linking-cache keys, so endpoint updates invalidate cached links.
  std::string cache_identity() const {
    return name_ + "#" + std::to_string(generation());
  }

  // Latency injection point (tests / serving benchmark): every query
  // sleeps `ms` before evaluating, as if the endpoint were remote.  Safe
  // to flip concurrently with queries (atomic); 0 disables.
  void set_injected_latency_ms(double ms) {
    injected_latency_us_.store(static_cast<int64_t>(ms * 1000.0),
                               std::memory_order_relaxed);
  }

  // Queries dropped because the caller's cancellation token had expired.
  size_t cancelled_count() const {
    return cancelled_count_.load(std::memory_order_relaxed);
  }

 private:
  // Sleeps the injected latency in 200µs chunks, polling the calling
  // thread's cancellation token; false when the deadline expired mid-wait.
  bool SleepInjectedLatency() const;

  // Records one cancelled query (metrics + trace attribution).
  void RecordCancelled();

  // Publishes the store's footprint to the `store.index_bytes` and
  // `store.dict_bytes` registry gauges.
  void PublishStoreGauges() const;

  std::string name_;
  // Process-wide registry metrics (resolved once; registry entries are
  // never erased, so the pointers stay valid).
  obs::Counter* metric_requests_;
  obs::Counter* metric_round_trips_;
  obs::Counter* metric_errors_;
  obs::Counter* metric_cancelled_;
  obs::Histogram* metric_query_latency_ms_;
  std::atomic<size_t> query_count_{0};
  std::atomic<size_t> round_trips_{0};
  std::atomic<size_t> cancelled_count_{0};
  std::atomic<int64_t> injected_latency_us_{0};
  std::atomic<size_t> generation_{0};
  // Readers-writer lock between evaluation (shared) and AddNTriples
  // (unique).
  std::shared_mutex data_mutex_;
  store::TripleStore store_;
  text::TextIndex text_index_;
};

// The name `kgqabench/` and `benchgen` construct endpoints by; it predates
// the single-store Endpoint and is kept so that code compiles unchanged.
using LocalEndpoint = Endpoint;

}  // namespace kgqan::sparql

#endif  // KGQAN_SPARQL_ENDPOINT_H_
