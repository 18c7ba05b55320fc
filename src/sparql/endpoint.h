// SPARQL endpoint facade: the *only* interface KGQAn uses to talk to a
// knowledge graph, mirroring the publicly accessible HTTP API of Virtuoso /
// Stardog / Jena endpoints (Figure 2 of the paper).
//
// `Endpoint` is the abstract facade: it owns parsing, the data lock, the
// request/round-trip/error accounting, tracing, cancellation and
// injected-latency behavior shared by every backend, and leaves storage
// and evaluation to subclasses.  `LocalEndpoint` is the original
// single-store backend (one TripleStore + its built-in full-text index);
// `CompactEndpoint` serves the same KG from the compressed, snapshot-capable
// CompactStore.  Engine, QaServer, the answer cache and the admin plane
// only ever see `Endpoint`.
//
// Thread-safety: Query() may be called concurrently from any number of
// threads (the store, text index and evaluator are read-only on the query
// path; the request counter is atomic).  AddNTriples() takes the writer
// lock, so live updates serialize against in-flight queries exactly like a
// public endpoint's update channel.  ResetStats() and
// mutable_eval_options() are configuration calls: do not race them against
// queries.
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

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "rdf/graph.h"
#include "sparql/evaluator.h"
#include "sparql/result_set.h"
#include "store/compact_store.h"
#include "store/triple_store.h"
#include "text/text_index.h"
#include "util/status.h"

namespace kgqan::sparql {

struct EndpointOptions {
  // Threads used to sort the store's six permutation indexes at build
  // time (1 = unchanged serial build).
  size_t build_threads = 1;
};

class Endpoint {
 public:
  virtual ~Endpoint() = default;

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
  // the endpoint).  The full-text index is rebuilt; returns the number of
  // new triples.  Blocks until in-flight queries drain.
  util::StatusOr<size_t> AddNTriples(std::string_view ntriples);

  // Number of triples in the KG.
  virtual size_t NumTriples() const = 0;

  // Physical store access, for index-building baselines (which, unlike
  // KGQAn, pre-process the KG) and tests.  The accessors are
  // backend-agnostic — the v1 arrays and the compressed compact store both
  // answer them — so facade consumers never name a concrete store type.
  // Calls `fn(triple)` for every triple matching the pattern (kNullTermId
  // components are wildcards); `fn` returns false to stop early.
  virtual void Match(
      rdf::TermId s, rdf::TermId p, rdf::TermId o,
      const std::function<bool(const rdf::Triple&)>& fn) const = 0;
  // Term with id `id`, by value: a compact backend decodes terms on
  // demand from its front-coded dictionary, so there may be no stored
  // Term to reference.
  virtual rdf::Term StoreTerm(rdf::TermId id) const = 0;
  virtual std::optional<rdf::TermId> FindStoreIri(
      std::string_view iri) const = 0;

  // Approximate bytes held by the backend's indexes and dictionary.
  virtual size_t ApproxIndexBytes() const = 0;

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

  EvalOptions& mutable_eval_options() { return eval_options_; }

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

 protected:
  explicit Endpoint(std::string name);

  // Backend hook: evaluate one parsed query with eval_options_.  Called
  // under the shared data lock, so it may read the store and text index
  // freely.
  virtual util::StatusOr<ResultSet> Evaluate(
      const sparql::Query& query) const = 0;

  // Backend hook: insert pre-parsed term triples and refresh any derived
  // indexes.  Called under the unique data lock; returns the number of
  // genuinely new triples.
  virtual size_t InsertTriples(
      const std::vector<std::array<rdf::Term, 3>>& triples) = 0;

  // Sets registry gauge `name` to an absolute value (gauges only expose
  // Add/Sub, so this publishes the delta against the live value).  Used
  // by backends to surface store memory in /stats: `store.index_bytes`,
  // `store.dict_bytes`, `store.overlay_triples`.
  static void SetGauge(std::string_view name, size_t value);

  EvalOptions eval_options_;

 private:
  // Sleeps the injected latency in 200µs chunks, polling the calling
  // thread's cancellation token; false when the deadline expired mid-wait.
  bool SleepInjectedLatency() const;

  // Records one cancelled query (metrics + trace attribution).
  void RecordCancelled();

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
  // Readers-writer lock between Evaluate (shared) and InsertTriples
  // (unique, taken by AddNTriples).
  std::shared_mutex data_mutex_;
};

// The single-store backend: one TripleStore plus its built-in full-text
// index — the standard, unmodified installation of Sec. 7.1.4.
class LocalEndpoint : public Endpoint {
 public:
  // Builds the store and its default full-text index over `graph`.
  LocalEndpoint(std::string name, rdf::Graph graph,
                EndpointOptions options = {});

  size_t NumTriples() const override { return store_.size(); }
  void Match(rdf::TermId s, rdf::TermId p, rdf::TermId o,
             const std::function<bool(const rdf::Triple&)>& fn) const override {
    store_.Match(s, p, o, fn);
  }
  rdf::Term StoreTerm(rdf::TermId id) const override {
    return store_.dictionary().Get(id);
  }
  std::optional<rdf::TermId> FindStoreIri(
      std::string_view iri) const override {
    return store_.dictionary().FindIri(iri);
  }
  size_t ApproxIndexBytes() const override {
    return store_.ApproxIndexBytes();
  }

  // Direct substrate access — for index-building baselines and tests.
  // KGQAn itself only calls Query().
  const store::TripleStore& store() const { return store_; }
  const text::TextIndex& text_index() const { return *text_index_; }

 protected:
  util::StatusOr<ResultSet> Evaluate(const sparql::Query& query) const override;
  size_t InsertTriples(
      const std::vector<std::array<rdf::Term, 3>>& triples) override;

 private:
  void PublishStoreGauges() const;

  store::TripleStore store_;
  std::unique_ptr<text::TextIndex> text_index_;
};

// The compact-store backend (store v2): one dictionary-compressed,
// snapshot-capable CompactStore plus the built-in full-text index, behind
// the identical facade.  Answers are byte-identical to LocalEndpoint over
// the same graph (the compact differential battery's bar); live updates
// flow through the store's delta overlay.
class CompactEndpoint : public Endpoint {
 public:
  // Builds the compressed store and its full-text index over `graph`.
  CompactEndpoint(std::string name, rdf::Graph graph,
                  EndpointOptions options = {});

  // Cold start: serves a snapshot previously written by WriteSnapshot,
  // mmap-loading the store in milliseconds instead of re-parsing and
  // re-sorting.  (The text index is rebuilt from the store — it is a
  // derived structure, not part of the snapshot.)
  static util::StatusOr<std::unique_ptr<CompactEndpoint>> FromSnapshot(
      std::string name, const std::string& snapshot_path);

  size_t NumTriples() const override { return store_.size(); }
  void Match(rdf::TermId s, rdf::TermId p, rdf::TermId o,
             const std::function<bool(const rdf::Triple&)>& fn) const override {
    store_.Match(s, p, o, fn);
  }
  rdf::Term StoreTerm(rdf::TermId id) const override {
    return store_.dictionary().Get(id);
  }
  std::optional<rdf::TermId> FindStoreIri(
      std::string_view iri) const override {
    return store_.dictionary().FindIri(iri);
  }
  size_t ApproxIndexBytes() const override {
    return store_.ApproxIndexBytes();
  }

  // Folds the overlay and persists the store to `path`.  Configuration
  // call — do not race against queries.
  util::Status WriteSnapshot(const std::string& path);

  // Direct substrate access — for tests and benchmarks.
  const store::CompactStore& store() const { return store_; }
  const text::TextIndex& text_index() const { return *text_index_; }

 protected:
  util::StatusOr<ResultSet> Evaluate(const sparql::Query& query) const override;
  size_t InsertTriples(
      const std::vector<std::array<rdf::Term, 3>>& triples) override;

 private:
  CompactEndpoint(std::string name, store::CompactStore store);

  void PublishStoreGauges() const;

  store::CompactStore store_;
  std::unique_ptr<text::TextIndex> text_index_;
};

}  // namespace kgqan::sparql

#endif  // KGQAN_SPARQL_ENDPOINT_H_
