#include "sparql/endpoint.h"

#include <array>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "rdf/ntriples.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "util/cancel.h"
#include "util/stopwatch.h"

namespace kgqan::sparql {

namespace {

// Sets registry gauge `name` to an absolute value (gauges only expose
// Add/Sub, so this publishes the delta against the live value).
void SetGauge(std::string_view name, size_t value) {
  obs::Gauge& gauge = obs::MetricsRegistry::Global().GetGauge(name);
  const int64_t delta = static_cast<int64_t>(value) - gauge.Value();
  if (delta != 0) gauge.Add(delta);
}

}  // namespace

Endpoint::Endpoint(std::string name, rdf::Graph graph)
    : name_(std::move(name)),
      store_([&] {
        obs::ScopedSpan span("store.build");
        return store::TripleStore(std::move(graph));
      }()),
      text_index_([&] {
        obs::ScopedSpan span("text.build");
        return text::TextIndex(store_);
      }()) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  metric_requests_ = &registry.GetCounter("endpoint.requests");
  metric_errors_ = &registry.GetCounter("endpoint.errors");
  metric_cancelled_ = &registry.GetCounter("endpoint.cancelled");
  metric_query_latency_ms_ =
      &registry.GetHistogram("endpoint.query_latency_ms");
  PublishStoreGauges();
}

bool Endpoint::SleepInjectedLatency() const {
  const int64_t us = injected_latency_us_.load(std::memory_order_relaxed);
  if (us <= 0) return true;
  // Chunked sleep so an expiring deadline interrupts the simulated network
  // wait promptly instead of after the full injected latency.
  constexpr int64_t kChunkUs = 200;
  util::Stopwatch watch;
  while (watch.ElapsedMillis() * 1000.0 < static_cast<double>(us)) {
    if (util::Cancelled()) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(kChunkUs));
  }
  return !util::Cancelled();
}

void Endpoint::RecordCancelled() {
  cancelled_count_.fetch_add(1, std::memory_order_relaxed);
  metric_cancelled_->Add(1);
  if (obs::Trace* trace = obs::CurrentTrace()) {
    trace->AddCounter(obs::TraceCounter::kEndpointCancelled, 1);
  }
}

util::StatusOr<ResultSet> Endpoint::Query(std::string_view sparql) {
  // Fail fast on an expired request: the query never leaves the client,
  // so query_count does not move.
  if (util::Cancelled()) {
    RecordCancelled();
    return util::Status::DeadlineExceeded("query dropped: deadline expired");
  }
  query_count_.fetch_add(1, std::memory_order_relaxed);
  metric_requests_->Add(1);
  // Attribute the traffic to the calling thread's question, not just the
  // global counters: this is what keeps per-question counts exact when
  // several questions share the endpoint concurrently.
  if (obs::Trace* trace = obs::CurrentTrace()) {
    trace->AddCounter(obs::TraceCounter::kEndpointRequests, 1);
  }
  obs::ScopedSpan span("sparql.query");
  if (span.recording()) {
    // The query text itself (truncated), so a sampled trace or flight
    // record is forensically useful without re-deriving the SPARQL.
    constexpr size_t kMaxSparqlAttr = 512;
    span.AddAttribute("sparql", sparql.size() <= kMaxSparqlAttr
                                    ? sparql
                                    : sparql.substr(0, kMaxSparqlAttr));
  }
  if (!SleepInjectedLatency()) {
    // The exchange was issued (and counted) but the deadline expired while
    // it was in flight: abandon it without evaluating.
    RecordCancelled();
    return util::Status::DeadlineExceeded("query abandoned: deadline expired");
  }
  util::StatusOr<sparql::Query> parsed = ParseQuery(sparql);
  util::StatusOr<ResultSet> result = parsed.status();
  if (parsed.ok()) {
    // Shared lock: the store and text index are read-only during
    // evaluation; only AddNTriples mutates them (under the unique lock).
    std::shared_lock<std::shared_mutex> lock(data_mutex_);
    result = Evaluate(*parsed, store_, text_index_);
  }
  metric_query_latency_ms_->Record(span.watch().ElapsedMillis());
  if (result.ok()) {
    if (span.recording()) {
      span.AddAttribute("rows", std::to_string(result->is_ask()
                                                   ? size_t{result->ask_value()}
                                                   : result->NumRows()));
    }
  } else if (result.status().code() == util::StatusCode::kDeadlineExceeded) {
    // The evaluator unwound on the request deadline: that is a
    // cancellation (like an abandoned in-flight exchange), not an error.
    RecordCancelled();
    span.AddAttribute("error", result.status().message());
  } else {
    metric_errors_->Add(1);
    span.AddAttribute("error", result.status().message());
  }
  return result;
}

util::StatusOr<size_t> Endpoint::AddNTriples(std::string_view ntriples) {
  obs::ScopedSpan span("endpoint.update");
  KGQAN_ASSIGN_OR_RETURN(rdf::Graph delta, rdf::ParseNTriples(ntriples));
  std::vector<std::array<rdf::Term, 3>> triples;
  triples.reserve(delta.size());
  for (const rdf::Triple& t : delta.triples()) {
    triples.push_back({delta.dictionary().Get(t.s),
                       delta.dictionary().Get(t.p),
                       delta.dictionary().Get(t.o)});
  }
  std::vector<rdf::Triple> inserted;
  size_t literals_indexed = 0;
  {
    std::unique_lock<std::shared_mutex> lock(data_mutex_);
    if (store_.Insert(triples, &inserted) > 0) {
      // The built-in full-text index covers the new literals at once, as
      // an RDF engine's incremental indexer would.
      literals_indexed = text_index_.Add(store_, inserted);
      PublishStoreGauges();
      generation_.fetch_add(1, std::memory_order_release);
    }
  }
  if (span.recording()) {
    span.AddAttribute("triples", std::to_string(inserted.size()));
    span.AddAttribute("literals_indexed", std::to_string(literals_indexed));
  }
  return inserted.size();
}

void Endpoint::PublishStoreGauges() const {
  // The dictionary keeps decoded Terms, so the store's footprint is its
  // five permutation indexes plus the dictionary.  Both sizes are O(1).
  const size_t dict = store_.dictionary().ApproxBytes();
  const size_t total = store_.ApproxIndexBytes();
  SetGauge("store.index_bytes", total > dict ? total - dict : 0);
  SetGauge("store.dict_bytes", dict);
}

}  // namespace kgqan::sparql
