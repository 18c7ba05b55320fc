// Async serving front-end: QaServer multiplexes many concurrent questions
// onto one shared kgqan::core::KgqanEngine through a bounded MPMC admission
// queue drained by a worker pool.
//
// Production behaviours (the ROADMAP's async-serving item):
//  * Admission control / backpressure — Submit() never queues unboundedly:
//    a full queue rejects immediately with an Overloaded status, a
//    draining/shut-down server with Unavailable.  Callers retry or shed.
//  * Per-question deadlines — each request carries a util::CancelToken
//    that starts ticking at admission (queue wait counts against the
//    deadline).  Workers bind it around Engine::AnswerFull, which runs
//    the whole question on the worker's thread, and the endpoint fails
//    expired queries fast, so an expired question stops issuing probes
//    and returns a partial-or-empty response flagged deadline_exceeded —
//    without poisoning the linking cache.
//  * Graceful drain/shutdown — Drain() stops admission and completes every
//    admitted request; Shutdown() additionally joins the workers.  Both
//    are idempotent, and the destructor shuts down.
//
// Observability: queue depth (gauge serve.queue_depth), admission /
// rejection / completion / deadline counters (serve.*), queue-wait and
// end-to-end latency histograms (serve.queue_wait_ms, serve.e2e_ms) in the
// process-wide obs::MetricsRegistry, plus head-sampled span trees kept by
// the slow-question flight recorder.
//
// Thread-safety: Submit/Ask/Drain/Shutdown/stats may be called from any
// number of threads concurrently.  The engine is shared by all workers
// (AnswerFull is const and thread-safe); the endpoint serializes live
// updates against in-flight queries itself.

#ifndef KGQAN_SERVE_QA_SERVER_H_
#define KGQAN_SERVE_QA_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serve/admin_http.h"
#include "serve/bounded_queue.h"
#include "sparql/endpoint.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace kgqan::serve {

struct QaServerOptions {
  // Worker threads draining the admission queue, all sharing the engine;
  // each answers one question at a time, so this is the server's
  // concurrency level.
  size_t num_workers = 4;

  // Admission queue capacity: requests beyond num_workers in flight plus
  // this many queued are rejected with Overloaded.
  size_t queue_capacity = 64;

  // Always-on head-sampled tracing: every trace_sample_every-th request is
  // upgraded from counters-only to a full span tree (capped at
  // trace_sample_per_sec upgrades per second), its trace id surfaced in
  // KgqanResult::trace_id and its spans retained by the flight recorder
  // when the request qualifies.  0 disables sampling; unsampled requests
  // pay one relaxed fetch_add.
  size_t trace_sample_every = 64;
  double trace_sample_per_sec = 32.0;

  // Slow-question flight recorder: ring capacity (0 disables) and the
  // latency above which a completed request is retained.  Failed /
  // deadline-exceeded requests are always retained; <= 0 retains every
  // request (tests).
  size_t flight_recorder_capacity = 32;
  double slow_question_ms = 250.0;

  // Admin introspection listener on 127.0.0.1 (/metrics, /healthz,
  // /stats, /slow): port to bind, 0 = ephemeral (read back via
  // admin_port()), < 0 = no listener (default).
  int admin_port = -1;
};

struct QaServerResponse {
  std::string question;  // Echo of the submitted question.
  core::KgqanResult result;
  // The request's deadline expired in the queue or mid-pipeline; `result`
  // holds whatever had completed by then (possibly nothing).
  bool deadline_exceeded = false;
  double queue_ms = 0.0;  // Admission → worker pickup.
  double total_ms = 0.0;  // Admission → completion (end-to-end).
};

// Cumulative counters since construction.  After Drain():
//   submitted == admitted + rejected_overloaded + rejected_unavailable
//   admitted  == completed   (no request is lost or duplicated)
struct QaServerStats {
  size_t admitted = 0;
  size_t rejected_overloaded = 0;
  size_t rejected_unavailable = 0;
  size_t completed = 0;
  size_t deadline_exceeded = 0;  // Subset of completed.
  size_t queue_depth = 0;        // Instantaneous.
  size_t traces_sampled = 0;     // Requests upgraded to full span trees.
  size_t flight_records = 0;     // Records admitted by the recorder.
};

class QaServer {
 public:
  // `engine` and `endpoint` must outlive the server.
  QaServer(const core::KgqanEngine* engine, sparql::Endpoint* endpoint,
           QaServerOptions options);

  QaServer(const QaServer&) = delete;
  QaServer& operator=(const QaServer&) = delete;

  ~QaServer();  // Shutdown().

  // Non-blocking admission.  Returns a future for the response, or fails
  // immediately: Overloaded (queue full — backpressure) or Unavailable
  // (draining / shut down).  `deadline_ms` > 0 bounds the request from
  // admission on; <= 0 means no deadline.
  util::StatusOr<std::future<QaServerResponse>> Submit(
      std::string question, double deadline_ms = 0.0);

  // Blocking convenience: Submit + wait.
  util::StatusOr<QaServerResponse> Ask(std::string question,
                                       double deadline_ms = 0.0);

  // Stops admission and blocks until every admitted request has completed
  // (its future is ready).  Idempotent; concurrent calls all block until
  // the drain finishes.
  void Drain();

  // Drain + join the workers.  Idempotent.
  void Shutdown();

  QaServerStats stats() const;
  size_t queue_depth() const { return queue_.size(); }

  // The admin listener's bound port (0 when not listening).
  int admin_port() const { return admin_.port(); }

  // The slow-question flight recorder (null when disabled).
  const obs::FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }

  // The head sampler driving always-on tracing (null when disabled).
  const obs::TraceSampler* sampler() const { return sampler_.get(); }

  // Renders one admin response for `path` ("/metrics", "/healthz",
  // "/stats", "/slow") — the admin listener's handler, exposed for tests
  // that exercise routing without sockets.
  AdminResponse HandleAdmin(const std::string& path) const;

 private:
  struct Request {
    std::string question;
    util::CancelToken token;
    util::Stopwatch admitted;  // Started at Submit.
    std::promise<QaServerResponse> promise;
  };

  void WorkerLoop();

  // Decrements the in-flight count and wakes Drain() at zero.
  void FinishOne();

  // Offers a completed request to the flight recorder (no-op when it does
  // not qualify).  `trace` is the request's span-recording trace, or null.
  void MaybeRecordFlight(const QaServerResponse& response,
                         const obs::Trace* trace);

  const core::KgqanEngine* engine_;
  sparql::Endpoint* endpoint_;
  const QaServerOptions options_;

  BoundedQueue<Request> queue_;
  std::vector<std::thread> workers_;

  // Admitted-but-not-completed requests (includes transient not-yet-
  // admitted submissions; see Submit).
  std::atomic<size_t> pending_{0};
  std::mutex drain_mutex_;
  std::condition_variable drained_;

  std::mutex lifecycle_mutex_;  // Serializes Shutdown / join.

  std::atomic<size_t> admitted_{0};
  std::atomic<size_t> rejected_overloaded_{0};
  std::atomic<size_t> rejected_unavailable_{0};
  std::atomic<size_t> completed_{0};
  std::atomic<size_t> deadline_exceeded_{0};

  // Introspection plane: head sampler, flight recorder, admin listener
  // (each null/inactive when disabled by the options).
  std::unique_ptr<obs::TraceSampler> sampler_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  AdminListener admin_;

  // Process-wide registry metrics (resolved once in the constructor).
  obs::Counter* metric_admitted_;
  obs::Counter* metric_rejected_overloaded_;
  obs::Counter* metric_rejected_unavailable_;
  obs::Counter* metric_completed_;
  obs::Counter* metric_deadline_exceeded_;
  obs::Histogram* metric_queue_wait_ms_;
  obs::Histogram* metric_e2e_ms_;
  obs::Counter* metric_traces_sampled_;
  obs::Counter* metric_flight_records_;
};

}  // namespace kgqan::serve

#endif  // KGQAN_SERVE_QA_SERVER_H_
