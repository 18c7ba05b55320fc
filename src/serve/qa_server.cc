#include "serve/qa_server.h"

#include <cstdio>
#include <utility>

#include "obs/exposition.h"

namespace kgqan::serve {

QaServer::QaServer(const core::KgqanEngine* engine,
                   sparql::Endpoint* endpoint, QaServerOptions options)
    : engine_(engine),
      endpoint_(endpoint),
      options_(options),
      // The queue publishes its depth under its own lock, so the gauge is
      // exact and its high-water mark never exceeds the capacity.
      queue_(options.queue_capacity,
             &obs::MetricsRegistry::Global().GetGauge("serve.queue_depth")) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  metric_admitted_ = &registry.GetCounter("serve.admitted");
  metric_rejected_overloaded_ =
      &registry.GetCounter("serve.rejected.overloaded");
  metric_rejected_unavailable_ =
      &registry.GetCounter("serve.rejected.unavailable");
  metric_completed_ = &registry.GetCounter("serve.completed");
  metric_deadline_exceeded_ = &registry.GetCounter("serve.deadline_exceeded");
  metric_queue_wait_ms_ = &registry.GetHistogram("serve.queue_wait_ms");
  metric_e2e_ms_ = &registry.GetHistogram("serve.e2e_ms");
  metric_traces_sampled_ = &registry.GetCounter("serve.traces_sampled");
  metric_flight_records_ =
      &registry.GetCounter("serve.flight_recorder.recorded");

  if (options_.trace_sample_every > 0) {
    obs::TraceSamplerOptions sampler_options;
    sampler_options.sample_every = options_.trace_sample_every;
    sampler_options.max_sampled_per_sec = options_.trace_sample_per_sec;
    sampler_ = std::make_unique<obs::TraceSampler>(sampler_options);
  }
  if (options_.flight_recorder_capacity > 0) {
    obs::FlightRecorderOptions recorder_options;
    recorder_options.capacity = options_.flight_recorder_capacity;
    recorder_options.slow_threshold_ms = options_.slow_question_ms;
    recorder_ = std::make_unique<obs::FlightRecorder>(recorder_options);
  }

  size_t num_workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }

  if (options_.admin_port >= 0) {
    // Best-effort: a bind failure (port taken) leaves admin_port() == 0
    // rather than failing the whole server.
    (void)admin_.Start(options_.admin_port,
                       [this](const std::string& path) {
                         return HandleAdmin(path);
                       });
  }
}

QaServer::~QaServer() { Shutdown(); }

util::StatusOr<std::future<QaServerResponse>> QaServer::Submit(
    std::string question, double deadline_ms) {
  Request request;
  request.question = std::move(question);
  if (deadline_ms > 0.0) {
    request.token = util::CancelToken::WithDeadlineMillis(deadline_ms);
  }
  std::future<QaServerResponse> future = request.promise.get_future();
  // Count the request in flight *before* pushing: a worker may pop and
  // complete it before TryPush even returns, and the pending count must
  // never dip below the number of admitted-but-uncompleted requests.
  pending_.fetch_add(1, std::memory_order_acq_rel);
  switch (queue_.TryPush(std::move(request))) {
    case BoundedQueue<Request>::PushResult::kOk:
      admitted_.fetch_add(1, std::memory_order_relaxed);
      metric_admitted_->Add(1);
      return future;
    case BoundedQueue<Request>::PushResult::kFull:
      FinishOne();
      rejected_overloaded_.fetch_add(1, std::memory_order_relaxed);
      metric_rejected_overloaded_->Add(1);
      return util::Status::Overloaded("admission queue full");
    case BoundedQueue<Request>::PushResult::kClosed:
      FinishOne();
      rejected_unavailable_.fetch_add(1, std::memory_order_relaxed);
      metric_rejected_unavailable_->Add(1);
      return util::Status::Unavailable("server draining or shut down");
  }
  return util::Status::Internal("unreachable");
}

util::StatusOr<QaServerResponse> QaServer::Ask(std::string question,
                                               double deadline_ms) {
  auto future = Submit(std::move(question), deadline_ms);
  if (!future.ok()) return future.status();
  return future->get();
}

void QaServer::WorkerLoop() {
  while (std::optional<Request> request = queue_.Pop()) {
    QaServerResponse response;
    response.question = request->question;
    response.queue_ms = request->admitted.ElapsedMillis();
    metric_queue_wait_ms_->Record(response.queue_ms);
    // Head sampling: upgrade this request from counters-only to a full
    // span tree.  The trace lives on the worker's stack — its spans are
    // copied into a flight record if the request qualifies, then dropped.
    obs::Trace* trace = nullptr;
    std::optional<obs::Trace> sampled_trace;
    if (sampler_ != nullptr && sampler_->Sample()) {
      sampled_trace.emplace(obs::Trace::Mode::kFull);
      trace = &*sampled_trace;
      metric_traces_sampled_->Add(1);
    }
    if (request->token.Cancelled()) {
      // The deadline expired while the request sat in the queue: answer
      // DeadlineExceeded without touching the engine at all.
      response.deadline_exceeded = true;
    } else {
      // Bind the request's token so the whole pipeline under AnswerFull —
      // linking probes and candidate queries alike — observes this deadline.
      util::ScopedCancelToken bind(request->token);
      response.result =
          engine_->AnswerFull(request->question, *endpoint_, trace);
      response.deadline_exceeded = response.result.deadline_exceeded;
    }
    response.total_ms = request->admitted.ElapsedMillis();
    metric_e2e_ms_->Record(response.total_ms);
    MaybeRecordFlight(response, trace);
    completed_.fetch_add(1, std::memory_order_relaxed);
    metric_completed_->Add(1);
    if (response.deadline_exceeded) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      metric_deadline_exceeded_->Add(1);
    }
    // Fulfill before decrementing, so a caller woken by Drain() finds
    // every admitted future already ready.
    request->promise.set_value(std::move(response));
    FinishOne();
  }
}

void QaServer::FinishOne() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Lock/unlock pairs with the Drain predicate check so the final
    // notify cannot slip between a waiter's check and its sleep.
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drained_.notify_all();
  }
}

void QaServer::Drain() {
  queue_.Close();  // Stop admission; workers still drain admitted items.
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void QaServer::Shutdown() {
  Drain();
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  admin_.Shutdown();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void QaServer::MaybeRecordFlight(const QaServerResponse& response,
                                 const obs::Trace* trace) {
  if (recorder_ == nullptr) return;
  if (!recorder_->ShouldRecord(response.total_ms,
                               response.deadline_exceeded)) {
    return;
  }
  auto record = std::make_shared<obs::FlightRecord>();
  record->trace_id = response.result.trace_id;
  record->question = response.question;
  record->status = response.deadline_exceeded ? "deadline_exceeded" : "ok";
  record->queue_ms = response.queue_ms;
  record->total_ms = response.total_ms;
  record->top_sparql = response.result.top_sparql;
  record->linking_requests = response.result.linking_requests;
  if (trace != nullptr && trace->spans_enabled()) {
    record->spans = trace->spans();
  }
  recorder_->Record(std::move(record));
  metric_flight_records_->Add(1);
}

AdminResponse QaServer::HandleAdmin(const std::string& path) const {
  AdminResponse response;
  if (path == "/healthz") {
    response.body = "ok\n";
    return response;
  }
  if (path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        obs::PrometheusText(obs::MetricsRegistry::Global().Snapshot());
    return response;
  }
  if (path == "/stats") {
    QaServerStats server_stats = stats();
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "{\"server\":{\"admitted\":%zu,\"rejected_overloaded\":%zu,"
        "\"rejected_unavailable\":%zu,\"completed\":%zu,"
        "\"deadline_exceeded\":%zu,\"queue_depth\":%zu,"
        "\"traces_sampled\":%zu,\"flight_records\":%zu},"
        "\"metrics\":",
        server_stats.admitted, server_stats.rejected_overloaded,
        server_stats.rejected_unavailable, server_stats.completed,
        server_stats.deadline_exceeded, server_stats.queue_depth,
        server_stats.traces_sampled, server_stats.flight_records);
    response.content_type = "application/json; charset=utf-8";
    response.body = buffer;
    response.body +=
        obs::ExpositionJson(obs::MetricsRegistry::Global().Snapshot());
    response.body += "}";
    return response;
  }
  if (path == "/slow") {
    if (recorder_ == nullptr) {
      response.status = 404;
      response.body = "flight recorder disabled\n";
      return response;
    }
    response.content_type = "application/x-ndjson; charset=utf-8";
    response.body = recorder_->ChromeJsonl();
    return response;
  }
  response.status = 404;
  response.body = "not found\n";
  return response;
}

QaServerStats QaServer::stats() const {
  QaServerStats stats;
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.rejected_overloaded =
      rejected_overloaded_.load(std::memory_order_relaxed);
  stats.rejected_unavailable =
      rejected_unavailable_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_.size();
  if (sampler_ != nullptr) stats.traces_sampled = sampler_->sampled();
  if (recorder_ != nullptr) stats.flight_records = recorder_->recorded();
  return stats;
}

}  // namespace kgqan::serve
