// Fixed-size thread pool with a plain FIFO task queue and std::future
// results.
//
// Design notes:
//  * No work stealing: the pool exists to overlap the endpoint round-trips
//    of candidate-query execution waves, whose tasks are coarse enough
//    that a single locked queue is never the bottleneck.
//  * Submit() is thread-safe and may be called from worker threads, but a
//    task must never block on the future of another task submitted to the
//    same pool (classic deadlock when all workers wait).  The engine's
//    execution waves therefore always join futures from the calling
//    thread only.
//  * Exceptions thrown by a task are captured in its future and rethrown
//    at future.get(), so callers see them on the joining thread.
//  * Observability: Submit() captures the submitting thread's trace
//    context and rebinds it inside the task, so spans and per-trace
//    counters recorded by pool tasks attribute to the question that
//    spawned them.  The pool also feeds the global metrics registry:
//    queue depth (gauge), queue wait and task latency (histograms).
//  * Cancellation: Submit() likewise captures the submitting thread's
//    util::CancelToken and rebinds it inside the task, so a request's
//    deadline cooperatively cancels the execution wave it spawned (the
//    task still runs — it observes the token and unwinds).

#ifndef KGQAN_UTIL_THREAD_POOL_H_
#define KGQAN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/stopwatch.h"

namespace kgqan::util {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains nothing: pending tasks that have not started are still executed
  // before the workers exit, so every returned future becomes ready.
  ~ThreadPool();

  size_t size() const { return workers_.size(); }

  // Enqueues `fn` and returns a future for its result.  The task runs
  // under the submitting thread's trace context and cancellation token
  // (see header comment), so a request's deadline follows its tasks.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    // std::function requires copyable targets, so the packaged_task lives
    // behind a shared_ptr.
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    obs::TraceContext context = obs::CurrentContext();
    CancelToken cancel = CurrentCancelToken();
    Stopwatch enqueued;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.emplace_back([task, context, cancel, enqueued]() {
        obs::ScopedContext bind(context);
        ScopedCancelToken bind_cancel(cancel);
        Metrics().queue_wait_ms->Record(enqueued.ElapsedMillis());
        Stopwatch run;
        (*task)();
        Metrics().task_ms->Record(run.ElapsedMillis());
      });
      // Under the lock, like the worker's Sub, so the gauge never dips
      // below zero or counts a task a worker already dequeued.
      Metrics().queue_depth->Add(1);
    }
    ready_.notify_one();
    return result;
  }

  // Hardware concurrency with a sane floor (hardware_concurrency() may
  // legally return 0).
  static size_t DefaultThreads() {
    size_t n = std::thread::hardware_concurrency();
    return n > 0 ? n : 2;
  }

 private:
  // The pool's registry metrics, shared by every pool in the process and
  // resolved once (registry references stay valid for process lifetime).
  struct PoolMetrics {
    obs::Gauge* queue_depth;
    obs::Histogram* queue_wait_ms;
    obs::Histogram* task_ms;
  };
  static const PoolMetrics& Metrics();

  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace kgqan::util

#endif  // KGQAN_UTIL_THREAD_POOL_H_
