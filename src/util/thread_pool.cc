#include "util/thread_pool.h"

namespace kgqan::util {

const ThreadPool::PoolMetrics& ThreadPool::Metrics() {
  static const PoolMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return PoolMetrics{&registry.GetGauge("thread_pool.queue_depth"),
                       &registry.GetHistogram("thread_pool.queue_wait_ms"),
                       &registry.GetHistogram("thread_pool.task_ms")};
  }();
  return metrics;
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this]() { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and fully drained.
      task = std::move(tasks_.front());
      tasks_.pop_front();
      Metrics().queue_depth->Sub(1);
    }
    task();  // packaged_task captures exceptions into the future.
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared by the caller and the helper tasks; helpers keep it (and the
  // copied fn) alive via shared_ptr even if they start after the caller
  // has already returned — they then find no items left and exit.
  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t total = 0;
    std::function<void(size_t)> fn;
    std::mutex mutex;
    std::condition_variable all_done;
    std::exception_ptr error;
  };
  auto state = std::make_shared<Shared>();
  state->total = n;
  state->fn = fn;

  auto drain = [state]() {
    for (;;) {
      size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->total) return;
      try {
        state->fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
      }
      // acq_rel: the final count read below then orders every item's
      // writes before the caller's merge.
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->total) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->all_done.notify_all();
      }
    }
  };

  size_t helpers = std::min(pool->size(), n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit(drain);  // Future discarded: completion is tracked by
                          // `done`, errors by `state->error`.
  }
  drain();  // The caller works too — this is the no-deadlock guarantee.

  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock, [&]() {
    return state->done.load(std::memory_order_acquire) >= state->total;
  });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace kgqan::util
