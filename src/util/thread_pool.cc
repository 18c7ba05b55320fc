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

}  // namespace kgqan::util
