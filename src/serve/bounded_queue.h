// Bounded MPMC FIFO queue — the admission queue of serve::QaServer.
//
// Semantics chosen for admission control rather than throughput plumbing:
//  * TryPush never blocks: a full queue returns kFull immediately, which
//    the server surfaces as an Overloaded rejection (backpressure instead
//    of unbounded queueing).
//  * Pop blocks until an item arrives or the queue is closed; after
//    Close(), Pop drains the remaining items and only then returns
//    nullopt, so graceful shutdown completes admitted work.
//  * Close() is idempotent and wakes every blocked Pop().
//
// Invariants (guarded by tests/serve_queue_property_test.cc under random
// producer/consumer interleavings): size() never exceeds capacity(),
// items pushed by one producer are popped in that producer's order, and
// every successfully pushed item is popped exactly once.
//
// An optional depth gauge is updated under the queue lock on every push
// and pop, so its value is always exactly size() and its high-water mark
// never exceeds capacity(), even under concurrent producers and consumers.

#ifndef KGQAN_SERVE_BOUNDED_QUEUE_H_
#define KGQAN_SERVE_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/metrics.h"

namespace kgqan::serve {

template <typename T>
class BoundedQueue {
 public:
  enum class PushResult { kOk, kFull, kClosed };

  explicit BoundedQueue(size_t capacity, obs::Gauge* depth = nullptr)
      : capacity_(capacity > 0 ? capacity : 1), depth_(depth) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Non-blocking admission; kFull applies backpressure to the producer.
  PushResult TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
      if (depth_ != nullptr) depth_->Add(1);
    }
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  // Blocks until an item is available or the queue is closed *and* empty
  // (close drains: admitted items are still delivered).
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    return PopFrontLocked();
  }

  // Non-blocking variant; nullopt when currently empty (closed or not).
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mutex_);
    return PopFrontLocked();
  }

  // Stops admission and wakes all blocked Pop()s; idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  // Requires mutex_ held; nullopt when empty.
  std::optional<T> PopFrontLocked() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    if (depth_ != nullptr) depth_->Sub(1);
    return item;
  }

  const size_t capacity_;
  obs::Gauge* const depth_;  // Not owned; may be null.
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace kgqan::serve

#endif  // KGQAN_SERVE_BOUNDED_QUEUE_H_
