#include "util/cancel.h"

#include <utility>

namespace kgqan::util {

namespace {

// The thread's bound token.  Function-local so the (non-trivial) TLS
// object is constructed on first use per thread.
CancelToken& ThreadToken() {
  thread_local CancelToken token;
  return token;
}

}  // namespace

CancelToken CancelToken::WithDeadlineMillis(double ms) {
  CancelToken token;
  token.state_ = std::make_shared<State>();
  token.state_->has_deadline = true;
  token.state_->deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(ms));
  return token;
}

CancelToken CancelToken::Cancellable() {
  CancelToken token;
  token.state_ = std::make_shared<State>();
  return token;
}

void CancelToken::Cancel() const {
  if (state_ != nullptr) {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }
}

bool CancelToken::Cancelled() const {
  if (state_ == nullptr) return false;
  if (state_->cancelled.load(std::memory_order_relaxed)) return true;
  if (state_->has_deadline &&
      std::chrono::steady_clock::now() >= state_->deadline) {
    // Latch, so later polls skip the clock read.
    state_->cancelled.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool Cancelled() { return ThreadToken().Cancelled(); }

ScopedCancelToken::ScopedCancelToken(CancelToken token)
    : saved_(std::move(ThreadToken())) {
  ThreadToken() = std::move(token);
}

ScopedCancelToken::~ScopedCancelToken() { ThreadToken() = std::move(saved_); }

}  // namespace kgqan::util
