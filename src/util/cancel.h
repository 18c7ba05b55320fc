// Cooperative cancellation for the serving front-end: a CancelToken
// combines an optional deadline (steady clock) with an explicit cancel
// flag, shared by copy, and is threaded through the pipeline *ambiently* —
// bound into thread-local context exactly like obs::TraceContext.  A
// question runs on the one thread that bound its token, so blocking hops
// (the SPARQL endpoint, the linker's probe loops, the engine's candidate
// scan) poll Cancelled() and unwind early instead of starting new work.
//
// Cost model: a default-constructed token has no shared state and never
// cancels; Cancelled() on the unbound path is one thread-local read and a
// null check, so code outside the server pays nothing.  With a deadline
// bound, Cancelled() is a relaxed atomic load plus (at most) one steady-
// clock read.

#ifndef KGQAN_UTIL_CANCEL_H_
#define KGQAN_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>

namespace kgqan::util {

class CancelToken {
 public:
  // Null token: never cancelled, no allocation.
  CancelToken() = default;

  // Token that expires `ms` milliseconds from now (and can also be
  // cancelled explicitly before that).
  static CancelToken WithDeadlineMillis(double ms);

  // Token with no deadline that only cancels explicitly (server drain).
  static CancelToken Cancellable();

  bool valid() const { return state_ != nullptr; }

  // Sets the explicit cancel flag; no-op on a null token.  Thread-safe.
  void Cancel() const;

  // True once the token was explicitly cancelled or its deadline passed.
  // Monotone: once true, stays true (the deadline check latches the flag).
  bool Cancelled() const;

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };

  std::shared_ptr<State> state_;
};

// True iff the calling thread's bound token has been cancelled — the
// single polling call instrumented hops use.
bool Cancelled();

// RAII thread-local binding (the serving worker binds the request token
// around Engine::AnswerFull).
class ScopedCancelToken {
 public:
  explicit ScopedCancelToken(CancelToken token);
  ~ScopedCancelToken();

  ScopedCancelToken(const ScopedCancelToken&) = delete;
  ScopedCancelToken& operator=(const ScopedCancelToken&) = delete;

 private:
  CancelToken saved_;
};

}  // namespace kgqan::util

#endif  // KGQAN_UTIL_CANCEL_H_
