// Per-question tracing: a Trace owns a tree of Spans (steady-clock
// start/duration, name, key→value attributes) plus a small set of atomic
// per-trace counters that instrumented components (the SPARQL endpoint,
// the linking cache) attribute to the *active* trace instead of bumping
// only process-global statistics.  That attribution is what makes the
// engine's per-question endpoint traffic counts exact under concurrency:
// the thread answering a question binds the question's trace into
// thread-local context, so two questions sharing one endpoint never
// pollute each other's counts.
//
// Cost model:
//  * Null trace (no binding): every instrumentation site reduces to one
//    thread-local read and a branch.
//  * Counters-only trace (Trace::Mode::kCountersOnly): counter increments
//    are relaxed atomics; BeginSpan is a no-op (no lock, no allocation).
//    This is what KgqanEngine::AnswerFull uses when the caller did not
//    ask for a span tree, so linking counters stay exact for free.
//  * Full trace: span begin/end take the trace mutex and allocate the
//    span record; attributes allocate strings.  Intended for per-question
//    debugging and the Chrome-trace export, not for every request of a
//    saturated server.
//
// Span timing reuses util::Stopwatch — the one steady-clock wrapper in the
// codebase — rather than duplicating chrono arithmetic.

#ifndef KGQAN_OBS_TRACE_H_
#define KGQAN_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace kgqan::obs {

inline constexpr size_t kNoSpan = static_cast<size_t>(-1);

// Nanoseconds since a process-wide steady epoch (first call wins), so the
// spans of every trace in a process share one timeline in exports.
int64_t NanosSinceProcessEpoch();

// Small dense id for the calling thread (Chrome-trace "tid"), assigned on
// first use.
uint32_t CurrentThreadIndex();

// The per-trace counters instrumented components attribute to the active
// trace.  A fixed enum (not a name→value map) keeps AddCounter a relaxed
// atomic increment on the endpoint's hot path.
enum class TraceCounter : size_t {
  kEndpointRequests = 0,   // SPARQL requests issued.
  kEndpointCancelled,      // Queries dropped by a cancelled/expired token.
  kLinkingCacheHits,
  kLinkingCacheMisses,
  kCount,
};

std::string_view TraceCounterName(TraceCounter counter);

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;      // Since the process epoch.
  int64_t duration_ns = -1;  // -1 while the span is still open.
  size_t parent = kNoSpan;   // Index into the trace's span vector.
  uint32_t thread_index = 0;
  std::vector<std::pair<std::string, std::string>> attributes;
};

class Trace {
 public:
  enum class Mode {
    kFull,          // Record spans and counters.
    kCountersOnly,  // Counters attribute; BeginSpan is a no-op.
  };

  explicit Trace(Mode mode = Mode::kFull) : mode_(mode), id_(NextTraceId()) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool spans_enabled() const { return mode_ == Mode::kFull; }

  // Process-unique, non-zero 64-bit id (well-mixed so prefixes are usable
  // as short handles in logs and the flight recorder).
  uint64_t id() const { return id_; }

  // Opens a span; returns its index, or kNoSpan in counters-only mode.
  // Thread-safe, like every Trace method.
  size_t BeginSpan(std::string_view name, size_t parent);
  void EndSpan(size_t span, int64_t duration_ns);
  void AddAttribute(size_t span, std::string_view key,
                    std::string_view value);

  void AddCounter(TraceCounter counter, uint64_t delta) {
    counters_[static_cast<size_t>(counter)].fetch_add(
        delta, std::memory_order_relaxed);
  }
  uint64_t counter(TraceCounter counter) const {
    return counters_[static_cast<size_t>(counter)].load(
        std::memory_order_relaxed);
  }

  // Snapshot of the span tree (copy; safe while another thread appends).
  std::vector<SpanRecord> spans() const;

  // Index of the first span named `name`, or kNoSpan.
  size_t FindSpan(std::string_view name) const;

 private:
  static uint64_t NextTraceId();

  Mode mode_;
  uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::array<std::atomic<uint64_t>, static_cast<size_t>(TraceCounter::kCount)>
      counters_{};
};

// The thread's active (trace, enclosing span) pair.  ScopedSpan pushes
// onto it and pops it, so nesting and counter attribution follow the
// thread's span scopes.
struct TraceContext {
  Trace* trace = nullptr;
  size_t span = kNoSpan;
};

TraceContext CurrentContext();
inline Trace* CurrentTrace() { return CurrentContext().trace; }

// RAII span: opens a child of the current context's span on construction,
// becomes the current span, and closes with its Stopwatch duration on
// destruction.  With a null trace every method is a no-op; the embedded
// Stopwatch still runs so callers can read phase times from the same
// object that timed the span (one source of truth).
class ScopedSpan {
 public:
  // Child of the calling thread's current context.
  explicit ScopedSpan(std::string_view name)
      : ScopedSpan(CurrentContext().trace, name) {}

  // Explicit trace: a root span when the thread had no context for this
  // trace (this is how AnswerFull opens the question's root).
  ScopedSpan(Trace* trace, std::string_view name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddAttribute(std::string_view key, std::string_view value);

  // True only when the span is actually recorded (full-mode trace).  Lets
  // call sites skip computing attribute values (std::to_string etc.) on
  // the disabled path.
  bool recording() const { return trace_ != nullptr && span_ != kNoSpan; }

  const util::Stopwatch& watch() const { return watch_; }
  double ElapsedMillis() const { return watch_.ElapsedMillis(); }

 private:
  util::Stopwatch watch_;
  TraceContext saved_;
  Trace* trace_ = nullptr;
  size_t span_ = kNoSpan;
};

// Owns the traces of a run (one per question) with a display label each —
// the unit the Chrome-trace writer serializes.  StartTrace is thread-safe.
class TraceCollector {
 public:
  struct Entry {
    std::string label;
    std::unique_ptr<Trace> trace;
  };

  Trace* StartTrace(std::string label);

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

 private:
  std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace kgqan::obs

#endif  // KGQAN_OBS_TRACE_H_
