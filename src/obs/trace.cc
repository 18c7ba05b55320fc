#include "obs/trace.h"

namespace kgqan::obs {

namespace {

// One process-wide stopwatch is the epoch all span timestamps are relative
// to; function-local static so the first instrumented call starts it.
const util::Stopwatch& EpochWatch() {
  static const util::Stopwatch watch;
  return watch;
}

TraceContext& CurrentContextSlot() {
  thread_local TraceContext context;
  return context;
}

}  // namespace

int64_t NanosSinceProcessEpoch() { return EpochWatch().ElapsedNanos(); }

uint32_t CurrentThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

uint64_t Trace::NextTraceId() {
  // splitmix64 of a process-wide counter: unique, cheap, and well-mixed so
  // id prefixes (hex) are collision-resistant short handles.
  static std::atomic<uint64_t> next{0};
  uint64_t z = next.fetch_add(1, std::memory_order_relaxed) +
               0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

std::string_view TraceCounterName(TraceCounter counter) {
  switch (counter) {
    case TraceCounter::kEndpointRequests:
      return "endpoint.requests";
    case TraceCounter::kEndpointCancelled:
      return "endpoint.cancelled";
    case TraceCounter::kLinkingCacheHits:
      return "linking_cache.hits";
    case TraceCounter::kLinkingCacheMisses:
      return "linking_cache.misses";
    case TraceCounter::kCount:
      break;
  }
  return "unknown";
}

size_t Trace::BeginSpan(std::string_view name, size_t parent) {
  if (!spans_enabled()) return kNoSpan;
  SpanRecord record;
  record.name = std::string(name);
  record.start_ns = NanosSinceProcessEpoch();
  record.parent = parent;
  record.thread_index = CurrentThreadIndex();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
  return spans_.size() - 1;
}

void Trace::EndSpan(size_t span, int64_t duration_ns) {
  if (span == kNoSpan) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[span].duration_ns = duration_ns;
}

void Trace::AddAttribute(size_t span, std::string_view key,
                         std::string_view value) {
  if (span == kNoSpan) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[span].attributes.emplace_back(std::string(key), std::string(value));
}

std::vector<SpanRecord> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

size_t Trace::FindSpan(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) return i;
  }
  return kNoSpan;
}

TraceContext CurrentContext() { return CurrentContextSlot(); }

ScopedSpan::ScopedSpan(Trace* trace, std::string_view name)
    : saved_(CurrentContextSlot()) {
  if (trace == nullptr) return;
  // Nest under the current span only when it belongs to the same trace;
  // an explicit different trace starts its own root.
  size_t parent = saved_.trace == trace ? saved_.span : kNoSpan;
  trace_ = trace;
  span_ = trace->BeginSpan(name, parent);
  CurrentContextSlot() = TraceContext{trace, span_};
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  trace_->EndSpan(span_, watch_.ElapsedNanos());
  CurrentContextSlot() = saved_;
}

void ScopedSpan::AddAttribute(std::string_view key, std::string_view value) {
  if (trace_ != nullptr) trace_->AddAttribute(span_, key, value);
}

Trace* TraceCollector::StartTrace(std::string label) {
  auto trace = std::make_unique<Trace>(Trace::Mode::kFull);
  Trace* raw = trace.get();
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.push_back(Entry{std::move(label), std::move(trace)});
  return raw;
}

}  // namespace kgqan::obs
