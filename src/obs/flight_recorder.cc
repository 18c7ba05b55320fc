#include "obs/flight_recorder.h"

#include <cstdio>
#include <sstream>

#include "obs/chrome_trace.h"
#include "obs/json_util.h"

namespace kgqan::obs {

namespace {

std::string HexId(uint64_t id) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buffer);
}

std::string FormatMs(double ms) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return std::string(buffer);
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  ring_.reserve(options_.capacity);
}

void FlightRecorder::Record(std::shared_ptr<const FlightRecord> record) {
  if (record == nullptr) return;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
    next_ = (next_ + 1) % options_.capacity;
  }
}

std::vector<std::shared_ptr<const FlightRecord>> FlightRecorder::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const FlightRecord>> out;
  out.reserve(ring_.size());
  // Oldest-first: the ring wraps at next_, so [next_, end) precede
  // [0, next_) once full.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::string FlightRecorder::ChromeJsonl() const {
  std::ostringstream out;
  const std::vector<std::shared_ptr<const FlightRecord>> records = Snapshot();
  uint32_t pid = 0;
  for (const std::shared_ptr<const FlightRecord>& record : records) {
    WriteChromeProcessName(record->question, pid, out);
    std::string root_args = "\"trace_id\":";
    AppendJsonString(&root_args,
                     record->trace_id == 0 ? "" : HexId(record->trace_id));
    root_args += ",\"status\":";
    AppendJsonString(&root_args, record->status);
    root_args += ",\"question\":";
    AppendJsonString(&root_args, record->question);
    root_args += ",\"top_sparql\":";
    AppendJsonString(&root_args, record->top_sparql);
    root_args += ",\"queue_ms\":" + FormatMs(record->queue_ms) +
                 ",\"total_ms\":" + FormatMs(record->total_ms) +
                 ",\"linking_requests\":" +
                 std::to_string(record->linking_requests);
    if (!record->spans.empty()) {
      WriteChromeSpans(record->spans, pid, root_args, out);
    } else {
      // Unsampled admission (e.g. an unsampled failure): synthesize one
      // event so the record still lands on the timeline with its metadata.
      std::vector<SpanRecord> synthetic(1);
      synthetic[0].name = "question";
      synthetic[0].duration_ns =
          static_cast<int64_t>(record->total_ms * 1e6);
      WriteChromeSpans(synthetic, pid, root_args, out);
    }
    ++pid;
  }
  return out.str();
}

}  // namespace kgqan::obs
