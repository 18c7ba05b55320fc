// Slow-question flight recorder: a small ring buffer retaining forensic
// records — span tree, top SPARQL, status, timings — for the
// slowest / failed / deadline-exceeded recent questions, so "why was that
// one question slow?" is answerable on a live server without re-running
// anything.
//
// Cost model: the admission gate (ShouldRecord) is two relaxed loads and a
// compare, taken on every request.  Only admitted requests (rare by
// construction) build a FlightRecord and take the ring mutex.  Records are
// shared_ptr<const>, so Snapshot() and the Chrome-trace dump never copy
// span trees and never block recorders for longer than a pointer swap.

#ifndef KGQAN_OBS_FLIGHT_RECORDER_H_
#define KGQAN_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace kgqan::obs {

struct FlightRecord {
  uint64_t trace_id = 0;       // 0 when the request was not sampled.
  std::string question;
  std::string status;          // "ok", "deadline_exceeded", "error", ...
  double queue_ms = 0.0;
  double total_ms = 0.0;
  std::string top_sparql;       // SPARQL text of the top candidate.
  uint64_t linking_requests = 0;
  std::vector<SpanRecord> spans;  // Empty when the request was unsampled.
};

struct FlightRecorderOptions {
  size_t capacity = 32;
  // A request slower than this is admitted; <= 0 admits every offered
  // request (tests).  Failed / deadline-exceeded requests are always
  // admitted regardless of the threshold.
  double slow_threshold_ms = 250.0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Lock-free admission gate; call before building a FlightRecord.
  bool ShouldRecord(double total_ms, bool failed) const {
    if (failed) return true;
    if (options_.slow_threshold_ms <= 0) return true;
    return total_ms >= options_.slow_threshold_ms;
  }

  void Record(std::shared_ptr<const FlightRecord> record);

  // Most-recent-last copy of the retained records.
  std::vector<std::shared_ptr<const FlightRecord>> Snapshot() const;

  // Total records ever admitted (ring overwrites included).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  const FlightRecorderOptions& options() const { return options_; }

  // Chrome-trace JSONL of every retained record: one "process" per record
  // (pid = retention order, process_name = the question), its span tree as
  // "X" events, and the record's metadata (trace_id, status, top SPARQL,
  // timings) as args on the root span.  Records captured without
  // spans (unsampled failures) synthesize a single "question" event so
  // they still appear on the timeline.
  std::string ChromeJsonl() const;

 private:
  FlightRecorderOptions options_;
  std::atomic<uint64_t> recorded_{0};
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<const FlightRecord>> ring_;
  size_t next_ = 0;  // Ring write cursor.
};

}  // namespace kgqan::obs

#endif  // KGQAN_OBS_FLIGHT_RECORDER_H_
