// Process-wide metrics: named counters, gauges, and fixed-bucket latency
// histograms with percentile extraction, collected in a MetricsRegistry
// and snapshot-exportable as a human-readable table or JSON.
//
// Metric objects are lock-free on the record path (relaxed atomics); the
// registry mutex is taken only on name lookup, so instrumented components
// resolve their metrics once (constructor or function-local static) and
// then record without synchronization.  Registry entries are never erased
// — Reset() zeroes values in place — so resolved references stay valid for
// the process lifetime.

#ifndef KGQAN_OBS_METRICS_H_
#define KGQAN_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kgqan::obs {

class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous level (e.g. serving queue depth) with a high-water
// mark.  Add/Sub are relaxed; Max() is monotone between Resets and never
// reads below the level concurrently observable via Value(): Sub routes
// through Add so a negative delta still publishes the post-update level,
// and Reset reseeds the high-water from the live value rather than zero,
// so a Reset racing concurrent Adds cannot strand max_ below value_.
class Gauge {
 public:
  void Add(int64_t delta) {
    int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (now > seen &&
           !max_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
  void Sub(int64_t delta) { Add(-delta); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  // The high-water mark can lag the live value for one instruction while a
  // racing Add publishes its CAS; clamping at read time keeps the reported
  // mark ≥ Value() under every interleaving.
  int64_t Max() const {
    int64_t value = value_.load(std::memory_order_relaxed);
    int64_t max = max_.load(std::memory_order_relaxed);
    return max > value ? max : value;
  }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(value_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

// Copyable point-in-time view of a Histogram; all derived statistics
// (mean, percentiles) are computed here so results of concurrent runs can
// be stored and compared.
struct HistogramSnapshot {
  std::vector<double> bounds;    // Ascending bucket upper bounds.
  std::vector<uint64_t> counts;  // bounds.size() + 1 (last = overflow).
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // Observed extremes (0 when empty).
  double max = 0.0;

  double Mean() const { return count == 0 ? 0.0 : sum / double(count); }

  // Estimated p-th percentile (p in [0, 100]) by linear interpolation
  // inside the bucket holding the target rank, clamped to the observed
  // [min, max] — so a single-sample histogram returns the sample exactly
  // and the overflow bucket cannot extrapolate past the largest value.
  double Percentile(double p) const;
};

class Histogram {
 public:
  // `bounds` are ascending bucket upper bounds; an implicit overflow
  // bucket covers (bounds.back(), +inf).
  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value);
  HistogramSnapshot Snapshot() const;
  void Reset();

  // Default latency buckets in milliseconds: 50 µs .. 10 s, roughly
  // 1-2.5-5 per decade.
  static std::vector<double> DefaultLatencyBucketsMs();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

struct GaugeSnapshot {
  int64_t value = 0;
  int64_t max = 0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, GaugeSnapshot>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every built-in instrumentation site uses.
  static MetricsRegistry& Global();

  // Find-or-create by name; returned references are valid for the
  // registry's lifetime.  For histograms, `bounds` applies only when the
  // name is first created.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name,
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;

  // Zeroes every metric in place (entries and resolved references stay
  // valid).  For benchmarks/tests that want per-run numbers.
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace kgqan::obs

#endif  // KGQAN_OBS_METRICS_H_
