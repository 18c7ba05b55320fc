// Unit tests for the observability subsystem: histogram bucketing and
// percentile extraction, the metrics registry and its exports, span-tree
// recording, and the Chrome-trace writer.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace kgqan::obs {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(StopwatchTest, ElapsedNanosIsMonotone) {
  util::Stopwatch watch;
  int64_t a = watch.ElapsedNanos();
  int64_t b = watch.ElapsedNanos();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

TEST(CounterTest, AddsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, TracksLevelAndHighWater) {
  Gauge gauge;
  gauge.Add(3);
  gauge.Add(2);
  gauge.Sub(4);
  EXPECT_EQ(gauge.Value(), 1);
  EXPECT_EQ(gauge.Max(), 5);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(gauge.Max(), 0);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram hist({1.0, 10.0, 100.0});
  hist.Record(0.5);    // bucket 0: (-inf, 1]
  hist.Record(1.0);    // bucket 0: boundary value goes to its own bucket
  hist.Record(1.0001); // bucket 1
  hist.Record(10.0);   // bucket 1
  hist.Record(100.0);  // bucket 2
  hist.Record(1000.0); // overflow
  HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_NEAR(snap.sum, 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 1000.0, 1e-9);
}

TEST(HistogramTest, UnsortedBoundsAreSortedAndDeduplicated) {
  Histogram hist({10.0, 1.0, 10.0});
  hist.Record(5.0);
  HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(snap.bounds[1], 10.0);
  EXPECT_EQ(snap.counts[1], 1u);
}

TEST(HistogramTest, EmptyPercentilesAreZero) {
  Histogram hist(Histogram::DefaultLatencyBucketsMs());
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(99.0), 0.0);
}

TEST(HistogramTest, SingleSamplePercentileIsExact) {
  Histogram hist(Histogram::DefaultLatencyBucketsMs());
  hist.Record(3.7);
  HistogramSnapshot snap = hist.Snapshot();
  // Clamping to [min, max] makes every percentile the sample itself.
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), 3.7);
  EXPECT_DOUBLE_EQ(snap.Percentile(50.0), 3.7);
  EXPECT_DOUBLE_EQ(snap.Percentile(100.0), 3.7);
  EXPECT_DOUBLE_EQ(snap.Mean(), 3.7);
}

TEST(HistogramTest, PercentilesInterpolateAndStayOrdered) {
  Histogram hist({1.0, 2.0, 4.0, 8.0, 16.0});
  for (int i = 0; i < 90; ++i) hist.Record(1.5);   // bucket (1, 2]
  for (int i = 0; i < 10; ++i) hist.Record(12.0);  // bucket (8, 16]
  HistogramSnapshot snap = hist.Snapshot();
  double p50 = snap.Percentile(50.0);
  double p90 = snap.Percentile(90.0);
  double p99 = snap.Percentile(99.0);
  // p50 and p90 land in the (1, 2] bucket, p99 in the tail bucket.
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_LE(p90, 2.0);
  EXPECT_GT(p99, 8.0);
  EXPECT_LE(p99, 16.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
}

TEST(HistogramTest, OverflowBucketClampsToObservedMax) {
  Histogram hist({1.0});
  hist.Record(50.0);
  hist.Record(70.0);
  HistogramSnapshot snap = hist.Snapshot();
  // Both samples overflow; percentiles cannot extrapolate past max.
  EXPECT_LE(snap.Percentile(99.0), 70.0);
  EXPECT_GE(snap.Percentile(1.0), 1.0);
}

TEST(HistogramTest, ResetZeroesInPlace) {
  Histogram hist({1.0, 2.0});
  hist.Record(1.5);
  hist.Reset();
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
  for (uint64_t c : snap.counts) EXPECT_EQ(c, 0u);
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test.counter");
  Counter& b = registry.GetCounter("test.counter");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  EXPECT_EQ(b.Value(), 7u);

  Histogram& h1 = registry.GetHistogram("test.hist", {1.0, 2.0});
  Histogram& h2 = registry.GetHistogram("test.hist", {99.0});  // Ignored.
  EXPECT_EQ(&h1, &h2);
  h1.Record(1.5);
  EXPECT_EQ(h2.Snapshot().bounds.size(), 2u);

  registry.Reset();
  EXPECT_EQ(a.Value(), 0u);  // Reference survives Reset.
  EXPECT_EQ(h1.Snapshot().count, 0u);
}

TEST(MetricsRegistryTest, SnapshotTableAndJsonContainEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("requests").Add(5);
  registry.GetGauge("depth").Add(2);
  registry.GetHistogram("latency_ms").Record(1.0);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 5u);

  std::string table = FormatMetricsTable(snap);
  EXPECT_NE(table.find("requests"), std::string::npos);
  EXPECT_NE(table.find("depth"), std::string::npos);
  EXPECT_NE(table.find("latency_ms"), std::string::npos);

  std::string json = MetricsToJson(snap);
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalRegistryHasProcessLifetime) {
  Counter& c = MetricsRegistry::Global().GetCounter("obs_test.global_probe");
  uint64_t before = c.Value();
  c.Add(1);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("obs_test.global_probe")
                .Value(),
            before + 1);
}

TEST(TraceTest, SpanTreeRecordsNestingAndAttributes) {
  Trace trace(Trace::Mode::kFull);
  {
    ScopedSpan root(&trace, "question");
    root.AddAttribute("text", "who?");
    {
      ScopedSpan child("linking");
      ScopedSpan grandchild("probe");
      grandchild.AddAttribute("probes", "4");
    }
    ScopedSpan sibling("execution");
  }
  std::vector<SpanRecord> spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  size_t root_idx = trace.FindSpan("question");
  size_t linking = trace.FindSpan("linking");
  size_t probe = trace.FindSpan("probe");
  size_t execution = trace.FindSpan("execution");
  ASSERT_NE(root_idx, kNoSpan);
  EXPECT_EQ(spans[root_idx].parent, kNoSpan);
  EXPECT_EQ(spans[linking].parent, root_idx);
  EXPECT_EQ(spans[probe].parent, linking);
  EXPECT_EQ(spans[execution].parent, root_idx);
  // Every span is closed with a non-negative duration.
  for (const SpanRecord& span : spans) EXPECT_GE(span.duration_ns, 0);
  // Children cannot outlast their parent.
  EXPECT_LE(spans[linking].duration_ns, spans[root_idx].duration_ns);
  ASSERT_EQ(spans[probe].attributes.size(), 1u);
  EXPECT_EQ(spans[probe].attributes[0].first, "probes");
  EXPECT_EQ(spans[probe].attributes[0].second, "4");
}

TEST(TraceTest, CountersOnlyModeRecordsNoSpans) {
  Trace trace(Trace::Mode::kCountersOnly);
  {
    ScopedSpan root(&trace, "question");
    ScopedSpan child("linking");
    trace.AddCounter(TraceCounter::kEndpointRequests, 3);
  }
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.counter(TraceCounter::kEndpointRequests), 3u);
  EXPECT_EQ(trace.FindSpan("question"), kNoSpan);
}

TEST(TraceTest, NullTraceSpansAreNoOpsButStillTime) {
  ScopedSpan span("orphan");
  span.AddAttribute("ignored", "yes");
  EXPECT_GE(span.ElapsedMillis(), 0.0);
  EXPECT_EQ(CurrentTrace(), nullptr);
}

TEST(TraceTest, ScopedContextRebindsAndRestores) {
  Trace trace(Trace::Mode::kFull);
  EXPECT_EQ(CurrentTrace(), nullptr);
  {
    ScopedContext bind(TraceContext{&trace, kNoSpan});
    EXPECT_EQ(CurrentTrace(), &trace);
    ScopedSpan span("inside");
    EXPECT_EQ(trace.FindSpan("inside"), size_t{0});
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
}

TEST(TraceCounterTest, NamesAreStable) {
  EXPECT_EQ(TraceCounterName(TraceCounter::kEndpointRequests),
            "endpoint.requests");
  EXPECT_EQ(TraceCounterName(TraceCounter::kLinkingCacheHits),
            "linking_cache.hits");
  EXPECT_EQ(TraceCounterName(TraceCounter::kLinkingCacheMisses),
            "linking_cache.misses");
}

TEST(ChromeTraceTest, WriterEmitsOneJsonObjectPerLine) {
  TraceCollector collector;
  Trace* trace = collector.StartTrace("q0: who \"quotes\"?");
  trace->AddCounter(TraceCounter::kEndpointRequests, 12);
  {
    ScopedSpan root(trace, "question");
    ScopedSpan child("linking");
    child.AddAttribute("endpoint.requests", "12");
  }
  std::string jsonl = ChromeTraceJsonl(collector);
  std::vector<std::string> lines = Lines(jsonl);
  // One metadata line plus one line per span.
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_NE(lines[0].find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(lines[0].find("process_name"), std::string::npos);
  // The label's quotes are escaped, not emitted raw.
  EXPECT_NE(lines[0].find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\":\"question\""), std::string::npos);
  // Root span carries the trace counters in args.
  EXPECT_NE(lines[1].find("\"endpoint.requests\":12"), std::string::npos);
  // Child span carries its attribute round-tripped as a string.
  EXPECT_NE(lines[2].find("\"endpoint.requests\":\"12\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"name\":\"linking\""), std::string::npos);
}

TEST(ChromeTraceTest, CollectorAssignsSequentialPids) {
  TraceCollector collector;
  for (int i = 0; i < 3; ++i) {
    Trace* trace = collector.StartTrace("q" + std::to_string(i));
    ScopedSpan root(trace, "question");
  }
  std::vector<std::string> lines = Lines(ChromeTraceJsonl(collector));
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_NE(lines[0].find("\"pid\":0"), std::string::npos);
  EXPECT_NE(lines[2].find("\"pid\":1"), std::string::npos);
  EXPECT_NE(lines[4].find("\"pid\":2"), std::string::npos);
}

TEST(ChromeTraceTest, OpenSpanExportsWithZeroDuration) {
  Trace trace(Trace::Mode::kFull);
  trace.BeginSpan("open", kNoSpan);  // Never ended.
  std::ostringstream out;
  WriteChromeTrace(trace, "unfinished", 0, out);
  std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"dur\":0.000"), std::string::npos);
}

}  // namespace
}  // namespace kgqan::obs
