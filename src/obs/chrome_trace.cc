#include "obs/chrome_trace.h"

#include <cstdio>
#include <sstream>

#include "obs/json_util.h"

namespace kgqan::obs {

namespace {

std::string Micros(int64_t nanos) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", double(nanos) / 1000.0);
  return std::string(buffer);
}

}  // namespace

void WriteChromeProcessName(std::string_view process_name, uint32_t pid,
                            std::ostream& out) {
  std::string line = "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
                     std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":";
  AppendJsonString(&line, process_name);
  line += "}}";
  out << line << "\n";
}

void WriteChromeSpans(const std::vector<SpanRecord>& spans, uint32_t pid,
                      std::string_view root_args_json, std::ostream& out) {
  std::string line;
  for (const SpanRecord& span : spans) {
    line = "{\"ph\":\"X\",\"name\":";
    AppendJsonString(&line, span.name);
    line += ",\"pid\":" + std::to_string(pid) +
            ",\"tid\":" + std::to_string(span.thread_index) +
            ",\"ts\":" + Micros(span.start_ns) + ",\"dur\":" +
            Micros(span.duration_ns < 0 ? int64_t{0} : span.duration_ns);
    line += ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : span.attributes) {
      if (!first) line += ",";
      first = false;
      AppendJsonString(&line, key);
      line += ":";
      AppendJsonString(&line, value);
    }
    if (span.parent == kNoSpan && !root_args_json.empty()) {
      if (!first) line += ",";
      first = false;
      line += root_args_json;
    }
    line += "}}";
    out << line << "\n";
  }
}

void WriteChromeTrace(const Trace& trace, std::string_view process_name,
                      uint32_t pid, std::ostream& out) {
  WriteChromeProcessName(process_name, pid, out);
  // Root spans additionally carry the trace's exact per-trace counters, so
  // the per-question endpoint traffic is visible in the viewer.
  std::string root_args;
  for (size_t c = 0; c < static_cast<size_t>(TraceCounter::kCount); ++c) {
    if (!root_args.empty()) root_args += ",";
    AppendJsonString(&root_args, TraceCounterName(TraceCounter(c)));
    root_args += ':';
    root_args += std::to_string(trace.counter(TraceCounter(c)));
  }
  WriteChromeSpans(trace.spans(), pid, root_args, out);
}

void WriteChromeTrace(const TraceCollector& collector, std::ostream& out) {
  uint32_t pid = 0;
  for (const TraceCollector::Entry& entry : collector.entries()) {
    WriteChromeTrace(*entry.trace, entry.label, pid++, out);
  }
}

std::string ChromeTraceJsonl(const TraceCollector& collector) {
  std::ostringstream out;
  WriteChromeTrace(collector, out);
  return out.str();
}

}  // namespace kgqan::obs
