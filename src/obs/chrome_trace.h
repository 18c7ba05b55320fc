// Chrome-trace-format export of span trees, one JSON event per line
// (JSONL).  The emitted events are "X" (complete) duration events plus
// "M" process_name metadata per trace, which ui.perfetto.dev loads
// directly; for the legacy chrome://tracing viewer wrap the lines in
// "[" ... "]" (the format is identical otherwise).
//
// Each trace becomes one Chrome "process" (pid = trace index, named by
// its label, typically the question text); span thread indices become
// tids, so each track is the thread that answered the question.

#ifndef KGQAN_OBS_CHROME_TRACE_H_
#define KGQAN_OBS_CHROME_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/trace.h"

namespace kgqan::obs {

// Emits the "M" process_name metadata event for pid `pid`.
void WriteChromeProcessName(std::string_view process_name, uint32_t pid,
                            std::ostream& out);

// Serializes a span snapshot as "X" events under pid `pid`.
// `root_args_json`, when non-empty, is a pre-rendered JSON fragment
// (`"key":value,...` without braces) spliced into the args of every root
// span — how per-trace counters and flight-record metadata ride along.
void WriteChromeSpans(const std::vector<SpanRecord>& spans, uint32_t pid,
                      std::string_view root_args_json, std::ostream& out);

// Serializes one trace as pid `pid` named `process_name`.
void WriteChromeTrace(const Trace& trace, std::string_view process_name,
                      uint32_t pid, std::ostream& out);

// Serializes every collected trace (pid = collection order).
void WriteChromeTrace(const TraceCollector& collector, std::ostream& out);

// Convenience: the collector's JSONL as a string (tests, Explain dumps).
std::string ChromeTraceJsonl(const TraceCollector& collector);

}  // namespace kgqan::obs

#endif  // KGQAN_OBS_CHROME_TRACE_H_
