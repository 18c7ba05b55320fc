#include "obs/exposition.h"

#include <cctype>
#include <cstdio>

#include "obs/json_util.h"

namespace kgqan::obs {

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return std::string(buffer);
}

void AppendHelpType(std::string* out, const std::string& name,
                    std::string_view help, std::string_view type) {
  *out += "# HELP " + name + " ";
  // HELP text: escape backslash and newline per the text-format spec.
  for (char c : help) {
    if (c == '\\') {
      *out += "\\\\";
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      out->push_back(c);
    }
  }
  out->push_back('\n');
  *out += "# TYPE " + name + " ";
  *out += type;
  out->push_back('\n');
}

}  // namespace

std::string PrometheusName(std::string_view name) {
  std::string out = "kgqan_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusName(name) + "_total";
    AppendHelpType(&out, prom, "Counter " + name + ".", "counter");
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, gauge] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    AppendHelpType(&out, prom, "Gauge " + name + ".", "gauge");
    out += prom + " " + std::to_string(gauge.value) + "\n";
    const std::string prom_max = prom + "_max";
    AppendHelpType(&out, prom_max,
                   "High-water mark of gauge " + name + " since reset.",
                   "gauge");
    out += prom_max + " " + std::to_string(gauge.max) + "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string prom = PrometheusName(name);
    AppendHelpType(&out, prom, "Histogram " + name + " (milliseconds).",
                   "histogram");
    uint64_t cumulative = 0;
    for (size_t b = 0; b < hist.bounds.size(); ++b) {
      cumulative += b < hist.counts.size() ? hist.counts[b] : 0;
      out += prom + "_bucket{le=\"" + FormatDouble(hist.bounds[b]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(hist.count) + "\n";
    out += prom + "_sum " + FormatDouble(hist.sum) + "\n";
    out += prom + "_count " + std::to_string(hist.count) + "\n";
  }
  return out;
}

std::string ExpositionJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ':';
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : snapshot.gauges) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"value\":" + std::to_string(gauge.value) +
           ",\"max\":" + std::to_string(gauge.max) + "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"count\":" + std::to_string(hist.count) +
           ",\"sum\":" + FormatDouble(hist.sum) +
           ",\"mean\":" + FormatDouble(hist.Mean()) +
           ",\"min\":" + FormatDouble(hist.min) +
           ",\"max\":" + FormatDouble(hist.max) +
           ",\"p50\":" + FormatDouble(hist.Percentile(50)) +
           ",\"p90\":" + FormatDouble(hist.Percentile(90)) +
           ",\"p95\":" + FormatDouble(hist.Percentile(95)) +
           ",\"p99\":" + FormatDouble(hist.Percentile(99)) + ",\"buckets\":[";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < hist.bounds.size(); ++b) {
      cumulative += b < hist.counts.size() ? hist.counts[b] : 0;
      if (b != 0) out += ",";
      out += "{\"le\":" + FormatDouble(hist.bounds[b]) +
             ",\"count\":" + std::to_string(cumulative) + "}";
    }
    if (!hist.bounds.empty()) out += ",";
    out += "{\"le\":\"+Inf\",\"count\":" + std::to_string(hist.count) + "}]}";
  }
  out += "}}";
  return out;
}

}  // namespace kgqan::obs
