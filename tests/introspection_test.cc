// Operational introspection plane: Prometheus/JSON metrics exposition
// (format checker included), head-sampled tracing, the slow-question
// flight recorder, EXPLAIN ANALYZE operator stats, and the QaServer admin
// endpoints — including the acceptance scenario: a deadline-exceeded
// question retrievable from /slow with its span tree and the SPARQL of its
// top candidate.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "serve/qa_server.h"
#include "sparql/endpoint.h"

namespace kgqan::serve {
namespace {

constexpr const char* kDbr = "http://dbpedia.org/resource/";
constexpr const char* kDbo = "http://dbpedia.org/ontology/";
constexpr const char* kRdfsLabel =
    "http://www.w3.org/2000/01/rdf-schema#label";

rdf::Graph MiniKg() {
  rdf::Graph g;
  auto label = [&](const std::string& iri, const std::string& text) {
    g.AddIri(iri, kRdfsLabel, rdf::StringLiteral(text));
  };
  g.AddIris(std::string(kDbr) + "Barack_Obama", std::string(kDbo) + "spouse",
            std::string(kDbr) + "Michelle_Obama");
  g.AddIris(std::string(kDbr) + "France", std::string(kDbo) + "capital",
            std::string(kDbr) + "Paris");
  label(std::string(kDbr) + "Barack_Obama", "Barack Obama");
  label(std::string(kDbr) + "Michelle_Obama", "Michelle Obama");
  label(std::string(kDbr) + "France", "France");
  label(std::string(kDbr) + "Paris", "Paris");
  return g;
}

core::KgqanConfig ServingConfig() {
  core::KgqanConfig cfg;
  cfg.qu.inference.enabled = false;
  return cfg;
}

// ---------------------------------------------------------------------------
// Prometheus text-format checker.  Strict enough to catch the classic
// exposition bugs: illegal name characters, missing HELP/TYPE, samples of
// undeclared families, non-cumulative buckets, a missing +Inf bucket, and
// +Inf disagreeing with _count.

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

// Strips a histogram sample name to its family ("x_bucket" → "x").
// Counter families are declared with "_total" included and gauge "_max"
// samples are their own families, so only histogram suffixes strip.
std::string FamilyOf(const std::string& sample_name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    std::string s(suffix);
    if (sample_name.size() > s.size() &&
        sample_name.compare(sample_name.size() - s.size(), s.size(), s) == 0) {
      return sample_name.substr(0, sample_name.size() - s.size());
    }
  }
  return sample_name;
}

void CheckPrometheusText(const std::string& text) {
  std::map<std::string, std::string> declared_type;  // family → type
  std::set<std::string> with_help;
  struct HistState {
    double last_le = -1.0;
    uint64_t last_cum = 0;
    bool saw_inf = false;
    double inf_value = 0.0;
    bool has_count = false;
    double count_value = 0.0;
  };
  std::map<std::string, HistState> hists;

  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family;
      ls >> hash >> kind >> family;
      ASSERT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      ASSERT_TRUE(IsValidMetricName(family)) << line;
      if (kind == "HELP") with_help.insert(family);
      if (kind == "TYPE") {
        std::string type;
        ls >> type;
        ASSERT_TRUE(type == "counter" || type == "gauge" ||
                    type == "histogram" || type == "untyped")
            << line;
        declared_type[family] = type;
      }
      continue;
    }
    // Sample line: name[{labels}] value
    size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    std::string sample_name = line.substr(0, name_end);
    ASSERT_TRUE(IsValidMetricName(sample_name)) << line;
    std::string family = FamilyOf(sample_name);
    ASSERT_TRUE(declared_type.count(family) != 0)
        << "sample of undeclared family: " << line;
    ASSERT_TRUE(with_help.count(family) != 0)
        << "family without HELP: " << line;

    std::string labels;
    size_t value_start = name_end;
    if (line[name_end] == '{') {
      size_t close = line.find('}', name_end);
      ASSERT_NE(close, std::string::npos) << line;
      labels = line.substr(name_end + 1, close - name_end - 1);
      value_start = close + 1;
    }
    double value = 0.0;
    {
      std::istringstream vs(line.substr(value_start));
      ASSERT_TRUE(static_cast<bool>(vs >> value)) << line;
    }

    if (declared_type[family] == "histogram") {
      HistState& h = hists[family];
      if (sample_name == family + "_bucket") {
        size_t le_pos = labels.find("le=\"");
        ASSERT_NE(le_pos, std::string::npos) << line;
        std::string le = labels.substr(le_pos + 4);
        le = le.substr(0, le.find('"'));
        if (le == "+Inf") {
          h.saw_inf = true;
          h.inf_value = value;
        } else {
          double bound = std::stod(le);
          EXPECT_GT(bound, h.last_le) << "buckets out of order: " << line;
          h.last_le = bound;
        }
        EXPECT_GE(value, static_cast<double>(h.last_cum))
            << "bucket counts not cumulative: " << line;
        h.last_cum = static_cast<uint64_t>(value);
      } else if (sample_name == family + "_count") {
        h.has_count = true;
        h.count_value = value;
      }
    }
  }
  for (const auto& [family, h] : hists) {
    EXPECT_TRUE(h.saw_inf) << family << " missing +Inf bucket";
    EXPECT_TRUE(h.has_count) << family << " missing _count";
    EXPECT_EQ(h.inf_value, h.count_value)
        << family << ": +Inf bucket must equal _count";
  }
}

// ---------------------------------------------------------------------------
// Minimal strict JSON validator (objects/arrays/strings/numbers/literals)
// for the /stats document and the exposition JSON.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;  // Raw control char: invalid JSON.
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  const std::string& text_;
  size_t pos_ = 0;
};

void ExpectValidJsonLines(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    JsonChecker checker(line);
    EXPECT_TRUE(checker.Valid()) << "invalid JSONL line: " << line;
  }
  EXPECT_GT(lines, 0u);
}

// ---------------------------------------------------------------------------
// Exposition.

TEST(ExpositionTest, PrometheusNameMapsDotsIntoLegalCharset) {
  EXPECT_EQ(obs::PrometheusName("serve.queue_depth"),
            "kgqan_serve_queue_depth");
  EXPECT_EQ(obs::PrometheusName("endpoint.e2e-ms"), "kgqan_endpoint_e2e_ms");
  EXPECT_TRUE(IsValidMetricName(obs::PrometheusName("weird name!.42")));
}

TEST(ExpositionTest, PrometheusTextIsWellFormed) {
  obs::MetricsRegistry registry;
  registry.GetCounter("test.requests").Add(41);
  obs::Gauge& gauge = registry.GetGauge("test.depth");
  gauge.Add(7);
  gauge.Sub(3);
  obs::Histogram& hist = registry.GetHistogram("test.latency_ms");
  for (double v : {0.2, 1.5, 12.0, 480.0, 20'000.0}) hist.Record(v);

  std::string text = obs::PrometheusText(registry.Snapshot());
  CheckPrometheusText(text);
  EXPECT_NE(text.find("kgqan_test_requests_total 41"), std::string::npos)
      << text;
  EXPECT_NE(text.find("kgqan_test_depth 4"), std::string::npos) << text;
  EXPECT_NE(text.find("kgqan_test_depth_max 7"), std::string::npos) << text;
  EXPECT_NE(text.find("kgqan_test_latency_ms_bucket{le=\"+Inf\"} 5"),
            std::string::npos)
      << text;
}

TEST(ExpositionTest, JsonExpositionIsStrictlyValid) {
  obs::MetricsRegistry registry;
  registry.GetCounter("test.requests").Add(3);
  registry.GetGauge("test.depth").Add(2);
  obs::Histogram& hist = registry.GetHistogram("test.latency_ms");
  hist.Record(1.0);
  hist.Record(100.0);

  std::string json = obs::ExpositionJson(registry.Snapshot());
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Gauge high-water regression (the Sub asymmetry and the Reset race).

TEST(GaugeTest, SubWithNegativeDeltaRaisesHighWater) {
  obs::Gauge gauge;
  gauge.Sub(-7);  // == Add(7): must publish the post-update level.
  EXPECT_EQ(gauge.Value(), 7);
  EXPECT_EQ(gauge.Max(), 7);
}

TEST(GaugeTest, MaxNeverReadsBelowValue) {
  obs::Gauge gauge;
  gauge.Add(5);
  gauge.Sub(2);
  EXPECT_EQ(gauge.Value(), 3);
  EXPECT_EQ(gauge.Max(), 5);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(gauge.Max(), 0);
  gauge.Add(2);
  EXPECT_GE(gauge.Max(), gauge.Value());
}

// ---------------------------------------------------------------------------
// Head sampler.

TEST(TraceSamplerTest, EveryNthRequestIsSampled) {
  obs::TraceSamplerOptions options;
  options.sample_every = 4;
  options.max_sampled_per_sec = 0.0;  // Uncapped.
  obs::TraceSampler sampler(options);
  size_t sampled = 0;
  for (int i = 0; i < 100; ++i) {
    if (sampler.Sample()) ++sampled;
  }
  EXPECT_EQ(sampled, 25u);
  EXPECT_EQ(sampler.considered(), 100u);
  EXPECT_EQ(sampler.sampled(), 25u);
  EXPECT_EQ(sampler.rate_limited(), 0u);
}

TEST(TraceSamplerTest, ZeroSampleEveryDisablesSampling) {
  obs::TraceSamplerOptions options;
  options.sample_every = 0;
  obs::TraceSampler sampler(options);
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(sampler.Sample());
  EXPECT_EQ(sampler.sampled(), 0u);
}

TEST(TraceSamplerTest, PerSecondCapBoundsSampledCount) {
  obs::TraceSamplerOptions options;
  options.sample_every = 1;
  options.max_sampled_per_sec = 4.0;
  obs::TraceSampler sampler(options);
  for (int i = 0; i < 10'000; ++i) sampler.Sample();
  // The tight loop spans at most a couple of one-second windows; the cap
  // bounds each window, so the total stays far below the request count.
  EXPECT_LE(sampler.sampled(), 12u);
  EXPECT_GT(sampler.rate_limited(), 0u);
  EXPECT_EQ(sampler.sampled() + sampler.rate_limited(), sampler.considered());
}

// ---------------------------------------------------------------------------
// Flight recorder.

std::shared_ptr<const obs::FlightRecord> MakeRecord(const std::string& q,
                                                    double total_ms) {
  auto record = std::make_shared<obs::FlightRecord>();
  record->question = q;
  record->status = "ok";
  record->total_ms = total_ms;
  return record;
}

TEST(FlightRecorderTest, AdmissionGate) {
  obs::FlightRecorderOptions options;
  options.slow_threshold_ms = 100.0;
  obs::FlightRecorder recorder(options);
  EXPECT_FALSE(recorder.ShouldRecord(50.0, false));
  EXPECT_TRUE(recorder.ShouldRecord(150.0, false));
  EXPECT_TRUE(recorder.ShouldRecord(1.0, true));  // Failures always admit.

  obs::FlightRecorderOptions all;
  all.slow_threshold_ms = 0.0;
  obs::FlightRecorder everything(all);
  EXPECT_TRUE(everything.ShouldRecord(0.0, false));
}

TEST(FlightRecorderTest, RingRetainsMostRecentRecords) {
  obs::FlightRecorderOptions options;
  options.capacity = 4;
  options.slow_threshold_ms = 0.0;
  obs::FlightRecorder recorder(options);
  for (int i = 0; i < 10; ++i) {
    std::string question = "q";
    question += std::to_string(i);
    recorder.Record(MakeRecord(question, 1.0 * i));
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  auto snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot.front()->question, "q6");  // Oldest retained first.
  EXPECT_EQ(snapshot.back()->question, "q9");
}

TEST(FlightRecorderTest, ChromeJsonlIsValidAndCarriesMetadata) {
  obs::FlightRecorderOptions options;
  options.slow_threshold_ms = 0.0;
  obs::FlightRecorder recorder(options);
  auto record = std::make_shared<obs::FlightRecord>();
  record->trace_id = 0xabcdef0123456789ULL;
  record->question = "why \"slow\"?\n";  // Needs escaping.
  record->status = "deadline_exceeded";
  record->total_ms = 321.5;
  record->top_sparql = "SELECT ?x WHERE { ?x <p> <o> }";
  recorder.Record(record);

  std::string jsonl = recorder.ChromeJsonl();
  ExpectValidJsonLines(jsonl);
  EXPECT_NE(jsonl.find("abcdef0123456789"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("deadline_exceeded"), std::string::npos);
  EXPECT_NE(jsonl.find("top_sparql"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE.

TEST(ExplainAnalyzeTest, OperatorStatsCollectedWhenEnabled) {
  // A recording trace is what turns per-operator stats on.
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanEngine engine(ServingConfig());
  obs::Trace trace(obs::Trace::Mode::kFull);
  core::KgqanResult result =
      engine.AnswerFull("Who is the spouse of Barack Obama?", endpoint,
                        &trace);
  ASSERT_TRUE(result.response.understood);
  ASSERT_GT(result.queries_executed, 0u);

  bool any_operators = false;
  for (const core::CandidateQueryStats& c : result.candidates) {
    if (!c.executed) continue;
    if (!c.operators.empty()) any_operators = true;
  }
  EXPECT_TRUE(any_operators);
  EXPECT_FALSE(result.top_sparql.empty());
  EXPECT_NE(core::Explain(result).find("step 0: pattern"), std::string::npos);
}

TEST(ExplainAnalyzeTest, GenerationSpanNestsUnderExecution) {
  // The engine's own trace covers candidate generation, with the number
  // of consistent combinations enumerated before the top-k cut.
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanEngine engine(ServingConfig());
  obs::Trace trace(obs::Trace::Mode::kFull);
  core::KgqanResult result = engine.AnswerFull(
      "Who is the spouse of Barack Obama?", endpoint, &trace);
  ASSERT_GT(result.queries_generated, 0u);
  const std::vector<obs::SpanRecord> spans = trace.spans();
  const size_t generate = trace.FindSpan("bgp.generate");
  ASSERT_NE(generate, obs::kNoSpan);
  const size_t parent = spans[generate].parent;
  ASSERT_NE(parent, obs::kNoSpan);
  EXPECT_EQ(spans[parent].name, "execution");
  EXPECT_GE(spans[generate].duration_ns, 0);
  std::string combinations;
  for (const auto& [key, value] : spans[generate].attributes) {
    if (key == "combinations") combinations = value;
  }
  ASSERT_FALSE(combinations.empty());
  EXPECT_GE(std::stoul(combinations), result.queries_generated);
}

std::string SpanAttribute(const obs::SpanRecord& span,
                          const std::string& key) {
  for (const auto& [k, value] : span.attributes) {
    if (k == key) return value;
  }
  return "";
}

TEST(ExplainAnalyzeTest, LinkingSpansAttributeCacheHits) {
  // A repeated question is linked from the cache: its linking.entity and
  // linking.relation spans say so, and no text probe runs.
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanEngine engine(ServingConfig());
  const std::string question = "Who is the spouse of Barack Obama?";
  obs::Trace first(obs::Trace::Mode::kFull);
  engine.AnswerFull(question, endpoint, &first);
  obs::Trace repeated(obs::Trace::Mode::kFull);
  engine.AnswerFull(question, endpoint, &repeated);

  auto cached_values = [](const obs::Trace& trace, const std::string& name) {
    std::vector<std::string> values;
    for (const obs::SpanRecord& span : trace.spans()) {
      if (span.name == name) values.push_back(SpanAttribute(span, "cached"));
    }
    return values;
  };
  const std::vector<std::string> miss = {"false"};
  const std::vector<std::string> hit = {"true"};
  EXPECT_EQ(cached_values(first, "linking.entity"), miss);
  EXPECT_EQ(cached_values(first, "linking.relation"), miss);
  EXPECT_NE(first.FindSpan("linking.text_probe"), obs::kNoSpan);
  EXPECT_EQ(cached_values(repeated, "linking.entity"), hit);
  EXPECT_EQ(cached_values(repeated, "linking.relation"), hit);
  EXPECT_EQ(repeated.FindSpan("linking.text_probe"), obs::kNoSpan);
}

TEST(ExplainAnalyzeTest, OffByDefaultCollectsNothing) {
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanEngine engine(ServingConfig());
  core::KgqanResult result =
      engine.AnswerFull("Who is the spouse of Barack Obama?", endpoint);
  for (const core::CandidateQueryStats& c : result.candidates) {
    EXPECT_TRUE(c.operators.empty());
  }
  EXPECT_EQ(result.trace_id, 0u);  // Counters-only → no trace handle.
}

TEST(ExplainAnalyzeTest, SampledTraceCollectsOperatorsAndTraceId) {
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanEngine engine(ServingConfig());
  obs::Trace trace(obs::Trace::Mode::kFull);
  core::KgqanResult result =
      engine.AnswerFull("Who is the spouse of Barack Obama?", endpoint,
                        &trace);
  EXPECT_EQ(result.trace_id, trace.id());
  EXPECT_NE(result.trace_id, 0u);
  bool any_operators = false;
  for (const core::CandidateQueryStats& c : result.candidates) {
    if (c.executed && !c.operators.empty()) any_operators = true;
  }
  EXPECT_TRUE(any_operators);
}

// The quickstart KG: the running example q^E's slice of DBpedia.
constexpr const char* kQuickstartNTriples = R"(
<http://dbpedia.org/resource/Danish_Straits> <http://www.w3.org/2000/01/rdf-schema#label> "Danish Straits" .
<http://dbpedia.org/resource/Danish_Straits> <http://dbpedia.org/property/outflow> <http://dbpedia.org/resource/Baltic_Sea> .
<http://dbpedia.org/resource/Baltic_Sea> <http://www.w3.org/2000/01/rdf-schema#label> "Baltic Sea" .
<http://dbpedia.org/resource/Baltic_Sea> <http://dbpedia.org/ontology/nearestCity> <http://dbpedia.org/resource/Kaliningrad> .
<http://dbpedia.org/resource/Baltic_Sea> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Sea> .
<http://dbpedia.org/resource/North_Sea> <http://www.w3.org/2000/01/rdf-schema#label> "North Sea" .
<http://dbpedia.org/resource/North_Sea> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Sea> .
<http://dbpedia.org/resource/Kaliningrad> <http://www.w3.org/2000/01/rdf-schema#label> "Kaliningrad" .
<http://dbpedia.org/resource/Yantar_Kaliningrad> <http://www.w3.org/2000/01/rdf-schema#label> "Yantar, Kaliningrad" .
<http://dbpedia.org/resource/Kaliningrad> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/City> .
)";

TEST(ExplainAnalyzeTest, StepsNameTheirGroup) {
  // Candidate #0 of q^E joins two WHERE patterns, then evaluates the
  // OPTIONAL rdf:type group once for its one row: that group's step
  // numbering restarts, and each line says which group it belongs to.
  auto graph = rdf::ParseNTriples(kQuickstartNTriples);
  ASSERT_TRUE(graph.ok()) << graph.status();
  sparql::Endpoint endpoint("quickstart", std::move(graph).value());
  core::KgqanEngine engine(ServingConfig());
  obs::Trace trace(obs::Trace::Mode::kFull);
  core::KgqanResult result = engine.AnswerFull(
      "Name the sea into which Danish Straits flows and has Kaliningrad as "
      "one of the city on the shore.",
      endpoint, &trace);
  ASSERT_FALSE(result.candidates.empty());
  const core::CandidateQueryStats& top = result.candidates[0];
  ASSERT_TRUE(top.executed);
  ASSERT_EQ(top.operators.size(), 3u);
  EXPECT_EQ(top.operators[0].group, 0u);
  EXPECT_EQ(top.operators[1].group, 0u);
  EXPECT_EQ(top.operators[2].group, 1u);
  EXPECT_NE(result.top_sparql.find("OPTIONAL"), std::string::npos);

  const std::string explain = core::Explain(result);
  const size_t begin = explain.find("  #0  ");
  ASSERT_NE(begin, std::string::npos) << explain;
  const size_t end = explain.find("  #1  ", begin);
  std::vector<std::string> steps;
  std::istringstream block(explain.substr(begin, end - begin));
  for (std::string line; std::getline(block, line);) {
    const size_t step = line.find("group ");
    if (step != std::string::npos) {
      steps.push_back(line.substr(step, line.find("  est") - step));
    }
  }
  EXPECT_EQ(steps, (std::vector<std::string>{
                       "group 0 step 0: pattern 0",
                       "group 0 step 1: pattern 1",
                       "group 1 step 0: pattern 0",
                   }))
      << explain;
}

// ---------------------------------------------------------------------------
// QaServer admin plane.

QaServerOptions IntrospectionOptions() {
  QaServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  options.trace_sample_every = 1;  // Sample everything (test determinism).
  options.trace_sample_per_sec = 0.0;
  options.slow_question_ms = 0.0;  // Record everything.
  options.admin_port = 0;          // Ephemeral.
  return options;
}

// A socket connected to 127.0.0.1:port, or -1.
int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One-shot HTTP/1.0 GET against 127.0.0.1:port.
std::string HttpGet(int port, const std::string& path) {
  int fd = ConnectLoopback(port);
  if (fd < 0) return {};
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buffer[4096];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(AdminPlaneTest, EndpointsServeMetricsStatsAndSlow) {
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanEngine engine(ServingConfig());
  QaServer server(&engine, &endpoint, IntrospectionOptions());
  ASSERT_GT(server.admin_port(), 0);

  auto response = server.Ask("Who is the spouse of Barack Obama?");
  ASSERT_TRUE(response.ok()) << response.status();

  // Routing without sockets.
  AdminResponse health = server.HandleAdmin("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  AdminResponse metrics = server.HandleAdmin("/metrics");
  EXPECT_EQ(metrics.status, 200);
  CheckPrometheusText(metrics.body);
  EXPECT_NE(metrics.body.find("kgqan_serve_admitted_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("kgqan_serve_traces_sampled_total"),
            std::string::npos);

  AdminResponse stats = server.HandleAdmin("/stats");
  EXPECT_EQ(stats.status, 200);
  JsonChecker stats_checker(stats.body);
  EXPECT_TRUE(stats_checker.Valid()) << stats.body;
  EXPECT_NE(stats.body.find("\"traces_sampled\":1"), std::string::npos)
      << stats.body;

  AdminResponse slow = server.HandleAdmin("/slow");
  EXPECT_EQ(slow.status, 200);
  ExpectValidJsonLines(slow.body);
  EXPECT_NE(slow.body.find("spouse of Barack Obama"), std::string::npos);

  EXPECT_EQ(server.HandleAdmin("/nope").status, 404);

  // And through the real socket: status line, header framing, same body
  // family.
  std::string raw = HttpGet(server.admin_port(), "/metrics");
  EXPECT_EQ(raw.rfind("HTTP/1.0 200", 0), 0u) << raw.substr(0, 64);
  EXPECT_NE(raw.find("Content-Length:"), std::string::npos);
  EXPECT_NE(raw.find("kgqan_serve_admitted_total"), std::string::npos);
  EXPECT_EQ(HttpGet(server.admin_port(), "/healthz").rfind("HTTP/1.0 200", 0),
            0u);
  EXPECT_EQ(HttpGet(server.admin_port(), "/nope").rfind("HTTP/1.0 404", 0),
            0u);

  server.Shutdown();
  // The listener is down after shutdown.
  EXPECT_TRUE(HttpGet(server.admin_port(), "/healthz").empty());
}

// Scrapers that hang up before reading the response must not take the
// server down: every reset below makes the listener's send fail, which
// without MSG_NOSIGNAL raises SIGPIPE and kills the process.
TEST(AdminPlaneTest, ClientsThatResetBeforeReadingDoNotKillTheServer) {
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanEngine engine(ServingConfig());
  QaServer server(&engine, &endpoint, IntrospectionOptions());
  ASSERT_GT(server.admin_port(), 0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  for (int i = 0; i < 50; ++i) {
    int fd = ConnectLoopback(server.admin_port());
    ASSERT_GE(fd, 0);
    (void)!::write(fd, request.data(), request.size());
    if (i % 2 == 0) {
      // Abortive close: an RST instead of a FIN.
      linger hard{1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    }
    ::close(fd);
  }
  EXPECT_EQ(HttpGet(server.admin_port(), "/healthz").rfind("HTTP/1.0 200", 0),
            0u);
  server.Shutdown();
}

// A client that connects and sends nothing holds the accept thread only
// until the connection's receive timeout, so Shutdown returns.
TEST(AdminPlaneTest, ShutdownReturnsWithASilentClientConnected) {
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanEngine engine(ServingConfig());
  QaServer server(&engine, &endpoint, IntrospectionOptions());
  ASSERT_GT(server.admin_port(), 0);
  int silent = ConnectLoopback(server.admin_port());
  ASSERT_GE(silent, 0);
  // Let the accept thread take the connection and block reading it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::future<void> shutdown =
      std::async(std::launch::async, [&server] { server.Shutdown(); });
  const bool returned = shutdown.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  // Half-closing the client unblocks a listener that waits on it forever,
  // so the test fails instead of hanging.
  ::shutdown(silent, SHUT_WR);
  shutdown.get();
  ::close(silent);
  EXPECT_TRUE(returned) << "Shutdown blocked on a silent admin client";
}

TEST(AdminPlaneTest, StatsCountersTrackSamplingAndRecording) {
  sparql::Endpoint endpoint("mini", MiniKg());
  core::KgqanEngine engine(ServingConfig());
  QaServerOptions options = IntrospectionOptions();
  options.trace_sample_every = 2;  // Sample half.
  options.admin_port = -1;         // Plane works without the listener too.
  QaServer server(&engine, &endpoint, options);
  for (int i = 0; i < 4; ++i) {
    auto response = server.Ask("What is the capital of France?");
    ASSERT_TRUE(response.ok()) << response.status();
  }
  server.Drain();
  QaServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.traces_sampled, 2u);
  EXPECT_EQ(stats.flight_records, 4u);  // Threshold 0 → record everything.
  ASSERT_NE(server.flight_recorder(), nullptr);
  auto snapshot = server.flight_recorder()->Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  // Sampled records carry span trees and trace ids; unsampled ones don't.
  size_t with_spans = 0;
  for (const auto& record : snapshot) {
    if (!record->spans.empty()) {
      ++with_spans;
      EXPECT_NE(record->trace_id, 0u);
      EXPECT_FALSE(record->top_sparql.empty());
    }
  }
  EXPECT_EQ(with_spans, 2u);
  server.Shutdown();
}

// The acceptance scenario: a deadline-exceeded question must be
// retrievable from the flight recorder (and /slow) with a span tree and
// the SPARQL of its top candidate.  So the expiry has to land after BGP
// generation, while a candidate query's exchange is in flight.  Every
// exchange carries 25 ms of injected latency, and the walk is steered by
// counting exchanges rather than by fixed wall-clock offsets: each
// attempt reads back how many exchanges the question issued before its
// expiry and moves the deadline by the exchanges it missed by, so a slow
// host shifts the walk instead of exhausting it.
TEST(AdminPlaneTest, DeadlineExceededQuestionRetrievableFromSlow) {
  const std::string question = "Who is the spouse of Barack Obama?";

  // Count the exchanges on a latency-free endpoint: `requests` linking
  // exchanges, then the candidate executions.  Both counts are
  // latency-independent.
  size_t requests = 0;
  size_t exchanges = 0;
  {
    sparql::Endpoint endpoint("mini", MiniKg());
    core::KgqanEngine engine(ServingConfig());
    core::KgqanResult result = engine.AnswerFull(question, endpoint);
    ASSERT_TRUE(result.response.understood);
    requests = result.linking_requests;
    exchanges = endpoint.query_count();
    ASSERT_GT(requests, 0u);
    ASSERT_GT(exchanges, requests);
  }

  constexpr double kLatencyMs = 25.0;
  // First aim: halfway through the first candidate exchange.
  double deadline_ms = (static_cast<double>(requests) + 0.5) * kLatencyMs;
  bool found = false;
  for (int attempt = 0; attempt < 6 && !found; ++attempt) {
    sparql::Endpoint endpoint("mini", MiniKg());
    endpoint.set_injected_latency_ms(kLatencyMs);
    core::KgqanEngine engine(ServingConfig());
    QaServer server(&engine, &endpoint, IntrospectionOptions());
    auto response = server.Ask(question, deadline_ms);
    ASSERT_TRUE(response.ok()) << response.status();
    server.Drain();
    if (!response->deadline_exceeded) {
      // Expired too late: aim halfway into this run's last exchange, a
      // candidate execution.
      deadline_ms = response->total_ms - 0.5 * kLatencyMs;
      continue;
    }
    ASSERT_NE(server.flight_recorder(), nullptr);
    for (const auto& record : server.flight_recorder()->Snapshot()) {
      if (record->status != "deadline_exceeded") continue;
      if (record->spans.empty() || record->top_sparql.empty()) continue;
      found = true;
      EXPECT_NE(record->trace_id, 0u);
      EXPECT_EQ(record->question, question);
      // The span tree reaches from the question root into the pipeline.
      bool has_root = false;
      for (const obs::SpanRecord& span : record->spans) {
        if (span.name == "question") has_root = true;
      }
      EXPECT_TRUE(has_root);
      EXPECT_NE(record->top_sparql.find("SELECT"), std::string::npos)
          << record->top_sparql;
      // And it is served through /slow.
      std::string slow = server.HandleAdmin("/slow").body;
      ExpectValidJsonLines(slow);
      EXPECT_NE(slow.find("deadline_exceeded"), std::string::npos);
    }
    // If not found, the expiry fell elsewhere, typically during linking.
    // `issued` counts the exchanges started before it, the last being the
    // one it interrupted; shift by the difference to the first candidate
    // exchange, number requests + 1.
    const size_t issued = endpoint.query_count();
    deadline_ms += (static_cast<double>(requests + 1) -
                    static_cast<double>(issued)) *
                   kLatencyMs;
    server.Shutdown();
  }
  EXPECT_TRUE(found)
      << "no attempt landed the expiry between BGP generation and "
         "execution completion";
}

}  // namespace
}  // namespace kgqan::serve
