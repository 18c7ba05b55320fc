#include "layers.h"

#include <fstream>

#include "obs/chrome_trace.h"
#include "sparql/parser.h"

namespace kgqabench {

namespace core = kgqan::core;

int64_t NowNs() {
  static const auto kStart = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kStart)
      .count();
}

size_t SpanLog::BeginQuestion(std::string label) {
  questions_.push_back(Question{std::move(label), {}});
  return questions_.size() - 1;
}

size_t SpanLog::Add(size_t question, std::string name, int64_t start_ns,
                    int64_t end_ns, size_t parent) {
  auto& spans = questions_[question].spans;
  kgqan::obs::SpanRecord span;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.duration_ns = end_ns - start_ns;
  span.parent = parent;
  span.attributes = {
      {"qid", std::to_string(question)},
      {"span", std::to_string(spans.size())},
      {"parent", parent == kgqan::obs::kNoSpan ? "-" : std::to_string(parent)}};
  spans.push_back(std::move(span));
  return spans.size() - 1;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  for (size_t q = 0; q < questions_.size(); ++q) {
    const uint32_t pid = static_cast<uint32_t>(q + 1);
    kgqan::obs::WriteChromeProcessName(questions_[q].label, pid, out);
    kgqan::obs::WriteChromeSpans(questions_[q].spans, pid, "", out);
  }
  return static_cast<bool>(out);
}

namespace {

kgqan::qu::TriplePatternGenerator::Options WithoutShim(
    kgqan::qu::TriplePatternGenerator::Options options) {
  options.inference.enabled = false;
  return options;
}

double Ms(int64_t start_ns, int64_t end_ns) {
  return double(end_ns - start_ns) / 1e6;
}

}  // namespace

LayerReplayer::LayerReplayer(const core::KgqanEngine& engine)
    : engine_(engine),
      linker_(&engine.config(), &engine.affinity()),
      bgp_(&engine.config()),
      plain_qu_(WithoutShim(engine.config().qu)) {}

void LayerReplayer::Replay(const std::string& text,
                           const core::KgqanResult& result, double answer_ms,
                           kgqan::sparql::Endpoint& endpoint, SpanLog& log,
                           size_t question, size_t root,
                           LayerSamples& s) const {
  const core::KgqanConfig& config = engine_.config();
  // Time spent in the layers that together make up AnswerFull.  The text
  // probe and affinity spans re-split linking.entity, and with the shim on
  // qu.extract re-splits qu.extract+shim; those are not added.
  double replayed = 0.0;
  auto timed = [&](const char* name, auto&& fn, bool covers) {
    const int64_t start = NowNs();
    fn();
    const int64_t end = NowNs();
    log.Add(question, name, start, end, root);
    if (covers) replayed += Ms(start, end);
    return Ms(start, end);
  };

  s.questions += 1;
  s.answered_ms += answer_ms;
  if (!result.response.understood) s.qu_failed += 1;
  s.requests.push_back(double(result.linking_requests));
  s.round_trips.push_back(double(result.linking_round_trips));

  const bool shim = config.qu.inference.enabled;
  const double extract_ms =
      timed("qu.extract", [&] { plain_qu_.Extract(text); }, !shim);
  s.extract_ms.push_back(extract_ms);
  if (shim) {
    const double with_shim_ms = timed(
        "qu.extract+shim", [&] { engine_.generator().Extract(text); }, true);
    s.shim_ms.push_back(with_shim_ms - extract_ms);
  }
  s.answer_type_us.push_back(
      1000.0 *
      timed("nlp.answer_type", [&] { answer_type_.Predict(text); }, true));

  const auto& nodes = result.pgp.nodes();
  double pairs = 0.0;
  for (size_t i = 0; i < nodes.size() && i < result.agp.node_vertices.size();
       ++i) {
    if (nodes[i].is_unknown || nodes[i].label.empty()) continue;
    const std::string& label = nodes[i].label;
    s.entity_ms.push_back(timed(
        "linking.entity", [&] { linker_.LinkEntity(label, endpoint); }, true));

    std::vector<std::string> descriptions;
    s.probe_ms.push_back(timed(
        "text.probe",
        [&] {
          auto rs = endpoint.Query(
              core::JitLinker::PotentialRelevantVerticesQuery(
                  label, config.max_fetched_vertices));
          if (!rs.ok()) return;
          auto v_col = rs->ColumnIndex("v");
          auto d_col = rs->ColumnIndex("d");
          if (!v_col || !d_col) return;
          for (size_t r = 0; r < rs->NumRows(); ++r) {
            const auto& v = rs->At(r, *v_col);
            const auto& d = rs->At(r, *d_col);
            if (v && d && v->IsIri()) descriptions.push_back(d->value);
          }
        },
        false));
    s.probe_rows.push_back(double(descriptions.size()));

    double checksum = 0.0;
    const double score_ms = timed(
        "embedding.score",
        [&] {
          for (const std::string& d : descriptions) {
            checksum += engine_.affinity().NormalizedScore(label, d);
          }
        },
        false);
    if (!descriptions.empty()) {
      s.score_us.push_back(1000.0 * score_ms / double(descriptions.size()));
    }
    pairs += double(descriptions.size());
    s.kept += double(result.agp.node_vertices[i].size());
    (void)checksum;
  }
  s.pairs += pairs;
  s.pairs_per_question.push_back(pairs);

  const auto& edges = result.pgp.edges();
  for (size_t e = 0; e < edges.size() && e < result.agp.edge_predicates.size();
       ++e) {
    s.relation_ms.push_back(timed(
        "linking.relation",
        [&] { linker_.LinkRelation(result.agp, edges[e], e, endpoint); },
        true));
  }

  if (result.response.understood) {
    std::vector<core::Bgp> bgps;
    s.bgp_ms.push_back(timed(
        "bgp.generate", [&] { bgps = bgp_.Generate(result.agp); }, true));
    s.queries_generated.push_back(double(result.queries_generated));
    s.generated += double(result.queries_generated);
    s.executed += double(result.queries_executed);

    std::string var;
    if (auto main = result.pgp.MainUnknown(); main.has_value()) {
      var = std::to_string(nodes[*main].var_id);
      var.insert(var.begin(), 'u');
    }
    for (const core::CandidateQueryStats& c : result.candidates) {
      if (!c.executed || c.rank >= bgps.size()) continue;
      if (!result.response.is_boolean && var.empty()) continue;
      const std::string sparql =
          result.response.is_boolean
              ? core::BgpGenerator::ToAskSparql(bgps[c.rank])
              : core::BgpGenerator::ToSelectSparql(bgps[c.rank], var);
      s.parse_us.push_back(
          1000.0 * timed("sparql.parse",
                         [&] { (void)kgqan::sparql::ParseQuery(sparql); },
                         false));
      size_t rows = 0;
      s.candidate_ms.push_back(timed(
          "sparql.candidate",
          [&] {
            auto rs = endpoint.Query(sparql);
            if (rs.ok()) rows = rs->is_ask() ? 1 : rs->NumRows();
          },
          true));
      s.rows_per_candidate.push_back(double(rows));
    }
  }
  s.replayed_ms += replayed;
}

}  // namespace kgqabench
