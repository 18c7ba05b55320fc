#include "core/filtration.h"

#include <cctype>
#include <cstdlib>

#include "util/string_util.h"

namespace kgqan::core {

namespace {

// Leniency threshold for semantic-type filtering: an answer is dropped
// only if its class label scores below this affinity against the
// predicted semantic type.  Chosen low because semantic types are noisy
// (Sec. 7.3.3: "filtering answers using semantic types is not as
// accurate ... designed to avoid hurting the recall much").
constexpr double kSemanticTypeThreshold = 0.12;

}  // namespace

bool Filtration::LooksLikeDate(const rdf::Term& term) {
  if (!term.IsLiteral()) return false;
  if (term.datatype == rdf::vocab::kXsdDate) return true;
  // Lexical fallback: "YYYY" or "YYYY-MM-DD".
  const std::string& v = term.value;
  if (v.size() != 4 && v.size() != 10) return false;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i == 4 || i == 7) {
      if (v.size() == 10 && v[i] != '-') return false;
      continue;
    }
    if (!std::isdigit(static_cast<unsigned char>(v[i]))) return false;
  }
  return true;
}

bool Filtration::LooksLikeNumber(const rdf::Term& term) {
  if (!term.IsLiteral()) return false;
  if (term.datatype == rdf::vocab::kXsdInteger ||
      term.datatype == rdf::vocab::kXsdDouble) {
    return true;
  }
  const char* begin = term.value.c_str();
  char* end = nullptr;
  std::strtod(begin, &end);
  return end != begin && *end == '\0' && !term.value.empty();
}

bool Filtration::SemanticTypeMatches(const CandidateAnswer& answer,
                                     const std::string& semantic_type) const {
  if (answer.class_iris.empty()) return true;  // No class info: keep.
  if (semantic_type.empty() || semantic_type == "entity") return true;
  // Semantic types and class labels come from small vocabularies, so both
  // go through the affinity's prepared-phrase memo.
  embed::SemanticAffinity::Phrase type_scratch;
  embed::SemanticAffinity::Phrase label_scratch;
  const embed::SemanticAffinity::Phrase& type =
      affinity_->Prepared(semantic_type, &type_scratch);
  double best = 0.0;
  for (const std::string& class_iri : answer.class_iris) {
    std::string label = util::Join(
        util::SplitIdentifierWords(rdf::IriLocalName(class_iri)), " ");
    best = std::max(best, affinity_->Score(
                              type, affinity_->Prepared(label, &label_scratch)));
  }
  return best >= kSemanticTypeThreshold;
}

std::vector<rdf::Term> Filtration::Filter(
    const std::vector<CandidateAnswer>& candidates,
    const nlp::AnswerTypePrediction& prediction) const {
  std::vector<rdf::Term> out;
  for (const CandidateAnswer& cand : candidates) {
    switch (prediction.data_type) {
      case nlp::AnswerDataType::kDate:
        if (LooksLikeDate(cand.term)) out.push_back(cand.term);
        break;
      case nlp::AnswerDataType::kNumerical:
        if (LooksLikeNumber(cand.term)) out.push_back(cand.term);
        break;
      case nlp::AnswerDataType::kBoolean:
        // Boolean questions are answered by ASK queries; any terms that
        // reach here pass through unchanged.
        out.push_back(cand.term);
        break;
      case nlp::AnswerDataType::kString:
        // Handled below (needs the whole candidate set).
        break;
    }
  }
  if (prediction.data_type != nlp::AnswerDataType::kString) return out;

  // String answers: drop raw numbers/dates, then apply the semantic-type
  // check *comparatively* — an answer is dropped for a class mismatch only
  // if some other candidate does match the predicted type.  This keeps the
  // filter from ever emptying the answer set, implementing the paper's
  // "designed to avoid hurting the recall much" (Sec. 7.3.3).
  std::vector<const CandidateAnswer*> string_like;
  for (const CandidateAnswer& cand : candidates) {
    if (LooksLikeNumber(cand.term) || LooksLikeDate(cand.term)) continue;
    string_like.push_back(&cand);
  }
  std::vector<bool> matches(string_like.size());
  bool any_match = false;
  for (size_t i = 0; i < string_like.size(); ++i) {
    matches[i] =
        SemanticTypeMatches(*string_like[i], prediction.semantic_type);
    if (matches[i] && !string_like[i]->class_iris.empty()) any_match = true;
  }
  for (size_t i = 0; i < string_like.size(); ++i) {
    if (any_match && !matches[i]) continue;
    out.push_back(string_like[i]->term);
  }
  return out;
}

}  // namespace kgqan::core
