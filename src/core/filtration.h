// Answer post-filtration (Sec. 6): percolates the answers collected from
// executed queries using the predicted answer data type and — for string
// answers — the predicted semantic type against the answer's rdf:type
// class, entirely outside the RDF engine (KG-independent).

#ifndef KGQAN_CORE_FILTRATION_H_
#define KGQAN_CORE_FILTRATION_H_

#include <optional>
#include <string>
#include <vector>

#include "embedding/affinity.h"
#include "nlp/answer_type.h"
#include "rdf/term.h"

namespace kgqan::core {

// An answer with its (optional) class types retrieved via the OPTIONAL
// <unknown, rdf:type, ?c> clause.
struct CandidateAnswer {
  rdf::Term term;
  std::vector<std::string> class_iris;
};

class Filtration {
 public:
  explicit Filtration(const embed::SemanticAffinity* affinity)
      : affinity_(affinity) {}

  // Returns the answers that survive the data-type / semantic-type checks.
  std::vector<rdf::Term> Filter(
      const std::vector<CandidateAnswer>& candidates,
      const nlp::AnswerTypePrediction& prediction) const;

  // Data-type checks, exposed for tests.
  static bool LooksLikeDate(const rdf::Term& term);
  static bool LooksLikeNumber(const rdf::Term& term);

 private:
  bool SemanticTypeMatches(const CandidateAnswer& answer,
                           const std::string& semantic_type) const;

  const embed::SemanticAffinity* affinity_;
};

}  // namespace kgqan::core

#endif  // KGQAN_CORE_FILTRATION_H_
