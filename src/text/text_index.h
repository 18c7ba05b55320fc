// Inverted full-text index over the string literals of a triple store.
//
// This plays the role of the built-in text index that "all modern RDF
// engines, such as Virtuoso, Stardog, and Apache Jena, construct by
// default" [44], which the paper's JIT linker queries through the
// `bif:contains` magic predicate.

#ifndef KGQAN_TEXT_TEXT_INDEX_H_
#define KGQAN_TEXT_TEXT_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/term_dictionary.h"
#include "store/triple_store.h"
#include "util/status.h"

namespace kgqan::text {

// A parsed boolean containment expression in Virtuoso `bif:contains` style:
// an OR of AND-groups of words, e.g. `'danish' AND 'straits' OR
// 'kaliningrad'` = [{danish, straits}, {kaliningrad}].
struct ContainsQuery {
  std::vector<std::vector<std::string>> or_groups;
};

// Parses a bif:contains expression.  Words may be bare or single-quoted;
// `AND` / `OR` are case-insensitive; AND binds tighter than OR.
util::StatusOr<ContainsQuery> ParseContainsQuery(std::string_view expr);

class TextIndex {
 public:
  // Indexes every string literal that occurs as the object of some triple
  // in `store`.
  explicit TextIndex(const store::TripleStore& store);

  TextIndex(const TextIndex&) = delete;
  TextIndex& operator=(const TextIndex&) = delete;

  // Brings the index up to date after `store.Insert` added `inserted`:
  // indexes the literals those triples made objects for the first time,
  // and nothing else, so the cost follows the delta rather than the KG.
  // Pre-condition: the index matched the store just before that insert
  // (built from it, or kept current by Add); it then equals a fresh
  // TextIndex(store).  Returns the number of literals
  // indexed.
  size_t Add(const store::TripleStore& store,
             const std::vector<rdf::Triple>& inserted);

  // Returns ids of literal terms satisfying `query`, ranked by how many
  // distinct query words the literal contains (descending), truncated to
  // `limit`.  The ranking makes maxVR truncation keep the best candidates,
  // as a relevance-ordered text index would.
  std::vector<rdf::TermId> MatchLiterals(const ContainsQuery& query,
                                         size_t limit) const;

  // Number of indexed (token -> literal) postings.
  size_t posting_count() const { return posting_count_; }

  // Approximate heap footprint of the index in bytes.
  size_t ApproxIndexBytes() const;

 private:
  // Adds literal `id`'s postings if it is a plain/xsd:string or
  // language-tagged literal; returns whether it was indexed.  The one
  // indexing routine, shared by the constructor and Add.
  bool IndexLiteral(const rdf::Term& term, rdf::TermId id);

  // token -> sorted unique literal term ids.
  std::unordered_map<std::string, std::vector<rdf::TermId>> postings_;
  size_t posting_count_ = 0;
};

}  // namespace kgqan::text

#endif  // KGQAN_TEXT_TEXT_INDEX_H_
