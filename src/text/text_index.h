// Inverted full-text index over the string literals of a triple store.
//
// This plays the role of the built-in text index that "all modern RDF
// engines, such as Virtuoso, Stardog, and Apache Jena, construct by
// default" [44], which the paper's JIT linker queries through the
// `bif:contains` magic predicate.

#ifndef KGQAN_TEXT_TEXT_INDEX_H_
#define KGQAN_TEXT_TEXT_INDEX_H_

#include <algorithm>
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
  // in `store` (any store backend exposing Match + dictionary(): v1
  // TripleStore or CompactStore).  The store must outlive the index.
  // `dict.Get` may return by reference (v1) or by value (front-coded);
  // the const-reference binding extends a temporary's lifetime either way.
  template <typename StoreT>
  explicit TextIndex(const StoreT& store) {
    std::vector<rdf::TermId> literal_ids;
    store.Match(rdf::kNullTermId, rdf::kNullTermId, rdf::kNullTermId,
                [&](const rdf::Triple& t) {
                  literal_ids.push_back(t.o);
                  return true;
                });
    std::sort(literal_ids.begin(), literal_ids.end());
    literal_ids.erase(std::unique(literal_ids.begin(), literal_ids.end()),
                      literal_ids.end());
    const auto& dict = store.dictionary();
    for (rdf::TermId id : literal_ids) {
      const rdf::Term& term = dict.Get(id);
      IndexLiteral(term, id);
    }
    SortPostings();
  }

  TextIndex(const TextIndex&) = delete;
  TextIndex& operator=(const TextIndex&) = delete;

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
  // Adds `term`'s tokens to the postings iff it is an indexable literal.
  void IndexLiteral(const rdf::Term& term, rdf::TermId id);
  // Sorts every posting list (construction postlude).
  void SortPostings();

  // token -> sorted unique literal term ids.
  std::unordered_map<std::string, std::vector<rdf::TermId>> postings_;
  size_t posting_count_ = 0;
};

}  // namespace kgqan::text

#endif  // KGQAN_TEXT_TEXT_INDEX_H_
