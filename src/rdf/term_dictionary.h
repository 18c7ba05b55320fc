// Interning dictionary mapping RDF terms to dense 32-bit ids.
//
// All triples are stored as id triples; the dictionary is the single place
// where term strings live.  Id 0 is reserved as the null term.

#ifndef KGQAN_RDF_TERM_DICTIONARY_H_
#define KGQAN_RDF_TERM_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"

namespace kgqan::rdf {

using TermId = uint32_t;

// Reserved invalid id.
inline constexpr TermId kNullTermId = 0;

class TermDictionary {
 public:
  TermDictionary();

  TermDictionary(const TermDictionary&) = delete;
  TermDictionary& operator=(const TermDictionary&) = delete;
  TermDictionary(TermDictionary&&) = default;
  TermDictionary& operator=(TermDictionary&&) = default;

  // Returns the id of `term`, inserting it if not present.
  TermId Intern(const Term& term);

  // Returns the id of `term` if present.
  std::optional<TermId> Find(const Term& term) const;
  std::optional<TermId> FindIri(std::string_view iri) const;

  // Pre-condition: id was returned by Intern (and is not kNullTermId).
  const Term& Get(TermId id) const { return terms_[id]; }

  // Number of interned terms (excluding the reserved null slot).
  size_t size() const { return terms_.size() - 1; }

  // Approximate heap footprint in bytes (used by Table 2 index sizing):
  // the term vector's capacity plus every term's strings and hash-map
  // node.  O(1): the string and node bytes are a running total kept by
  // Intern (terms are never removed).
  size_t ApproxBytes() const {
    return terms_.capacity() * sizeof(Term) + string_bytes_;
  }

  // Ids run from 1 to size() inclusive.
  TermId MaxId() const { return static_cast<TermId>(terms_.size() - 1); }

 private:
  static std::string EncodeKey(const Term& term);

  std::vector<Term> terms_;                       // index = TermId
  std::unordered_map<std::string, TermId> ids_;   // EncodeKey(term) -> id
  size_t string_bytes_ = 0;  // Term strings plus hash-map nodes so far.
};

}  // namespace kgqan::rdf

#endif  // KGQAN_RDF_TERM_DICTIONARY_H_
