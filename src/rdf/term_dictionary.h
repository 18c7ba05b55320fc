// Interning dictionary mapping RDF terms to dense 32-bit ids.
//
// All triples are stored as id triples; the dictionary is the single place
// where term strings live.  Id 0 is reserved as the null term.
//
// Stable addresses: the dictionary is append-only and keeps its terms in
// fixed-size chunks that never move, so a `const Term&` from Get() stays
// valid for the life of the dictionary, across any number of later
// Intern() calls and across moves of the dictionary itself.  SPARQL result
// cells (sparql::TermRef) rely on this to point at terms instead of
// copying them.

#ifndef KGQAN_RDF_TERM_DICTIONARY_H_
#define KGQAN_RDF_TERM_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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

  // Terms per storage chunk (a power of two, so Get is a shift and a
  // mask).
  static constexpr size_t kChunkTerms = 1024;

  // Pre-condition: id was returned by Intern (and is not kNullTermId).
  // The reference is stable (see the file comment).
  const Term& Get(TermId id) const {
    return chunks_[id / kChunkTerms][id % kChunkTerms];
  }

  // Number of interned terms (excluding the reserved null slot).
  size_t size() const { return next_id_ - 1; }

  // Approximate heap footprint in bytes (used by Table 2 index sizing):
  // the allocated term chunks plus every term's strings and hash-map
  // node.  O(1): the string and node bytes are a running total kept by
  // Intern (terms are never removed).
  size_t ApproxBytes() const {
    return chunks_.size() * kChunkTerms * sizeof(Term) + string_bytes_;
  }

  // Ids run from 1 to size() inclusive.
  TermId MaxId() const { return static_cast<TermId>(next_id_ - 1); }

 private:
  static std::string EncodeKey(const Term& term);

  // Appends `term` at id next_id_, allocating a chunk when the last is
  // full.
  void Append(const Term& term);

  // Term of id i is chunks_[i / kChunkTerms][i % kChunkTerms]; id 0 is the
  // reserved null slot.  Chunks are never freed or moved.
  std::vector<std::unique_ptr<Term[]>> chunks_;
  size_t next_id_ = 0;                            // Next id to assign.
  std::unordered_map<std::string, TermId> ids_;   // EncodeKey(term) -> id
  size_t string_bytes_ = 0;  // Term strings plus hash-map nodes so far.
};

}  // namespace kgqan::rdf

#endif  // KGQAN_RDF_TERM_DICTIONARY_H_
