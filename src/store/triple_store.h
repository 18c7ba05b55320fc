// In-memory triple store with permutation indexing (after Hexastore [59]).
//
// Five component orderings (SPO, SOP, PSO, POS, OSP) are kept as sorted
// arrays, so any triple pattern with any subset of bound components is
// answered by a binary search plus a contiguous scan — the "traditional
// lookup" indices that Sec. 5.2 of the paper relies on for the
// outgoingPredicate / incomingPredicate queries.  Hexastore's sixth order,
// OPS, is not kept: OSP already covers every object-only lookup, and
// (object, predicate) lookups use POS.

#ifndef KGQAN_STORE_TRIPLE_STORE_H_
#define KGQAN_STORE_TRIPLE_STORE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <tuple>
#include <vector>

#include "rdf/graph.h"
#include "rdf/term_dictionary.h"

namespace kgqan::store {

using rdf::kNullTermId;
using rdf::TermId;
using rdf::Triple;

// Identifiers for the five permutations.  The enum value is the index into
// the internal index array.
enum class Perm : uint8_t { kSpo = 0, kSop, kPso, kPos, kOsp };

inline constexpr size_t kNumPerms = 5;

// Key extractor per permutation: the (k1, k2, k3) sort key of a triple in
// that index.  Keys are unique within one triple set (a permutation key
// permutes all three components of a distinct triple), so every index
// order is total.
inline std::tuple<TermId, TermId, TermId> PermKey(Perm perm, const Triple& t) {
  switch (perm) {
    case Perm::kSpo:
      return {t.s, t.p, t.o};
    case Perm::kSop:
      return {t.s, t.o, t.p};
    case Perm::kPso:
      return {t.p, t.s, t.o};
    case Perm::kPos:
      return {t.p, t.o, t.s};
    case Perm::kOsp:
      return {t.o, t.s, t.p};
  }
  return {0, 0, 0};
}

struct PermLess {
  Perm perm;
  bool operator()(const Triple& a, const Triple& b) const {
    return PermKey(perm, a) < PermKey(perm, b);
  }
};

// A contiguous run of candidate triples in one permutation index: the
// sorted [lo, hi) range whose key prefix matches a lookup pattern.  Every
// triple pattern lookup reduces to one of these, and its size() is the
// planner's cardinality estimate.
struct ScanRange {
  Perm perm = Perm::kSpo;
  size_t lo = 0;
  size_t hi = 0;

  size_t size() const { return hi - lo; }
  bool empty() const { return hi <= lo; }
};

class TripleStore {
 public:
  // Takes ownership of `graph`; duplicates are removed while indexing.
  explicit TripleStore(rdf::Graph graph);

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  TripleStore(TripleStore&&) = default;
  TripleStore& operator=(TripleStore&&) = default;

  const rdf::TermDictionary& dictionary() const { return graph_.dictionary(); }
  rdf::TermDictionary& mutable_dictionary() { return graph_.dictionary(); }

  // Number of distinct triples.
  size_t size() const { return indexes_[0].size(); }

  // Inserts a batch of triples (terms are interned into the store's
  // dictionary; duplicates are ignored).  Each permutation index grows in
  // place and the sorted batch is merged in from the tail, so only the
  // triples after the first insertion point move.  Returns the number of
  // genuinely new triples; if `inserted` is non-null it receives them in
  // SPO order.
  size_t Insert(const std::vector<std::array<rdf::Term, 3>>& triples,
                std::vector<Triple>* inserted = nullptr);

  // Calls `fn(triple)` for every triple matching the pattern; kNullTermId
  // components are wildcards.  `fn` returns false to stop early.
  template <typename Fn>
  void Match(TermId s, TermId p, TermId o, Fn&& fn) const {
    MatchRange(Locate(s, p, o), s, p, o, std::forward<Fn>(fn));
  }

  // Match restricted to `range` (a Locate() result for the same
  // pattern).  Triples are visited in index order.
  template <typename Fn>
  void MatchRange(const ScanRange& range, TermId s, TermId p, TermId o,
                  Fn&& fn) const {
    const std::vector<Triple>& idx = indexes_[static_cast<size_t>(range.perm)];
    for (size_t i = range.lo; i < range.hi; ++i) {
      const Triple& t = idx[i];
      // Residual check: components bound but not part of the located prefix.
      if (s != kNullTermId && t.s != s) continue;
      if (p != kNullTermId && t.p != p) continue;
      if (o != kNullTermId && t.o != o) continue;
      if (!fn(t)) return;
    }
  }

  // Chooses the best permutation for the bound-component combination and
  // returns the sorted [lo, hi) candidate range in that index.  The range
  // is exact: every covered triple matches the pattern.
  ScanRange Locate(TermId s, TermId p, TermId o) const;

  // Collects up to `limit` matching triples.
  std::vector<Triple> MatchAll(TermId s, TermId p, TermId o,
                               size_t limit = SIZE_MAX) const;

  // Number of matching triples.
  size_t CountMatches(TermId s, TermId p, TermId o) const;

  // Cardinality estimate for the pattern: the located range width in the
  // best permutation, i.e. two binary searches and no scan.  Exact whenever
  // the bound components form that permutation's key prefix — which
  // Locate() guarantees for every bound-component subset — so this equals
  // CountMatches() but names the planner's contract: an O(log n)
  // per-permutation range size, never a residual-filtered count.
  size_t EstimateMatches(TermId s, TermId p, TermId o) const {
    return Locate(s, p, o).size();
  }

  // True if the fully bound triple exists.
  bool Contains(TermId s, TermId p, TermId o) const;

  // Approximate bytes held by the store: the actual capacity of each of
  // the five permutation indexes plus the term dictionary.  O(1).
  size_t ApproxIndexBytes() const {
    size_t bytes = graph_.dictionary().ApproxBytes();
    for (const std::vector<Triple>& index : indexes_) {
      bytes += index.capacity() * sizeof(Triple);
    }
    return bytes;
  }

 private:
  rdf::Graph graph_;
  // indexes_[Perm]; each holds all triples sorted in that key order.
  std::array<std::vector<Triple>, kNumPerms> indexes_;
};

}  // namespace kgqan::store

#endif  // KGQAN_STORE_TRIPLE_STORE_H_
