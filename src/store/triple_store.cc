#include "store/triple_store.h"

#include <array>
#include <limits>

namespace kgqan::store {

TripleStore::TripleStore(rdf::Graph graph) : graph_(std::move(graph)) {
  std::vector<Triple> base(graph_.triples().begin(), graph_.triples().end());
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());
  indexes_[0] = std::move(base);  // SPO is the canonical sort order.
  for (size_t i = 1; i < kNumPerms; ++i) {
    indexes_[i] = indexes_[0];
    WithPerm(static_cast<Perm>(i), [&](auto tag) {
      std::sort(indexes_[i].begin(), indexes_[i].end(),
                PermLess<decltype(tag)::value>{});
    });
  }
}

size_t TripleStore::Insert(
    const std::vector<std::array<rdf::Term, 3>>& triples,
    std::vector<Triple>* inserted) {
  // Intern and deduplicate the batch against the existing store.
  std::vector<Triple> fresh;
  fresh.reserve(triples.size());
  for (const auto& t : triples) {
    Triple id_triple{graph_.dictionary().Intern(t[0]),
                     graph_.dictionary().Intern(t[1]),
                     graph_.dictionary().Intern(t[2])};
    if (!Contains(id_triple.s, id_triple.p, id_triple.o)) {
      fresh.push_back(id_triple);
    }
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  for (size_t i = 0; i < kNumPerms && !fresh.empty(); ++i) {
    WithPerm(static_cast<Perm>(i), [&](auto tag) {
      const PermLess<decltype(tag)::value> less;
      std::vector<Triple> batch = fresh;
      std::sort(batch.begin(), batch.end(), less);
      // Merge backward into the grown vector: the largest remaining triple
      // of either run goes to the back.  Keys are unique (the batch holds
      // only absent triples), so the order is strict.
      std::vector<Triple>& index = indexes_[i];
      size_t a = index.size(), b = batch.size();
      index.resize(a + b);
      for (size_t out = a + b; b > 0;) {
        if (a > 0 && less(batch[b - 1], index[a - 1])) {
          index[--out] = index[--a];
        } else {
          index[--out] = batch[--b];
        }
      }
    });
  }
  const size_t added = fresh.size();
  if (inserted != nullptr) *inserted = std::move(fresh);
  return added;
}

ScanRange TripleStore::Locate(TermId s, TermId p, TermId o) const {
  const bool bs = s != kNullTermId;
  const bool bp = p != kNullTermId;
  const bool bo = o != kNullTermId;

  // Pick a permutation whose key prefix covers the bound components.
  Perm perm;
  if (bs && (bp || !bo)) {
    perm = Perm::kSpo;  // (s, p, o), (s, p) or s alone.
  } else if (bs) {
    perm = Perm::kSop;  // (s, o).
  } else if (bp && bo) {
    perm = Perm::kPos;
  } else if (bp) {
    perm = Perm::kPso;
  } else if (bo) {
    perm = Perm::kOsp;
  } else {
    return ScanRange{Perm::kSpo, 0, indexes_[0].size()};
  }

  // The unbound components are kNullTermId (0, below every id), so the
  // probe's own key is the least key with the bound prefix; with them set
  // to the largest id it is the greatest.  The range between the two is
  // exactly the triples whose prefix matches.
  constexpr TermId kMaxId = std::numeric_limits<TermId>::max();
  const Triple least{s, p, o};
  const Triple greatest{bs ? s : kMaxId, bp ? p : kMaxId, bo ? o : kMaxId};
  const std::vector<Triple>& idx = indexes_[static_cast<size_t>(perm)];
  return WithPerm(perm, [&](auto tag) {
    constexpr Perm kPerm = decltype(tag)::value;
    const PermKey lo_key = KeyOf<kPerm>(least);
    const PermKey hi_key = KeyOf<kPerm>(greatest);
    auto lo = std::lower_bound(idx.begin(), idx.end(), lo_key,
                               [](const Triple& t, const PermKey& key) {
                                 return KeyOf<kPerm>(t) < key;
                               });
    auto hi = std::upper_bound(lo, idx.end(), hi_key,
                               [](const PermKey& key, const Triple& t) {
                                 return key < KeyOf<kPerm>(t);
                               });
    return ScanRange{kPerm, static_cast<size_t>(lo - idx.begin()),
                     static_cast<size_t>(hi - idx.begin())};
  });
}

std::vector<Triple> TripleStore::MatchAll(TermId s, TermId p, TermId o,
                                          size_t limit) const {
  std::vector<Triple> out;
  Match(s, p, o, [&](const Triple& t) {
    out.push_back(t);
    return out.size() < limit;
  });
  return out;
}

size_t TripleStore::CountMatches(TermId s, TermId p, TermId o) const {
  // The located range is exact (no residual filtering needed) whenever the
  // bound components form the permutation prefix, which Locate guarantees.
  auto [perm, lo, hi] = Locate(s, p, o);
  (void)perm;
  return hi - lo;
}

bool TripleStore::Contains(TermId s, TermId p, TermId o) const {
  return CountMatches(s, p, o) > 0;
}

}  // namespace kgqan::store
