#include "store/triple_store.h"

#include <array>
#include <tuple>

namespace kgqan::store {

TripleStore::TripleStore(rdf::Graph graph) : graph_(std::move(graph)) {
  std::vector<Triple> base(graph_.triples().begin(), graph_.triples().end());
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());
  indexes_[0] = std::move(base);  // SPO is the canonical sort order.
  for (size_t i = 1; i < kNumPerms; ++i) {
    indexes_[i] = indexes_[0];
    std::sort(indexes_[i].begin(), indexes_[i].end(),
              PermLess{static_cast<Perm>(i)});
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
    const PermLess less{static_cast<Perm>(i)};
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
  int prefix;  // Number of leading key components that are bound.
  if (bs && bp && bo) {
    perm = Perm::kSpo;
    prefix = 3;
  } else if (bs && bp) {
    perm = Perm::kSpo;
    prefix = 2;
  } else if (bs && bo) {
    perm = Perm::kSop;
    prefix = 2;
  } else if (bp && bo) {
    perm = Perm::kPos;
    prefix = 2;
  } else if (bs) {
    perm = Perm::kSpo;
    prefix = 1;
  } else if (bp) {
    perm = Perm::kPso;
    prefix = 1;
  } else if (bo) {
    perm = Perm::kOsp;
    prefix = 1;
  } else {
    return ScanRange{Perm::kSpo, 0, indexes_[0].size()};
  }

  const std::vector<Triple>& idx = indexes_[static_cast<size_t>(perm)];
  Triple probe{s, p, o};
  auto cmp = [perm, prefix](const Triple& a, const Triple& b) {
    auto ka = PermKey(perm, a);
    auto kb = PermKey(perm, b);
    if (std::get<0>(ka) != std::get<0>(kb)) {
      return std::get<0>(ka) < std::get<0>(kb);
    }
    if (prefix >= 2 && std::get<1>(ka) != std::get<1>(kb)) {
      return std::get<1>(ka) < std::get<1>(kb);
    }
    if (prefix >= 3 && std::get<2>(ka) != std::get<2>(kb)) {
      return std::get<2>(ka) < std::get<2>(kb);
    }
    return false;
  };
  auto lo = std::lower_bound(idx.begin(), idx.end(), probe, cmp);
  auto hi = std::upper_bound(idx.begin(), idx.end(), probe, cmp);
  return ScanRange{perm, static_cast<size_t>(lo - idx.begin()),
                   static_cast<size_t>(hi - idx.begin())};
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
