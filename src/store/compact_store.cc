#include "store/compact_store.h"

#include <cstring>
#include <iterator>
#include <utility>

#include "util/thread_pool.h"

namespace kgqan::store {

namespace {

// Snapshot section ids: permutation p owns p*4 + {keys, offsets, blocks,
// stream}; the dictionary and store metadata live above the perm range.
constexpr uint32_t kSecKeys = 0;
constexpr uint32_t kSecOffsets = 1;
constexpr uint32_t kSecBlocks = 2;
constexpr uint32_t kSecStream = 3;
constexpr uint32_t kSecDictPool = 100;
constexpr uint32_t kSecDictBuckets = 101;
constexpr uint32_t kSecDictSortedToId = 102;
constexpr uint32_t kSecDictIdToSorted = 103;
constexpr uint32_t kSecMeta = 200;

// Prefix comparison of v1's Locate, over the overlay's Triple storage.
struct OverlayPrefixLess {
  Perm perm;
  int prefix;
  bool operator()(const Triple& a, const Triple& b) const {
    const auto ka = PermKey(perm, a);
    const auto kb = PermKey(perm, b);
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
  }
};

std::pair<size_t, size_t> OverlayEqualRange(const std::vector<Triple>& ov,
                                            Perm perm, int prefix,
                                            const Triple& probe) {
  const auto [lo, hi] = std::equal_range(ov.begin(), ov.end(), probe,
                                         OverlayPrefixLess{perm, prefix});
  return {static_cast<size_t>(lo - ov.begin()),
          static_cast<size_t>(hi - ov.begin())};
}

}  // namespace

CompactStore::CompactStore(rdf::Graph graph, size_t build_threads)
    : dict_(graph.dictionary()) {
  BuildFrom({graph.triples().begin(), graph.triples().end()}, build_threads);
}

CompactStore::PermIndex CompactStore::EncodePerm(
    Perm perm, const std::vector<Triple>& sorted) {
  std::vector<TermId> keys;
  std::vector<uint32_t> offsets;
  std::vector<uint64_t> blocks;
  std::vector<uint8_t> stream;
  blocks.reserve(sorted.size() / kBlock + 1);

  TermId prev_k2 = 0;
  TermId prev_k3 = 0;
  for (size_t e = 0; e < sorted.size(); ++e) {
    const auto [k1, k2, k3] = PermKey(perm, sorted[e]);
    const bool run_start = keys.empty() || k1 != keys.back();
    if (run_start) {
      keys.push_back(k1);
      offsets.push_back(static_cast<uint32_t>(e));
    }
    if (e % kBlock == 0) blocks.push_back(stream.size());
    if (run_start || e % kBlock == 0) {
      util::AppendVarint(&stream, k2);
      util::AppendVarint(&stream, k3);
    } else {
      const uint64_t d2 = k2 - prev_k2;
      util::AppendVarint(&stream, d2);
      util::AppendVarint(&stream, d2 != 0 ? k3 : k3 - prev_k3);
    }
    prev_k2 = k2;
    prev_k3 = k3;
  }
  offsets.push_back(static_cast<uint32_t>(sorted.size()));

  PermIndex pi;
  keys.shrink_to_fit();
  stream.shrink_to_fit();
  pi.keys.Own(std::move(keys));
  pi.offsets.Own(std::move(offsets));
  pi.blocks.Own(std::move(blocks));
  pi.stream.Own(std::move(stream));
  return pi;
}

void CompactStore::BuildFrom(std::vector<Triple> base, size_t build_threads) {
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());

  std::array<PermIndex, 6> built;
  auto build_one = [&](size_t i) {
    const Perm perm = static_cast<Perm>(i);
    if (perm == Perm::kSpo) {
      // The natural Triple order is the SPO key order.
      built[i] = EncodePerm(perm, base);
    } else {
      std::vector<Triple> copy = base;
      std::sort(copy.begin(), copy.end(), PermLess{perm});
      built[i] = EncodePerm(perm, copy);
    }
  };
  if (build_threads > 1) {
    util::ThreadPool pool(std::min<size_t>(build_threads, 6) - 1);
    util::ParallelFor(&pool, 6, build_one);
  } else {
    for (size_t i = 0; i < 6; ++i) build_one(i);
  }

  base_total_ = base.size();
  perms_ = std::move(built);
  mapping_ = SnapshotReader();
}

std::vector<Triple> CompactStore::DecodeAll() const {
  std::vector<Triple> out;
  out.reserve(base_total_);
  if (base_total_ == 0) return out;
  Cursor cur;
  cur.Seek(perms_[0], 0);
  for (size_t e = 0; e < base_total_; ++e) {
    cur.Step();
    out.push_back({cur.k1(), cur.k2, cur.k3});  // SPO: key order is (s,p,o)
  }
  return out;
}

uint64_t CompactStore::CompositeAtBlock(const PermIndex& pi, size_t b) {
  size_t pos = pi.blocks[b];
  const uint64_t k2 = util::ReadVarint(pi.stream.data(), &pos);
  const uint64_t k3 = util::ReadVarint(pi.stream.data(), &pos);
  return (k2 << 32) | k3;
}

size_t CompactStore::LowerBoundEntry(const PermIndex& pi, size_t run,
                                     size_t rlo, size_t rhi,
                                     uint64_t target) {
  if (rlo >= rhi) return rlo;
  // Binary search over block-first entries strictly inside (rlo, rhi):
  // each is absolutely encoded at a known byte offset, so probing is O(1).
  const size_t b_lo = rlo / kBlock + 1;
  const size_t b_hi = std::max(b_lo, (rhi + kBlock - 1) / kBlock);
  size_t lo = b_lo;
  size_t hi = b_hi;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompositeAtBlock(pi, mid) >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // Blocks below `lo` start < target: scan forward from the latest known
  // position, bounded by the next block start (or the slice end).  The
  // slice lies in run `run`, so the cursor lands without a run search.
  const size_t start = lo == b_lo ? rlo : (lo - 1) * kBlock;
  const size_t cap = lo < b_hi ? std::min(rhi, lo * kBlock) : rhi;
  Cursor cur;
  cur.SeekHinted(pi, start, run);
  for (size_t e = start; e < cap; ++e) {
    cur.Step();
    const uint64_t composite =
        (static_cast<uint64_t>(cur.k2) << 32) | cur.k3;
    if (composite >= target) return e;
  }
  return cap;
}

CompactScanRange CompactStore::Locate(TermId s, TermId p, TermId o) const {
  const bool bs = s != kNullTermId;
  const bool bp = p != kNullTermId;
  const bool bo = o != kNullTermId;

  // Same permutation choice as v1 for every bound-component combination.
  Perm perm;
  int prefix;
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
    return CompactScanRange{Perm::kSpo, 0, base_total_, 0,
                            overlay_[0].size(), 0};
  }

  const PermIndex& pi = perms_[static_cast<size_t>(perm)];
  const Triple probe{s, p, o};
  const auto [pk1, pk2, pk3] = PermKey(perm, probe);

  // Base: run lookup on the unique-k1 key array.
  const size_t r = static_cast<size_t>(
      std::lower_bound(pi.keys.begin(), pi.keys.end(), pk1) -
      pi.keys.begin());
  size_t blo;
  size_t bhi;
  if (r < pi.keys.size() && pi.keys[r] == pk1) {
    blo = pi.offsets[r];
    bhi = pi.offsets[r + 1];
    if (prefix == 2) {
      const uint64_t t_lo = static_cast<uint64_t>(pk2) << 32;
      const size_t lo2 = LowerBoundEntry(pi, r, blo, bhi, t_lo);
      const size_t hi2 =
          pk2 == UINT32_MAX
              ? bhi
              : LowerBoundEntry(pi, r, blo, bhi,
                                static_cast<uint64_t>(pk2 + 1ull) << 32);
      blo = lo2;
      bhi = hi2;
    } else if (prefix == 3) {
      const uint64_t t = (static_cast<uint64_t>(pk2) << 32) | pk3;
      const size_t lo2 = LowerBoundEntry(pi, r, blo, bhi, t);
      const size_t hi2 =
          t == UINT64_MAX ? bhi : LowerBoundEntry(pi, r, blo, bhi, t + 1);
      blo = lo2;
      bhi = hi2;
    }
  } else {
    // Empty, at the would-be insertion run.
    blo = bhi = pi.offsets.empty() ? 0 : pi.offsets[r];
  }

  const auto [olo, ohi] = OverlayEqualRange(
      overlay_[static_cast<size_t>(perm)], perm, prefix, probe);
  // `r` is blo's run when the key was found; on the empty path
  // blo == offsets[r], which still satisfies the hint contract.
  return CompactScanRange{perm, blo, bhi, olo, ohi,
                          r < pi.keys.size() ? r : SIZE_MAX};
}

std::vector<Triple> CompactStore::MatchAll(TermId s, TermId p, TermId o,
                                           size_t limit) const {
  std::vector<Triple> out;
  Match(s, p, o, [&](const Triple& t) {
    out.push_back(t);
    return out.size() < limit;
  });
  return out;
}

size_t CompactStore::Insert(
    const std::vector<std::array<rdf::Term, 3>>& triples) {
  // Intern in v1's order (s, p, o per triple) so fresh terms get the same
  // ids a TripleStore would assign.
  std::vector<Triple> fresh;
  fresh.reserve(triples.size());
  for (const auto& t : triples) {
    const Triple id_triple{dict_.Intern(t[0]), dict_.Intern(t[1]),
                           dict_.Intern(t[2])};
    if (!Contains(id_triple.s, id_triple.p, id_triple.o)) {
      fresh.push_back(id_triple);
    }
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  if (fresh.empty()) return 0;
  for (size_t i = 0; i < 6; ++i) {
    const Perm perm = static_cast<Perm>(i);
    std::vector<Triple> batch = fresh;
    std::sort(batch.begin(), batch.end(), PermLess{perm});
    std::vector<Triple> merged;
    merged.reserve(overlay_[i].size() + batch.size());
    std::merge(overlay_[i].begin(), overlay_[i].end(), batch.begin(),
               batch.end(), std::back_inserter(merged), PermLess{perm});
    overlay_[i] = std::move(merged);
  }
  return fresh.size();
}

size_t CompactStore::Erase(TermId s, TermId p, TermId o) {
  std::vector<Triple> victims = MatchAll(s, p, o);
  if (victims.empty()) return 0;
  std::sort(victims.begin(), victims.end());
  const auto is_victim = [&](const Triple& t) {
    return std::binary_search(victims.begin(), victims.end(), t);
  };

  // overlay_[kSpo] is the canonical overlay set: anything not in it lives
  // in the compressed base.
  const std::vector<Triple>& canon = overlay_[0];
  bool base_victim = false;
  for (const Triple& v : victims) {
    if (!std::binary_search(canon.begin(), canon.end(), v)) {
      base_victim = true;
      break;
    }
  }
  for (auto& ov : overlay_) {
    ov.erase(std::remove_if(ov.begin(), ov.end(), is_victim), ov.end());
  }
  if (base_victim) {
    std::vector<Triple> kept = DecodeAll();
    kept.erase(std::remove_if(kept.begin(), kept.end(), is_victim),
               kept.end());
    BuildFrom(std::move(kept), 1);
  }
  return victims.size();
}

void CompactStore::Compact() {
  if (overlay_[0].empty() && dict_.extra_terms() == 0) return;
  std::vector<Triple> all = DecodeAll();
  all.insert(all.end(), overlay_[0].begin(), overlay_[0].end());
  for (auto& ov : overlay_) {
    ov.clear();
    ov.shrink_to_fit();
  }
  dict_.Fold();
  BuildFrom(std::move(all), 1);
}

util::Status CompactStore::WriteSnapshot(const std::string& path) {
  Compact();
  SnapshotWriter writer;
  const uint64_t meta[2] = {dict_.MaxId(), base_total_};
  writer.AddSection(kSecMeta, meta, sizeof(meta));
  writer.AddSection(kSecDictPool, dict_.pool().data(),
                    dict_.pool().PayloadBytes());
  writer.AddSection(kSecDictBuckets, dict_.bucket_offsets().data(),
                    dict_.bucket_offsets().PayloadBytes());
  writer.AddSection(kSecDictSortedToId, dict_.sorted_to_id().data(),
                    dict_.sorted_to_id().PayloadBytes());
  writer.AddSection(kSecDictIdToSorted, dict_.id_to_sorted().data(),
                    dict_.id_to_sorted().PayloadBytes());
  for (uint32_t p = 0; p < 6; ++p) {
    const PermIndex& pi = perms_[p];
    writer.AddSection(p * 4 + kSecKeys, pi.keys.data(),
                      pi.keys.PayloadBytes());
    writer.AddSection(p * 4 + kSecOffsets, pi.offsets.data(),
                      pi.offsets.PayloadBytes());
    writer.AddSection(p * 4 + kSecBlocks, pi.blocks.data(),
                      pi.blocks.PayloadBytes());
    writer.AddSection(p * 4 + kSecStream, pi.stream.data(),
                      pi.stream.PayloadBytes());
  }
  return writer.WriteTo(path);
}

util::Status CompactStore::LoadSnapshot(const std::string& path) {
  SnapshotReader reader;
  KGQAN_RETURN_IF_ERROR(reader.Open(path));

  const auto section = [&](uint32_t id, size_t* len) {
    return reader.Section(id, len);
  };
  size_t len = 0;
  const uint8_t* meta = section(kSecMeta, &len);
  if (meta == nullptr || len != 2 * sizeof(uint64_t)) {
    return util::Status::ParseError("snapshot: missing meta section in " +
                                    path);
  }
  uint64_t num_terms = 0;
  uint64_t total = 0;
  std::memcpy(&num_terms, meta, sizeof(num_terms));
  std::memcpy(&total, meta + sizeof(num_terms), sizeof(total));

  size_t pool_len = 0;
  size_t buckets_len = 0;
  size_t s2i_len = 0;
  size_t i2s_len = 0;
  const uint8_t* pool = section(kSecDictPool, &pool_len);
  const uint8_t* buckets = section(kSecDictBuckets, &buckets_len);
  const uint8_t* s2i = section(kSecDictSortedToId, &s2i_len);
  const uint8_t* i2s = section(kSecDictIdToSorted, &i2s_len);
  if (pool == nullptr || buckets == nullptr || s2i == nullptr ||
      i2s == nullptr || buckets_len % sizeof(uint64_t) != 0 ||
      s2i_len != num_terms * sizeof(uint32_t) ||
      i2s_len != (num_terms + 1) * sizeof(uint32_t)) {
    return util::Status::ParseError(
        "snapshot: malformed dictionary sections in " + path);
  }

  struct PermSections {
    const TermId* keys;
    size_t num_keys;
    const uint32_t* offsets;
    const uint64_t* blocks;
    size_t num_blocks;
    const uint8_t* stream;
    size_t stream_len;
  };
  PermSections ps[6];
  const size_t want_blocks = (total + kBlock - 1) / kBlock;
  for (uint32_t p = 0; p < 6; ++p) {
    size_t keys_len = 0;
    size_t offsets_len = 0;
    size_t blocks_len = 0;
    size_t stream_len = 0;
    const uint8_t* keys = section(p * 4 + kSecKeys, &keys_len);
    const uint8_t* offsets = section(p * 4 + kSecOffsets, &offsets_len);
    const uint8_t* blocks = section(p * 4 + kSecBlocks, &blocks_len);
    const uint8_t* stream = section(p * 4 + kSecStream, &stream_len);
    const size_t num_keys = keys_len / sizeof(TermId);
    if (keys == nullptr || offsets == nullptr || blocks == nullptr ||
        stream == nullptr || keys_len % sizeof(TermId) != 0 ||
        offsets_len != (num_keys + 1) * sizeof(uint32_t) ||
        blocks_len != want_blocks * sizeof(uint64_t)) {
      return util::Status::ParseError(
          "snapshot: malformed index sections in " + path);
    }
    const uint32_t* off32 = reinterpret_cast<const uint32_t*>(offsets);
    if (off32[num_keys] != total) {
      return util::Status::ParseError(
          "snapshot: inconsistent entry counts in " + path);
    }
    ps[p] = {reinterpret_cast<const TermId*>(keys),
             num_keys,
             off32,
             reinterpret_cast<const uint64_t*>(blocks),
             want_blocks,
             stream,
             stream_len};
  }

  // Everything validated: adopt the mapping.
  dict_.AdoptBorrowed(pool, pool_len,
                      reinterpret_cast<const uint64_t*>(buckets),
                      buckets_len / sizeof(uint64_t),
                      reinterpret_cast<const uint32_t*>(s2i),
                      reinterpret_cast<const uint32_t*>(i2s), num_terms);
  for (uint32_t p = 0; p < 6; ++p) {
    perms_[p].keys.Borrow(ps[p].keys, ps[p].num_keys);
    perms_[p].offsets.Borrow(ps[p].offsets, ps[p].num_keys + 1);
    perms_[p].blocks.Borrow(ps[p].blocks, ps[p].num_blocks);
    perms_[p].stream.Borrow(ps[p].stream, ps[p].stream_len);
  }
  base_total_ = total;
  for (auto& ov : overlay_) ov.clear();
  mapping_ = std::move(reader);
  return util::Status::Ok();
}

size_t CompactStore::index_bytes() const {
  size_t bytes = 0;
  for (const PermIndex& pi : perms_) {
    bytes += pi.keys.PayloadBytes() + pi.offsets.PayloadBytes() +
             pi.blocks.PayloadBytes() + pi.stream.PayloadBytes();
  }
  return bytes;
}

size_t CompactStore::overlay_bytes() const {
  size_t bytes = 0;
  for (const std::vector<Triple>& ov : overlay_) {
    bytes += ov.capacity() * sizeof(Triple);
  }
  return bytes;
}

}  // namespace kgqan::store
