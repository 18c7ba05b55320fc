// Compact store v2: dictionary-compressed, mmap-persistent CSR triple
// store — the drop-in second implementation behind the TripleStore
// contract (RDF-TDAA-shaped; see SNIPPETS.md snippets 2–3).
//
// Each of the six permutations is a CSR index instead of a sorted
// Triple array:
//
//   keys     sorted unique first key components (k1), one per run
//   offsets  CSR entry offsets: run r covers entries [offsets[r],
//            offsets[r+1])
//   blocks   byte offset into `stream` of every kBlock-th entry
//   stream   varint-encoded (k2, k3) pairs: absolute at every run start
//            and every block boundary (both positionally determined — no
//            flags), otherwise delta-coded against the previous entry
//            (varint(k2 - prev_k2); then k3 absolute if k2 advanced, else
//            varint(k3 - prev_k3))
//
// Entry indices are the public coordinate system: CompactScanRange counts
// compressed entries exactly like ScanRange counts triples, so
// Locate/MatchRange/EstimateMatches keep their v1 semantics and the
// evaluator and the planner's cardinality estimates run unchanged.
// Locate is O(log runs + log blocks + kBlock): binary search on `keys`,
// then on block-first entries (each O(1)-decodable at a known byte
// offset), then at most one block of linear decode.
//
// The term dictionary is a FrontCodedDictionary built to preserve the v1
// TermDictionary's ids exactly, so index key order — and therefore every
// scan order, join order, and merged result — is byte-identical to v1 on
// the same graph (the differential battery's invariant).
//
// Live updates go through a small per-permutation sorted delta overlay
// merged at scan time; Erase of base triples triggers a rebuild (no
// tombstones, so range sizes stay exact).  Compact() folds the overlay
// (and the dictionary's extras) back into the compressed form.
//
// WriteSnapshot/LoadSnapshot persist everything into one checksummed
// section file (store/snapshot.h) that loads by mmap: all VecViews borrow
// from the mapping and the store is queryable without parsing or sorting.

#ifndef KGQAN_STORE_COMPACT_STORE_H_
#define KGQAN_STORE_COMPACT_STORE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "rdf/front_coded_dictionary.h"
#include "rdf/graph.h"
#include "store/snapshot.h"
#include "store/triple_store.h"
#include "util/status.h"
#include "util/varint.h"
#include "util/vec_view.h"

namespace kgqan::store {

// The compact analogue of ScanRange: a contiguous run of base entries in
// one permutation plus the matching slice of that permutation's overlay.
// size() counts exactly the matching triples (base and overlay are
// disjoint), preserving the planner's exact-estimate contract.
struct CompactScanRange {
  Perm perm = Perm::kSpo;
  size_t lo = 0;  // base entry indices [lo, hi)
  size_t hi = 0;
  size_t overlay_lo = 0;  // overlay indices [overlay_lo, overlay_hi)
  size_t overlay_hi = 0;
  // Decode hint, not part of the logical range: a run with
  // offsets[run_hint] <= lo (ideally lo's run).  Locate fills it so
  // MatchRange lands its cursor without a binary search over all runs;
  // SIZE_MAX means unknown.
  size_t run_hint = SIZE_MAX;

  size_t size() const { return (hi - lo) + (overlay_hi - overlay_lo); }
  bool empty() const { return size() == 0; }
};

class CompactStore {
 public:
  using Range = CompactScanRange;

  // Entries per absolute-decode block.  Larger blocks compress better
  // (fewer absolute restarts); smaller blocks make point lookups cheaper.
  static constexpr size_t kBlock = 8;

  CompactStore() = default;

  // Takes ownership of `graph`; duplicates are removed while encoding.
  // `build_threads` > 1 encodes the six permutations in parallel.
  explicit CompactStore(rdf::Graph graph, size_t build_threads = 1);

  CompactStore(const CompactStore&) = delete;
  CompactStore& operator=(const CompactStore&) = delete;
  CompactStore(CompactStore&&) = default;
  CompactStore& operator=(CompactStore&&) = default;

  const rdf::FrontCodedDictionary& dictionary() const { return dict_; }

  // Number of distinct triples (base + overlay).
  size_t size() const { return base_total_ + overlay_[0].size(); }

  // Inserts a batch of triples through the overlay (terms are interned;
  // duplicates ignored).  Returns the number of genuinely new triples.
  size_t Insert(const std::vector<std::array<rdf::Term, 3>>& triples);

  // Removes every triple matching the pattern.  Overlay victims are
  // removed in place; any base victim forces a rebuild of the compressed
  // indexes (exact range counts admit no tombstones).
  size_t Erase(TermId s, TermId p, TermId o);

  template <typename Fn>
  void Match(TermId s, TermId p, TermId o, Fn&& fn) const {
    MatchRange(Locate(s, p, o), s, p, o, std::forward<Fn>(fn));
  }

  // Match restricted to `range`: an ordered two-cursor merge of the
  // decoded base run and the overlay slice, with the same residual
  // filtering as v1.
  template <typename Fn>
  void MatchRange(const CompactScanRange& range, TermId s, TermId p, TermId o,
                  Fn&& fn) const {
    const Perm perm = range.perm;
    const PermIndex& pi = perms_[static_cast<size_t>(perm)];
    const std::vector<Triple>& ov = overlay_[static_cast<size_t>(perm)];
    if (range.overlay_lo >= range.overlay_hi) {
      // No overlay slice (the common case until live inserts happen):
      // skip the merge machinery and run the tight decode loop, with the
      // permutation dispatch hoisted out of it.
      if (range.lo >= range.hi) return;
      auto emit = [&](TermId ts, TermId tp, TermId to) {
        if (s != kNullTermId && ts != s) return true;
        if (p != kNullTermId && tp != p) return true;
        if (o != kNullTermId && to != o) return true;
        return static_cast<bool>(fn(Triple{ts, tp, to}));
      };
      const size_t hint = range.run_hint;
      switch (perm) {
        case Perm::kSpo:
          ScanBase(pi, range.lo, range.hi, hint,
                   [&](TermId a, TermId b, TermId c) { return emit(a, b, c); });
          break;
        case Perm::kSop:
          ScanBase(pi, range.lo, range.hi, hint,
                   [&](TermId a, TermId b, TermId c) { return emit(a, c, b); });
          break;
        case Perm::kPso:
          ScanBase(pi, range.lo, range.hi, hint,
                   [&](TermId a, TermId b, TermId c) { return emit(b, a, c); });
          break;
        case Perm::kPos:
          ScanBase(pi, range.lo, range.hi, hint,
                   [&](TermId a, TermId b, TermId c) { return emit(c, a, b); });
          break;
        case Perm::kOsp:
          ScanBase(pi, range.lo, range.hi, hint,
                   [&](TermId a, TermId b, TermId c) { return emit(b, c, a); });
          break;
        case Perm::kOps:
          ScanBase(pi, range.lo, range.hi, hint,
                   [&](TermId a, TermId b, TermId c) { return emit(c, b, a); });
          break;
      }
      return;
    }
    size_t be = range.lo;
    size_t oe = range.overlay_lo;
    Cursor cur;
    std::tuple<TermId, TermId, TermId> bkey;
    if (be < range.hi) {
      cur.SeekHinted(pi, be, range.run_hint);
      cur.Step();
      bkey = {cur.k1(), cur.k2, cur.k3};
    }
    while (be < range.hi || oe < range.overlay_hi) {
      bool take_base;
      if (be >= range.hi) {
        take_base = false;
      } else if (oe >= range.overlay_hi) {
        take_base = true;
      } else {
        // Keys are globally unique (base and overlay are disjoint triple
        // sets), so this comparison never ties.
        take_base = bkey < PermKey(perm, ov[oe]);
      }
      const Triple t = take_base
                           ? TripleFromPermKey(perm, std::get<0>(bkey),
                                               std::get<1>(bkey),
                                               std::get<2>(bkey))
                           : ov[oe];
      if (take_base) {
        ++be;
        if (be < range.hi) {
          cur.Step();
          bkey = {cur.k1(), cur.k2, cur.k3};
        }
      } else {
        ++oe;
      }
      // Residual check: components bound but not part of the located
      // prefix.
      if (s != kNullTermId && t.s != s) continue;
      if (p != kNullTermId && t.p != p) continue;
      if (o != kNullTermId && t.o != o) continue;
      if (!fn(t)) return;
    }
  }

  // Chooses the same permutation v1 would and returns the exact matching
  // range: base entry bounds plus the overlay slice.
  CompactScanRange Locate(TermId s, TermId p, TermId o) const;

  std::vector<Triple> MatchAll(TermId s, TermId p, TermId o,
                               size_t limit = SIZE_MAX) const;

  size_t CountMatches(TermId s, TermId p, TermId o) const {
    return Locate(s, p, o).size();
  }

  // Exact cardinality for any bound-component subset — the planner
  // contract shared with v1.
  size_t EstimateMatches(TermId s, TermId p, TermId o) const {
    return Locate(s, p, o).size();
  }

  bool Contains(TermId s, TermId p, TermId o) const {
    return CountMatches(s, p, o) > 0;
  }

  // Folds the overlay and the dictionary's extras back into the
  // compressed representation.  No-op when there is nothing to fold.
  void Compact();

  // Compact()s, then persists dictionary + all six CSR indexes to `path`.
  util::Status WriteSnapshot(const std::string& path);

  // Replaces this store's contents with the snapshot at `path`, borrowing
  // all sections from the mmap (no parse, no sort).  On error the store is
  // left empty.
  util::Status LoadSnapshot(const std::string& path);

  // Byte accounting (satellite gauges + bench `store_bytes`).
  size_t index_bytes() const;  // compressed CSR payloads, all six perms
  size_t dict_bytes() const { return dict_.ApproxBytes(); }
  size_t overlay_triples() const { return overlay_[0].size(); }
  size_t overlay_bytes() const;
  size_t ApproxIndexBytes() const {
    return index_bytes() + dict_bytes() + overlay_bytes();
  }

 private:
  struct PermIndex {
    util::VecView<TermId> keys;
    util::VecView<uint32_t> offsets;
    util::VecView<uint64_t> blocks;
    util::VecView<uint8_t> stream;
  };

  // Sequential decoder over one permutation's stream.  Seek lands on an
  // arbitrary entry by decoding forward from its block boundary (at most
  // kBlock - 1 discarded entries); Step decodes the entry at `e` into
  // (k1(), k2, k3) and advances.
  struct Cursor {
    const PermIndex* pi = nullptr;
    size_t e = 0;    // next entry index to decode
    size_t run = 0;  // run of the most recently decoded entry
    size_t pos = 0;  // byte position in stream
    TermId k2 = 0;
    TermId k3 = 0;

    void Seek(const PermIndex& index, size_t target) {
      SeekHinted(index, target, SIZE_MAX);
    }

    // Seek with a known upper bound on the landing run: `run_hint` must be
    // a run with offsets[run_hint] <= target (e.g. the run containing
    // target).  The block start can precede the run start by at most
    // kBlock - 1 entries, so the hint is refined by a short backward scan
    // instead of a binary search over all runs — the difference between
    // O(log runs) and O(kBlock) per point probe.
    void SeekHinted(const PermIndex& index, size_t target, size_t run_hint) {
      pi = &index;
      const size_t b = target / kBlock;
      pos = index.blocks[b];
      e = b * kBlock;
      if (run_hint != SIZE_MAX) {
        run = run_hint;
        while (run > 0 && index.offsets[run] > e) --run;
      } else {
        run = static_cast<size_t>(std::upper_bound(index.offsets.begin(),
                                                   index.offsets.end(), e) -
                                  index.offsets.begin()) -
              1;
      }
      while (e < target) Step();
    }

    void Step() {
      while (pi->offsets[run + 1] <= e) ++run;
      const uint8_t* data = pi->stream.data();
      if (e % kBlock == 0 || e == pi->offsets[run]) {
        k2 = static_cast<TermId>(util::ReadVarint(data, &pos));
        k3 = static_cast<TermId>(util::ReadVarint(data, &pos));
      } else {
        const uint64_t d2 = util::ReadVarint(data, &pos);
        if (d2 != 0) {
          k2 += static_cast<TermId>(d2);
          k3 = static_cast<TermId>(util::ReadVarint(data, &pos));
        } else {
          k3 += static_cast<TermId>(util::ReadVarint(data, &pos));
        }
      }
      ++e;
    }

    TermId k1() const { return pi->keys[run]; }
  };

  // The hot scan loop: decodes base entries [lo, hi) of `pi`, calling
  // `emit(k1, k2, k3)` for each (false stops).  Run-segmented so the run
  // lookup, k1 load, and segment bound are hoisted out of the inner loop,
  // and the varint state lives in locals the compiler can keep in
  // registers (the member-based Cursor can't, because uint8_t loads alias
  // its fields).  Entries before `lo` in the starting block are decoded
  // and discarded (at most kBlock - 1).
  template <typename Emit>
  static void ScanBase(const PermIndex& pi, size_t lo, size_t hi,
                       size_t run_hint, Emit&& emit) {
    const uint8_t* ptr = pi.stream.data() + pi.blocks[lo / kBlock];
    size_t e = (lo / kBlock) * kBlock;
    // Run of the block-start entry `e` (once per scan, not per entry):
    // refined from the caller's hint when available — the block start can
    // precede the hinted run's start by at most kBlock - 1 entries.
    size_t run;
    if (run_hint != SIZE_MAX) {
      run = run_hint;
      while (run > 0 && pi.offsets[run] > e) --run;
    } else {
      run = static_cast<size_t>(std::upper_bound(pi.offsets.begin(),
                                                 pi.offsets.end(), e) -
                                pi.offsets.begin()) -
            1;
    }
    auto read = [&ptr]() {
      uint64_t v = *ptr & 0x7F;
      if ((*ptr++ & 0x80) != 0) {
        int shift = 7;
        uint8_t byte;
        do {
          byte = *ptr++;
          v |= static_cast<uint64_t>(byte & 0x7F) << shift;
          shift += 7;
        } while ((byte & 0x80) != 0);
      }
      return v;
    };
    TermId k2 = 0;
    TermId k3 = 0;
    while (e < hi) {
      const size_t run_end = pi.offsets[run + 1];
      const TermId k1 = pi.keys[run];
      const size_t seg_end = run_end < hi ? run_end : hi;
      bool at_run_start = e == pi.offsets[run];
      for (; e < seg_end; ++e) {
        if (at_run_start || e % kBlock == 0) {
          k2 = static_cast<TermId>(read());
          k3 = static_cast<TermId>(read());
        } else {
          const uint64_t d2 = read();
          if (d2 != 0) {
            k2 += static_cast<TermId>(d2);
            k3 = static_cast<TermId>(read());
          } else {
            k3 += static_cast<TermId>(read());
          }
        }
        at_run_start = false;
        if (e >= lo && !emit(k1, k2, k3)) return;
      }
      ++run;
    }
  }

  // Sorts/dedups `base` and re-encodes all six permutations (releasing
  // any snapshot mapping).  Does not touch the overlay or dictionary.
  void BuildFrom(std::vector<Triple> base, size_t build_threads);

  static PermIndex EncodePerm(Perm perm, const std::vector<Triple>& sorted);

  // All base triples in SPO order.
  std::vector<Triple> DecodeAll() const;

  // (k2 << 32 | k3) of the block-first entry of block `b` — O(1), the
  // substrate of binary search inside a run.
  static uint64_t CompositeAtBlock(const PermIndex& pi, size_t b);

  // First entry in [rlo, rhi) (a slice of run `run`) whose (k2, k3)
  // composite is >= target; rhi if none.
  static size_t LowerBoundEntry(const PermIndex& pi, size_t run, size_t rlo,
                                size_t rhi, uint64_t target);

  rdf::FrontCodedDictionary dict_;
  size_t base_total_ = 0;
  std::array<PermIndex, 6> perms_;
  // Delta overlay: per-permutation sorted (PermLess) copies of the live
  // inserts; overlay_[kSpo] doubles as the canonical overlay triple set.
  std::array<std::vector<Triple>, 6> overlay_;
  // Keeps a loaded snapshot's mapping alive while views borrow from it.
  SnapshotReader mapping_;
};

}  // namespace kgqan::store

#endif  // KGQAN_STORE_COMPACT_STORE_H_
