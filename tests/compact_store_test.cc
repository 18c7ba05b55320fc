// Unit tests for the compact (CSR + front-coded dictionary) triple store:
// v1 equivalence on every bound-component combination, Locate coverage
// with and without a live overlay, erase/compaction behaviour,
// snapshot round trips with corruption rejection, and the per-endpoint
// store gauges.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "rdf/graph.h"
#include "sparql/endpoint.h"
#include "store/compact_store.h"
#include "store/triple_store.h"
#include "util/rng.h"

namespace kgqan::store {
namespace {

using rdf::Graph;
using rdf::Iri;
using rdf::Term;
using rdf::TermId;

// Deterministic random graph shared by v1 and compact builds.
Graph RandomGraph(uint64_t seed, int triples, int subjects = 40,
                  int predicates = 8, int objects = 60) {
  util::Rng rng(seed);
  Graph g;
  for (int i = 0; i < triples; ++i) {
    g.AddIris("http://x/s" + std::to_string(rng.UniformInt(0, subjects - 1)),
              "http://x/p" + std::to_string(rng.UniformInt(0, predicates - 1)),
              "http://x/o" + std::to_string(rng.UniformInt(0, objects - 1)));
  }
  return g;
}

TEST(CompactStoreTest, MatchesV1ByteIdenticalAcrossAllMasks) {
  TripleStore v1(RandomGraph(7, 600));
  CompactStore compact(RandomGraph(7, 600));
  ASSERT_EQ(compact.size(), v1.size());

  const std::vector<rdf::Triple> universe =
      v1.MatchAll(rdf::kNullTermId, rdf::kNullTermId, rdf::kNullTermId);
  util::Rng rng(99);
  for (int probe = 0; probe < 40; ++probe) {
    const rdf::Triple& t = universe[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(universe.size()) - 1))];
    for (int mask = 0; mask < 8; ++mask) {
      TermId s = (mask & 1) ? t.s : rdf::kNullTermId;
      TermId p = (mask & 2) ? t.p : rdf::kNullTermId;
      TermId o = (mask & 4) ? t.o : rdf::kNullTermId;
      // Same triples in the same order — the evaluators' scan order is
      // part of the contract, not just set equality.
      EXPECT_EQ(compact.MatchAll(s, p, o), v1.MatchAll(s, p, o))
          << "mask=" << mask;
      EXPECT_EQ(compact.EstimateMatches(s, p, o), v1.EstimateMatches(s, p, o))
          << "mask=" << mask;
      EXPECT_EQ(compact.Contains(s, p, o), v1.Contains(s, p, o))
          << "mask=" << mask;
    }
  }
}

TEST(CompactStoreTest, ParallelBuildEqualsSerialBuild) {
  CompactStore serial(RandomGraph(11, 500), /*build_threads=*/1);
  CompactStore parallel(RandomGraph(11, 500), /*build_threads=*/8);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial.MatchAll(rdf::kNullTermId, rdf::kNullTermId,
                            rdf::kNullTermId),
            parallel.MatchAll(rdf::kNullTermId, rdf::kNullTermId,
                              rdf::kNullTermId));
}

// Locate must cover the matching triples exactly: its range counts them,
// and scanning it with MatchRange reproduces Match's sequence — with and
// without a live overlay.
TEST(CompactStoreTest, MatchRangeCoversExactlyWithAndWithoutOverlay) {
  CompactStore compact(RandomGraph(13, 700));
  TermId p = *compact.dictionary().FindIri("http://x/p1");

  for (bool with_overlay : {false, true}) {
    if (with_overlay) {
      std::vector<std::array<Term, 3>> batch;
      for (int i = 0; i < 25; ++i) {
        batch.push_back({Iri("http://x/s" + std::to_string(i)),
                         Iri("http://x/p1"),
                         Iri("http://x/fresh" + std::to_string(i))});
      }
      ASSERT_GT(compact.Insert(batch), 0u);
      ASSERT_GT(compact.overlay_triples(), 0u);
    }
    const CompactScanRange range =
        compact.Locate(rdf::kNullTermId, p, rdf::kNullTermId);
    ASSERT_FALSE(range.empty());
    EXPECT_EQ(range.overlay_hi > range.overlay_lo, with_overlay);

    std::vector<rdf::Triple> serial;
    compact.Match(rdf::kNullTermId, p, rdf::kNullTermId,
                  [&](const rdf::Triple& t) {
                    serial.push_back(t);
                    return true;
                  });
    ASSERT_EQ(serial.size(), range.size());

    std::vector<rdf::Triple> ranged;
    compact.MatchRange(range, rdf::kNullTermId, p, rdf::kNullTermId,
                       [&](const rdf::Triple& t) {
                         ranged.push_back(t);
                         return true;
                       });
    EXPECT_EQ(ranged, serial) << "overlay=" << with_overlay;
  }
}

// Live inserts and erases track v1 exactly, including the TermIds fresh
// terms receive and the rebuild after a base-triple erase.
TEST(CompactStoreTest, InsertAndEraseTrackV1) {
  TripleStore v1(RandomGraph(17, 300));
  CompactStore compact(RandomGraph(17, 300));

  std::vector<std::array<Term, 3>> batch;
  batch.push_back({Iri("http://x/volga"), Iri("http://x/riverMouth"),
                   Iri("http://x/caspian")});
  batch.push_back({Iri("http://x/s0"), Iri("http://x/p0"),
                   Iri("http://x/caspian")});
  ASSERT_EQ(compact.Insert(batch), v1.Insert(batch));
  EXPECT_EQ(compact.size(), v1.size());
  // Fresh terms intern to the same ids (the byte-identity substrate).
  EXPECT_EQ(*compact.dictionary().FindIri("http://x/caspian"),
            *v1.dictionary().FindIri("http://x/caspian"));

  TermId caspian = *compact.dictionary().FindIri("http://x/caspian");
  EXPECT_EQ(compact.MatchAll(rdf::kNullTermId, rdf::kNullTermId, caspian),
            v1.MatchAll(rdf::kNullTermId, rdf::kNullTermId, caspian));

  // Overlay-only erase (the triples just inserted)...
  EXPECT_EQ(compact.Erase(rdf::kNullTermId, rdf::kNullTermId, caspian),
            v1.Erase(rdf::kNullTermId, rdf::kNullTermId, caspian));
  // ...then a base erase, which forces the compressed rebuild.
  TermId s0 = *compact.dictionary().FindIri("http://x/s0");
  EXPECT_EQ(compact.Erase(s0, rdf::kNullTermId, rdf::kNullTermId),
            v1.Erase(s0, rdf::kNullTermId, rdf::kNullTermId));
  EXPECT_EQ(compact.size(), v1.size());
  EXPECT_EQ(compact.MatchAll(rdf::kNullTermId, rdf::kNullTermId,
                             rdf::kNullTermId),
            v1.MatchAll(rdf::kNullTermId, rdf::kNullTermId, rdf::kNullTermId));
}

TEST(CompactStoreTest, CompactFoldsOverlayWithoutChangingAnswers) {
  CompactStore compact(RandomGraph(19, 300));
  std::vector<std::array<Term, 3>> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back({Iri("http://x/live" + std::to_string(i)),
                     Iri("http://x/p0"), Iri("http://x/o0")});
  }
  ASSERT_EQ(compact.Insert(batch), 10u);
  ASSERT_EQ(compact.overlay_triples(), 10u);
  const auto before = compact.MatchAll(rdf::kNullTermId, rdf::kNullTermId,
                                       rdf::kNullTermId);
  compact.Compact();
  EXPECT_EQ(compact.overlay_triples(), 0u);
  EXPECT_EQ(compact.MatchAll(rdf::kNullTermId, rdf::kNullTermId,
                             rdf::kNullTermId),
            before);
}

TEST(CompactStoreTest, CompressesSmallerThanV1) {
  TripleStore v1(RandomGraph(23, 4000, 200, 12, 300));
  CompactStore compact(RandomGraph(23, 4000, 200, 12, 300));
  // The CSR + varint indexes (excluding the shared-by-construction
  // dictionary) must undercut v1's six Triple arrays decisively.
  const size_t v1_index = v1.ApproxIndexBytes() - v1.dictionary().ApproxBytes();
  EXPECT_LT(compact.index_bytes(), v1_index / 2);
}

TEST(CompactStoreTest, SnapshotRoundTripIsIdentical) {
  const std::string path = ::testing::TempDir() + "compact_store_test.snap";
  CompactStore original(RandomGraph(29, 500));
  // Fold in a live overlay so the snapshot covers post-insert state too.
  std::vector<std::array<Term, 3>> batch;
  batch.push_back({Iri("http://x/fresh"), Iri("http://x/p0"),
                   Iri("http://x/o0")});
  ASSERT_EQ(original.Insert(batch), 1u);
  ASSERT_TRUE(original.WriteSnapshot(path).ok());

  CompactStore loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.MatchAll(rdf::kNullTermId, rdf::kNullTermId,
                            rdf::kNullTermId),
            original.MatchAll(rdf::kNullTermId, rdf::kNullTermId,
                              rdf::kNullTermId));

  // Locate ranges are identical entry-for-entry, and the mmap'd
  // dictionary resolves terms to the same ids.
  util::Rng rng(31);
  const auto universe = original.MatchAll(rdf::kNullTermId, rdf::kNullTermId,
                                          rdf::kNullTermId);
  for (int probe = 0; probe < 25; ++probe) {
    const rdf::Triple& t = universe[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(universe.size()) - 1))];
    for (int mask = 0; mask < 8; ++mask) {
      TermId s = (mask & 1) ? t.s : rdf::kNullTermId;
      TermId p = (mask & 2) ? t.p : rdf::kNullTermId;
      TermId o = (mask & 4) ? t.o : rdf::kNullTermId;
      const CompactScanRange a = original.Locate(s, p, o);
      const CompactScanRange b = loaded.Locate(s, p, o);
      EXPECT_EQ(a.lo, b.lo);
      EXPECT_EQ(a.hi, b.hi);
      EXPECT_EQ(a.size(), b.size());
      EXPECT_EQ(loaded.MatchAll(s, p, o), original.MatchAll(s, p, o));
    }
  }
  EXPECT_EQ(*loaded.dictionary().FindIri("http://x/fresh"),
            *original.dictionary().FindIri("http://x/fresh"));

  // The loaded store accepts live inserts on top of the mapping.
  std::vector<std::array<Term, 3>> more;
  more.push_back({Iri("http://x/post_load"), Iri("http://x/p0"),
                  Iri("http://x/o0")});
  EXPECT_EQ(loaded.Insert(more), 1u);
  TermId pl = *loaded.dictionary().FindIri("http://x/post_load");
  EXPECT_EQ(loaded.CountMatches(pl, rdf::kNullTermId, rdf::kNullTermId), 1u);

  std::remove(path.c_str());
}

TEST(CompactStoreTest, RejectsCorruptedAndTruncatedSnapshots) {
  const std::string path = ::testing::TempDir() + "compact_store_corrupt.snap";
  CompactStore original(RandomGraph(37, 400));
  ASSERT_TRUE(original.WriteSnapshot(path).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 64u);

  const auto write_file = [&](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  // A flipped byte anywhere — header, early sections, payload middle —
  // must fail the checksum or structural validation, never load.
  for (size_t at : {size_t{0}, size_t{9}, bytes.size() / 2,
                    bytes.size() - 1}) {
    std::string bad = bytes;
    bad[at] = static_cast<char>(bad[at] ^ 0x5A);
    write_file(bad);
    CompactStore store;
    EXPECT_FALSE(store.LoadSnapshot(path).ok()) << "flipped byte " << at;
    EXPECT_EQ(store.size(), 0u);
  }

  // Truncation at any boundary is rejected.
  for (size_t keep : {size_t{0}, size_t{10}, bytes.size() / 2,
                      bytes.size() - 1}) {
    write_file(bytes.substr(0, keep));
    CompactStore store;
    EXPECT_FALSE(store.LoadSnapshot(path).ok()) << "truncated to " << keep;
  }

  // The untouched file still loads (the rejections above were real).
  write_file(bytes);
  CompactStore store;
  EXPECT_TRUE(store.LoadSnapshot(path).ok());
  EXPECT_EQ(store.size(), original.size());

  CompactStore missing;
  EXPECT_FALSE(missing.LoadSnapshot(path + ".does_not_exist").ok());
  std::remove(path.c_str());
}

// Every endpoint flavour publishes the store gauges; the compact endpoint
// tracks its overlay through live inserts.
TEST(CompactStoreTest, EndpointsPublishStoreGauges) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const auto gauge = [&](const char* name) {
    return reg.GetGauge(name).Value();
  };

  sparql::CompactEndpoint compact("gauge-test", RandomGraph(43, 300));
  EXPECT_GT(gauge("store.index_bytes"), 0);
  EXPECT_GT(gauge("store.dict_bytes"), 0);
  EXPECT_EQ(gauge("store.overlay_triples"), 0);

  auto added = compact.AddNTriples(
      "<http://x/gauge_s> <http://x/gauge_p> <http://x/gauge_o> .\n");
  ASSERT_TRUE(added.ok());
  ASSERT_EQ(*added, 1u);
  EXPECT_EQ(gauge("store.overlay_triples"), 1);

  // The v1 endpoint overwrites the same gauges (overlay back to zero).
  sparql::LocalEndpoint local("gauge-test-v1", RandomGraph(43, 300));
  EXPECT_EQ(gauge("store.overlay_triples"), 0);
  EXPECT_GT(gauge("store.index_bytes"), 0);
}

}  // namespace
}  // namespace kgqan::store
