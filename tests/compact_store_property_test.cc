// Differential battery for the compact store: every answer served from
// the dictionary-compressed CSR store must be byte-identical to v1 —
// across both benchgen KG families, live AddNTriples updates riding the delta overlay, and a snapshot
// save/mmap-load round trip whose Locate ranges match the builder's
// entry-for-entry.  A corruption lane pins that damaged snapshots are
// rejected rather than served.
//
// The binary has its own main: `--seed=N` (or the KGQAN_PROPERTY_SEED
// environment variable) reseeds the generator, so CI can rotate seeds and
// a failure is reproducible locally with the printed flag.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "benchgen/kg.h"
#include "rdf/ntriples.h"
#include "sparql/endpoint.h"
#include "sparql/result_set.h"
#include "store/compact_store.h"
#include "util/rng.h"

namespace kgqan::sparql {

// Set from --seed / KGQAN_PROPERTY_SEED in main() before RUN_ALL_TESTS.
uint64_t g_property_seed = 0xC0FFEEu;

namespace {

// Random SPARQL grounded in a built benchgen KG, biased toward the shapes
// the compact store's probe and scan paths serve: bound-subject stars,
// predicate scans (CSR run scans), chains (repeated point probes), and
// text probes through the rebuilt-from-store text index.
class KgSparqlGen {
 public:
  KgSparqlGen(const benchgen::BuiltKg& kg, uint64_t seed) : rng_(seed) {
    for (const auto& [key, iri] : kg.predicates) predicates_.push_back(iri);
    std::sort(predicates_.begin(), predicates_.end());
    for (const auto& [key, facts] : kg.facts) {
      for (const benchgen::Fact& fact : facts) {
        entities_.push_back(fact.subject.iri);
        if (!fact.subject.label.empty()) {
          std::string word =
              fact.subject.label.substr(0, fact.subject.label.find(' '));
          if (!word.empty()) words_.push_back(std::move(word));
        }
        if (entities_.size() >= 250) break;
      }
      if (entities_.size() >= 250) break;
    }
    std::sort(entities_.begin(), entities_.end());
    entities_.erase(std::unique(entities_.begin(), entities_.end()),
                    entities_.end());
    std::sort(words_.begin(), words_.end());
    words_.erase(std::unique(words_.begin(), words_.end()), words_.end());
  }

  std::string RandSparql() {
    switch (rng_.UniformInt(0, 6)) {
      case 0:  // Bound-subject star: owner-run point probes.
        return "SELECT ?p ?o WHERE { <" + RandEntity() + "> ?p ?o }";
      case 1:  // Star joined with a hop: probe + dependent probes.
        return "SELECT ?o ?t WHERE { <" + RandEntity() + "> <" +
               RandPredicate() + "> ?o . ?o ?q ?t } LIMIT 40";
      case 2:  // Predicate scan: one CSR run, decoded start to end.
        return "SELECT ?s ?o WHERE { ?s <" + RandPredicate() +
               "> ?o } LIMIT 60";
      case 3:  // Wildcard: the full SPO decode path.
        return "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 80";
      case 4:  // Chain: two dependent probe frontiers.
        return "SELECT DISTINCT ?a ?c WHERE { ?a <" + RandPredicate() +
               "> ?b . ?b ?p ?c } LIMIT 30";
      case 5: {  // Text probe: rank order through the rebuilt index.
        if (words_.empty()) return "ASK { ?s ?p ?o }";
        return "SELECT ?s ?lit WHERE { ?s ?p ?lit . ?lit <bif:contains> \"'" +
               RandWord() + "'\" . } LIMIT 50";
      }
      default:  // Aggregate over a run scan.
        return "SELECT (COUNT(?s) AS ?n) WHERE { ?s <" + RandPredicate() +
               "> ?o }";
    }
  }

 private:
  std::string RandEntity() {
    return entities_[rng_.UniformInt(
        0, static_cast<int64_t>(entities_.size()) - 1)];
  }
  std::string RandPredicate() {
    return predicates_[rng_.UniformInt(
        0, static_cast<int64_t>(predicates_.size()) - 1)];
  }
  std::string RandWord() {
    return words_[rng_.UniformInt(0,
                                  static_cast<int64_t>(words_.size()) - 1)];
  }

  util::Rng rng_;
  std::vector<std::string> predicates_;
  std::vector<std::string> entities_;
  std::vector<std::string> words_;
};

std::string DumpResults(const ResultSet& rs) {
  if (rs.is_ask()) return rs.ask_value() ? "ASK true" : "ASK false";
  std::string out;
  for (const std::string& c : rs.columns()) out += "?" + c + " ";
  out += "\n";
  for (const auto& row : rs.rows()) {
    for (const auto& cell : row) {
      out += cell.has_value() ? rdf::ToNTriples(*cell) : std::string("_");
      out += " ";
    }
    out += "\n";
  }
  return out;
}

::testing::AssertionResult SameResults(const ResultSet& a,
                                       const ResultSet& b) {
  if (a.is_ask() == b.is_ask() && a.ask_value() == b.ask_value() &&
      a.columns() == b.columns() && a.rows() == b.rows()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "v1:\n" << DumpResults(a)
                                       << "compact:\n" << DumpResults(b);
}

benchgen::BuiltKg BuildKgForRound(int round, uint64_t seed) {
  // Alternate the benchmark KG families so both data shapes cross the
  // compressed indexes.
  switch (round % 3) {
    case 0:
      return benchgen::BuildGeneralKg(benchgen::KgFlavor::kDbpedia, 0.04,
                                      seed);
    case 1:
      return benchgen::BuildScholarlyKg(benchgen::KgFlavor::kDblp, 0.04,
                                        seed);
    default:
      return benchgen::BuildGeneralKg(benchgen::KgFlavor::kYago, 0.04, seed);
  }
}

// Random SPARQL through the public Endpoint API: the compact endpoint and
// the v1 endpoint must return byte-identical rows, before and after a live
// AddNTriples update that lands in the compact store's delta overlay.
TEST(CompactStorePropertyTest, ByteIdenticalToV1) {
  constexpr int kKgRounds = 3;
  constexpr int kCasesPerKg = 14;

  util::Rng master(g_property_seed);
  for (int round = 0; round < kKgRounds; ++round) {
    uint64_t round_seed = master.Next();
    benchgen::BuiltKg ref_kg = BuildKgForRound(round, round_seed);
    KgSparqlGen gen(ref_kg, round_seed);
    // The KG build is deterministic in (round, seed), so every endpoint
    // gets an identical graph.
    LocalEndpoint reference("cmp-v1", std::move(ref_kg.graph));
    CompactEndpoint compact(
        "cmp-compact", BuildKgForRound(round, round_seed).graph);
    ASSERT_EQ(compact.NumTriples(), reference.NumTriples());

    for (int c = 0; c < kCasesPerKg; ++c) {
      std::string query = gen.RandSparql();
      SCOPED_TRACE("seed " + std::to_string(g_property_seed) + " round " +
                   std::to_string(round) + " case " + std::to_string(c) +
                   "\nquery: " + query);
      auto want = reference.Query(query);
      ASSERT_TRUE(want.ok()) << want.status();
      auto got = compact.Query(query);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(SameResults(*want, *got));
    }

    // Live update: the insert rides the compact store's overlay (no
    // rebuild), and answers must stay byte-identical.
    const std::string delta =
        "<http://prop.test/fresh_a> <http://prop.test/linked> "
        "<http://prop.test/fresh_b> .\n"
        "<http://prop.test/fresh_b> <http://prop.test/linked> "
        "<http://prop.test/fresh_c> .\n";
    auto ref_added = reference.AddNTriples(delta);
    ASSERT_TRUE(ref_added.ok()) << ref_added.status();
    ASSERT_EQ(*ref_added, 2u);
    auto cmp_added = compact.AddNTriples(delta);
    ASSERT_TRUE(cmp_added.ok()) << cmp_added.status();
    ASSERT_EQ(*cmp_added, 2u);
    // The overlay is genuinely live — the update did not trigger a fold.
    EXPECT_EQ(compact.store().overlay_triples(), 2u);
    EXPECT_EQ(compact.generation(), reference.generation());

    const std::string probe =
        "SELECT ?s ?o WHERE { ?s <http://prop.test/linked> ?o }";
    const std::string chain_probe =
        "SELECT ?a ?c WHERE { ?a <http://prop.test/linked> ?b . "
        "?b <http://prop.test/linked> ?c }";
    for (const std::string& q : {probe, chain_probe}) {
      SCOPED_TRACE("post-update query: " + q);
      auto want_after = reference.Query(q);
      ASSERT_TRUE(want_after.ok()) << want_after.status();
      auto got_after = compact.Query(q);
      ASSERT_TRUE(got_after.ok()) << got_after.status();
      EXPECT_TRUE(SameResults(*want_after, *got_after));
    }
  }
}

// Snapshot lane: save, mmap-load, and the loaded endpoint answers
// byte-identically, with Locate ranges matching the
// builder's entry-for-entry.
TEST(CompactStorePropertyTest, SnapshotRoundTripServesIdentically) {
  const std::string path =
      ::testing::TempDir() + "compact_prop_roundtrip.snap";
  util::Rng master(g_property_seed ^ 0x5EEDull);
  uint64_t round_seed = master.Next();

  benchgen::BuiltKg kg = BuildKgForRound(0, round_seed);
  KgSparqlGen gen(kg, round_seed);
  CompactEndpoint original("snap-orig", std::move(kg.graph));
  ASSERT_TRUE(original.WriteSnapshot(path).ok());

  auto loaded = CompactEndpoint::FromSnapshot("snap-loaded", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  CompactEndpoint& reloaded = **loaded;
  ASSERT_EQ(reloaded.NumTriples(), original.NumTriples());

  // Locate ranges agree entry-for-entry over random probes drawn from the
  // store itself (all 8 bound-component masks).
  const store::CompactStore& a = original.store();
  const store::CompactStore& b = reloaded.store();
  const auto universe =
      a.MatchAll(rdf::kNullTermId, rdf::kNullTermId, rdf::kNullTermId, 2000);
  for (int probe = 0; probe < 40; ++probe) {
    const rdf::Triple& t = universe[static_cast<size_t>(
        master.Next() % universe.size())];
    for (int mask = 0; mask < 8; ++mask) {
      rdf::TermId s = (mask & 1) ? t.s : rdf::kNullTermId;
      rdf::TermId p = (mask & 2) ? t.p : rdf::kNullTermId;
      rdf::TermId o = (mask & 4) ? t.o : rdf::kNullTermId;
      const store::CompactScanRange ra = a.Locate(s, p, o);
      const store::CompactScanRange rb = b.Locate(s, p, o);
      EXPECT_EQ(ra.lo, rb.lo) << "mask=" << mask;
      EXPECT_EQ(ra.hi, rb.hi) << "mask=" << mask;
      EXPECT_EQ(ra.size(), rb.size()) << "mask=" << mask;
    }
  }

  for (int c = 0; c < 10; ++c) {
    std::string query = gen.RandSparql();
    SCOPED_TRACE("seed " + std::to_string(g_property_seed) + " case " +
                 std::to_string(c) + "\nquery: " + query);
    auto want = original.Query(query);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = reloaded.Query(query);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(SameResults(*want, *got));
  }

  // Live inserts land identically on top of the mmap'd store.
  const std::string delta =
      "<http://prop.test/snap_a> <http://prop.test/linked> "
      "<http://prop.test/snap_b> .\n";
  ASSERT_TRUE(original.AddNTriples(delta).ok());
  ASSERT_TRUE(reloaded.AddNTriples(delta).ok());
  const std::string probe =
      "SELECT ?s ?o WHERE { ?s <http://prop.test/linked> ?o }";
  auto want_after = original.Query(probe);
  ASSERT_TRUE(want_after.ok());
  auto got_after = reloaded.Query(probe);
  ASSERT_TRUE(got_after.ok());
  EXPECT_TRUE(SameResults(*want_after, *got_after));

  std::remove(path.c_str());
}

// Corruption lane: any damaged snapshot — random byte flips or random
// truncation points — is rejected with an error, never served.
TEST(CompactStorePropertyTest, DamagedSnapshotsAreRejected) {
  const std::string path =
      ::testing::TempDir() + "compact_prop_corrupt.snap";
  util::Rng rng(g_property_seed ^ 0xBAD5EEDull);

  benchgen::BuiltKg kg = BuildKgForRound(1, g_property_seed);
  CompactEndpoint original("corrupt-orig", std::move(kg.graph));
  ASSERT_TRUE(original.WriteSnapshot(path).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 128u);
  const auto write_file = [&](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  for (int i = 0; i < 12; ++i) {
    std::string bad = bytes;
    const size_t at = rng.Next() % bad.size();
    bad[at] = static_cast<char>(bad[at] ^ (1u << (rng.Next() % 8)));
    write_file(bad);
    auto loaded = CompactEndpoint::FromSnapshot("corrupt", path);
    EXPECT_FALSE(loaded.ok()) << "flipped bit at byte " << at;
  }
  for (int i = 0; i < 6; ++i) {
    write_file(bytes.substr(0, rng.Next() % bytes.size()));
    auto loaded = CompactEndpoint::FromSnapshot("truncated", path);
    EXPECT_FALSE(loaded.ok());
  }

  // The pristine bytes still load: the rejections were not spurious.
  write_file(bytes);
  auto ok = CompactEndpoint::FromSnapshot("pristine", path);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ((*ok)->NumTriples(), original.NumTriples());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgqan::sparql

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  uint64_t seed = kgqan::sparql::g_property_seed;
  if (const char* env = std::getenv("KGQAN_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  kgqan::sparql::g_property_seed = seed;
  std::printf("[property] seed=%llu  (repro: compact_store_property_test "
              "--seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  return RUN_ALL_TESTS();
}
