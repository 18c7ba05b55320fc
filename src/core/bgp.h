// Basic graph pattern enumeration, scoring (Eq. 2) and SPARQL rendering
// (Sec. 6, Algorithm 3).

#ifndef KGQAN_CORE_BGP_H_
#define KGQAN_CORE_BGP_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/agp.h"
#include "core/config.h"

namespace kgqan::core {

// A subject/object position of an instantiated triple: a KG vertex IRI or
// a variable name (without the '?').
struct BgpTerm {
  bool is_var = false;
  std::string value;
};

struct BgpTriple {
  BgpTerm s;
  std::string predicate;  // IRI.
  BgpTerm o;
  double score = 0.0;     // s_va + s_p + s_vb of Eq. 2.
};

struct Bgp {
  std::vector<BgpTriple> triples;
  double score = 0.0;  // Eq. 2: mean of triple scores.
};

class BgpGenerator {
 public:
  explicit BgpGenerator(const KgqanConfig* config) : config_(config) {}

  // Candidate instantiations kept per PGP edge before the cross-edge
  // product is ranked (keeps Alg. 3 line 1 tractable).
  static constexpr size_t kMaxEdgeCandidates = 24;

  // Algorithm 3 lines 1-3: enumerates valid vertex/predicate combinations
  // (consistent vertex assignments per PGP node), scores each BGP with
  // Eq. 2 and returns the top max_queries, best first.  Empty result: some
  // edge has no relevant predicate, i.e. the question cannot be mapped to
  // this KG.  Candidates are ranked by index and only the top max_queries
  // are materialized as strings.  `combinations`, when given, receives the
  // number of consistent combinations enumerated before the cut.
  std::vector<Bgp> Generate(const Agp& agp,
                            size_t* combinations = nullptr) const;

  // Renders a SELECT query for the main unknown, extended with the
  // OPTIONAL <unknown, rdf:type, ?c> clause used by post-filtration.
  static std::string ToSelectSparql(const Bgp& bgp,
                                    const std::string& unknown_var);

  // Renders an ASK query (boolean questions).
  static std::string ToAskSparql(const Bgp& bgp);

 private:
  const KgqanConfig* config_;
};

}  // namespace kgqan::core

#endif  // KGQAN_CORE_BGP_H_
