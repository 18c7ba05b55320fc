// N-Triples serialization: line-oriented parser and writer for Graph.
//
// Supports the subset of N-Triples produced by ToNTriples(): IRIs, blank
// nodes, plain / language-tagged / datatyped literals, `\" \\ \n \r \t`
// escapes, `#` comment lines and blank lines.

#ifndef KGQAN_RDF_NTRIPLES_H_
#define KGQAN_RDF_NTRIPLES_H_

#include <string>
#include <string_view>

#include "rdf/graph.h"
#include "util/status.h"

namespace kgqan::rdf {

// Parses N-Triples text into a Graph.
util::StatusOr<Graph> ParseNTriples(std::string_view text);

// Length of the blank-node label that starts `text` (the part after
// "_:"), per the BLANK_NODE_LABEL rule N-Triples and Turtle share: a
// letter, digit, '_' or non-ASCII byte, then any of those, '-' or '.', but
// never a final '.' (so `_:b1.` is the label "b1" and a triple's dot).
// 0 when no label starts there.
size_t BlankNodeLabelLength(std::string_view text);

// Parses a single N-Triples term starting at `pos` in `line`; advances `pos`
// past the term.  Exposed for testing.
util::StatusOr<Term> ParseNTriplesTerm(std::string_view line, size_t& pos);

// Serializes `graph` to N-Triples text (one triple per line).
std::string WriteNTriples(const Graph& graph);

}  // namespace kgqan::rdf

#endif  // KGQAN_RDF_NTRIPLES_H_
