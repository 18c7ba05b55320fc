// Tabular results of a SPARQL query.
//
// Cells are views: a bound cell points at an rdf::Term owned by the
// endpoint's term dictionary, whose terms never move (see
// rdf/term_dictionary.h), so building a row copies no strings.  The few
// terms that are not in the dictionary — aggregate values and VALUES terms
// absent from the KG — are owned by the ResultSet itself.  A ResultSet
// therefore must not outlive the endpoint (or store) that produced it.

#ifndef KGQAN_SPARQL_RESULT_SET_H_
#define KGQAN_SPARQL_RESULT_SET_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"

namespace kgqan::sparql {

// One result cell: a read-only reference to a term, or unbound.  It reads
// like std::optional<rdf::Term> (has_value(), contextual bool, `*`, `->`,
// comparison by value) but copies no term.
class TermRef {
 public:
  TermRef() = default;  // Unbound.
  explicit TermRef(const rdf::Term* term) : term_(term) {}

  bool has_value() const { return term_ != nullptr; }
  explicit operator bool() const { return has_value(); }
  const rdf::Term& operator*() const { return *term_; }
  const rdf::Term* operator->() const { return term_; }

  // Equal when both are unbound or both refer to equal terms.
  friend bool operator==(const TermRef& a, const TermRef& b) {
    if (!a.has_value() || !b.has_value()) return a.has_value() == b.has_value();
    return a.term_ == b.term_ || *a.term_ == *b.term_;
  }
  friend bool operator==(const TermRef& a, const rdf::Term& b) {
    return a.has_value() && *a.term_ == b;
  }

 private:
  const rdf::Term* term_ = nullptr;
};

// One solution row: a cell per projected column.
using Row = std::vector<TermRef>;

class ResultSet {
 public:
  // SELECT result with the given column (variable) names.
  explicit ResultSet(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  // Move-only: the cells of a moved result set stay valid (each owned
  // term has its own heap slot, which a move does not touch); a copy would
  // point into the original.
  ResultSet(const ResultSet&) = delete;
  ResultSet& operator=(const ResultSet&) = delete;
  ResultSet(ResultSet&&) = default;
  ResultSet& operator=(ResultSet&&) = default;

  // ASK result.
  static ResultSet Ask(bool value) {
    ResultSet rs({});
    rs.is_ask_ = true;
    rs.ask_value_ = value;
    return rs;
  }

  // Takes ownership of a term that is not in the dictionary the cells
  // refer to, and returns a stable pointer to it for use in cells.
  const rdf::Term* Own(rdf::Term term) {
    owned_.push_back(std::make_unique<rdf::Term>(std::move(term)));
    return owned_.back().get();
  }

  void AddRow(Row row) { rows_.push_back(std::move(row)); }

  bool is_ask() const { return is_ask_; }
  bool ask_value() const { return ask_value_; }

  const std::vector<std::string>& columns() const { return columns_; }
  size_t NumRows() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }

  // Index of column `name`, or nullopt.
  std::optional<size_t> ColumnIndex(std::string_view name) const;

  // The cell at (row, col); pre-condition: in range.
  const TermRef& At(size_t row, size_t col) const { return rows_[row][col]; }

  // Tab-separated rendering with a header line (debugging / examples).
  std::string ToTsv() const;

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  // Terms the cells need beyond the dictionary's.
  std::vector<std::unique_ptr<rdf::Term>> owned_;
  bool is_ask_ = false;
  bool ask_value_ = false;
};

}  // namespace kgqan::sparql

#endif  // KGQAN_SPARQL_RESULT_SET_H_
