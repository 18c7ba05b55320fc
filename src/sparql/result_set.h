// Tabular results of a SPARQL query.

#ifndef KGQAN_SPARQL_RESULT_SET_H_
#define KGQAN_SPARQL_RESULT_SET_H_

#include <optional>
#include <string>
#include <vector>

#include "rdf/term.h"

namespace kgqan::sparql {

// One solution row: a term per projected column; nullopt = unbound.
using Row = std::vector<std::optional<rdf::Term>>;

class ResultSet {
 public:
  // SELECT result with the given column (variable) names.
  explicit ResultSet(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  // ASK result.
  static ResultSet Ask(bool value) {
    ResultSet rs({});
    rs.is_ask_ = true;
    rs.ask_value_ = value;
    return rs;
  }

  void AddRow(Row row) { rows_.push_back(std::move(row)); }

  bool is_ask() const { return is_ask_; }
  bool ask_value() const { return ask_value_; }

  const std::vector<std::string>& columns() const { return columns_; }
  size_t NumColumns() const { return columns_.size(); }
  size_t NumRows() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }

  // Index of column `name`, or nullopt.
  std::optional<size_t> ColumnIndex(std::string_view name) const;

  // The cell at (row, col); pre-condition: in range.
  const std::optional<rdf::Term>& At(size_t row, size_t col) const {
    return rows_[row][col];
  }

  // All bound values of column `col`, in row order.
  std::vector<rdf::Term> ColumnValues(size_t col) const;

  // Tab-separated rendering with a header line (debugging / examples).
  std::string ToTsv() const;

  // W3C "SPARQL 1.1 Query Results JSON Format" rendering — what a real
  // endpoint returns for Accept: application/sparql-results+json.
  std::string ToSparqlJson() const;

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  bool is_ask_ = false;
  bool ask_value_ = false;
};

}  // namespace kgqan::sparql

#endif  // KGQAN_SPARQL_RESULT_SET_H_
