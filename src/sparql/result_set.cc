#include "sparql/result_set.h"

namespace kgqan::sparql {

std::optional<size_t> ResultSet::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  return std::nullopt;
}

std::string ResultSet::ToTsv() const {
  if (is_ask_) return ask_value_ ? "true\n" : "false\n";
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += '\t';
    out += "?" + columns_[i];
  }
  out += '\n';
  for (const Row& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += '\t';
      out += row[i].has_value() ? rdf::ToNTriples(*row[i]) : "";
    }
    out += '\n';
  }
  return out;
}

}  // namespace kgqan::sparql
