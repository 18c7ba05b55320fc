#include "rdf/term.h"

#include <cctype>
#include <cstdio>

namespace kgqan::rdf {

bool Term::IsStringLiteral() const {
  return kind == TermKind::kLiteral &&
         (datatype.empty() || datatype == vocab::kXsdString);
}

Term Iri(std::string iri) {
  Term t;
  t.kind = TermKind::kIri;
  t.value = std::move(iri);
  return t;
}

Term Blank(std::string label) {
  Term t;
  t.kind = TermKind::kBlank;
  t.value = std::move(label);
  return t;
}

Term StringLiteral(std::string lexical) {
  Term t;
  t.kind = TermKind::kLiteral;
  t.value = std::move(lexical);
  t.datatype = vocab::kXsdString;
  return t;
}

Term LangLiteral(std::string lexical, std::string lang) {
  Term t;
  t.kind = TermKind::kLiteral;
  t.value = std::move(lexical);
  t.lang = std::move(lang);
  return t;
}

Term TypedLiteral(std::string lexical, std::string datatype_iri) {
  Term t;
  t.kind = TermKind::kLiteral;
  t.value = std::move(lexical);
  t.datatype = std::move(datatype_iri);
  return t;
}

Term IntLiteral(int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  return TypedLiteral(buf, std::string(vocab::kXsdInteger));
}

Term DoubleLiteral(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return TypedLiteral(buf, std::string(vocab::kXsdDouble));
}

Term BoolLiteral(bool value) {
  return TypedLiteral(value ? "true" : "false",
                      std::string(vocab::kXsdBoolean));
}

Term DateLiteral(std::string iso_date) {
  return TypedLiteral(std::move(iso_date), std::string(vocab::kXsdDate));
}

namespace {

void AppendEscaped(const std::string& s, std::string& out) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
}

}  // namespace

std::string ToNTriples(const Term& term) {
  std::string out;
  out.reserve(term.value.size() + term.lang.size() + term.datatype.size() + 6);
  switch (term.kind) {
    case TermKind::kIri:
      out += '<';
      out += term.value;
      out += '>';
      break;
    case TermKind::kBlank:
      out += "_:";
      out += term.value;
      break;
    case TermKind::kLiteral:
      out += '"';
      AppendEscaped(term.value, out);
      out += '"';
      if (!term.lang.empty()) {
        out += '@';
        out += term.lang;
      } else if (!term.datatype.empty() &&
                 term.datatype != vocab::kXsdString) {
        out += "^^<";
        out += term.datatype;
        out += '>';
      }
      break;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Term& term) {
  return os << ToNTriples(term);
}

std::string_view IriLocalName(std::string_view iri) {
  size_t pos = iri.find_last_of("#/");
  if (pos == std::string_view::npos || pos + 1 >= iri.size()) return iri;
  return iri.substr(pos + 1);
}

bool IsHumanReadableIri(std::string_view iri) {
  std::string_view local = IriLocalName(iri);
  if (local.empty()) return false;
  size_t letters = 0;
  size_t digits = 0;
  for (char c : local) {
    if (std::isalpha(static_cast<unsigned char>(c))) ++letters;
    if (std::isdigit(static_cast<unsigned char>(c))) ++digits;
  }
  // Opaque identifiers such as "2279569217" or "P227" are digit-dominated.
  return letters > 0 && letters > digits;
}

}  // namespace kgqan::rdf
