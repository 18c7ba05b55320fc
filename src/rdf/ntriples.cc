#include "rdf/ntriples.h"

#include <cctype>

#include "util/string_util.h"

namespace kgqan::rdf {

namespace {

using util::Status;
using util::StatusOr;

void SkipSpace(std::string_view line, size_t& pos) {
  while (pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[pos]))) {
    ++pos;
  }
}

StatusOr<std::string> ParseQuoted(std::string_view line, size_t& pos) {
  // Pre-condition: line[pos] == '"'.
  ++pos;
  std::string out;
  while (pos < line.size()) {
    char c = line[pos];
    if (c == '"') {
      ++pos;
      return out;
    }
    if (c == '\\') {
      ++pos;
      if (pos >= line.size()) break;
      char esc = line[pos];
      switch (esc) {
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        default:
          return Status::ParseError("bad escape in literal");
      }
      ++pos;
      continue;
    }
    out += c;
    ++pos;
  }
  return Status::ParseError("unterminated literal");
}

}  // namespace

size_t BlankNodeLabelLength(std::string_view text) {
  // Non-ASCII bytes stand in for the grammar's Unicode name characters.
  auto name_char = [](char c) {
    const unsigned char u = static_cast<unsigned char>(c);
    return std::isalnum(u) || c == '_' || u >= 0x80;
  };
  if (text.empty() || !name_char(text[0])) return 0;
  size_t end = 1;
  while (end < text.size() &&
         (name_char(text[end]) || text[end] == '-' || text[end] == '.')) {
    ++end;
  }
  while (text[end - 1] == '.') --end;  // The first character is no '.'.
  return end;
}

StatusOr<Term> ParseNTriplesTerm(std::string_view line, size_t& pos) {
  SkipSpace(line, pos);
  if (pos >= line.size()) return Status::ParseError("expected term");
  char c = line[pos];
  if (c == '<') {
    size_t end = line.find('>', pos);
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated IRI");
    }
    Term t = Iri(std::string(line.substr(pos + 1, end - pos - 1)));
    pos = end + 1;
    return t;
  }
  if (c == '_') {
    if (pos + 1 >= line.size() || line[pos + 1] != ':') {
      return Status::ParseError("bad blank node");
    }
    const size_t start = pos + 2;
    const size_t length = BlankNodeLabelLength(line.substr(start));
    if (length == 0) return Status::ParseError("empty blank node label");
    Term t = Blank(std::string(line.substr(start, length)));
    pos = start + length;
    return t;
  }
  if (c == '"') {
    auto lex = ParseQuoted(line, pos);
    if (!lex.ok()) return lex.status();
    // Optional language tag or datatype.
    if (pos < line.size() && line[pos] == '@') {
      size_t start = pos + 1;
      size_t end = start;
      while (end < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[end])) ||
              line[end] == '-')) {
        ++end;
      }
      Term t = LangLiteral(std::move(lex).value(),
                           std::string(line.substr(start, end - start)));
      pos = end;
      return t;
    }
    if (pos + 1 < line.size() && line[pos] == '^' && line[pos + 1] == '^') {
      pos += 2;
      if (pos >= line.size() || line[pos] != '<') {
        return Status::ParseError("expected datatype IRI");
      }
      size_t end = line.find('>', pos);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated datatype IRI");
      }
      Term t = TypedLiteral(std::move(lex).value(),
                            std::string(line.substr(pos + 1, end - pos - 1)));
      pos = end + 1;
      return t;
    }
    return StringLiteral(std::move(lex).value());
  }
  return Status::ParseError("unexpected character in term");
}

StatusOr<Graph> ParseNTriples(std::string_view text) {
  Graph graph;
  size_t line_no = 0;
  for (const std::string& raw : util::Split(text, '\n')) {
    ++line_no;
    std::string_view line = util::Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    auto error = [line_no](std::string_view message) {
      return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                std::string(message));
    };
    size_t pos = 0;
    auto s = ParseNTriplesTerm(line, pos);
    if (!s.ok()) return error(s.status().message());
    auto p = ParseNTriplesTerm(line, pos);
    if (!p.ok()) return error(p.status().message());
    auto o = ParseNTriplesTerm(line, pos);
    if (!o.ok()) return error(o.status().message());
    SkipSpace(line, pos);
    if (pos >= line.size() || line[pos] != '.') return error("expected '.'");
    // Only whitespace or a comment may follow the terminating dot.
    ++pos;
    SkipSpace(line, pos);
    if (pos < line.size() && line[pos] != '#') {
      return error("unexpected text after '.'");
    }
    if (s->IsLiteral()) {
      return error("subject must be an IRI or a blank node");
    }
    if (!p->IsIri()) return error("predicate must be an IRI");
    graph.Add(*s, *p, *o);
  }
  return graph;
}

std::string WriteNTriples(const Graph& graph) {
  std::string out;
  const TermDictionary& dict = graph.dictionary();
  for (const Triple& t : graph.triples()) {
    out += ToNTriples(dict.Get(t.s));
    out += ' ';
    out += ToNTriples(dict.Get(t.p));
    out += ' ';
    out += ToNTriples(dict.Get(t.o));
    out += " .\n";
  }
  return out;
}

}  // namespace kgqan::rdf
