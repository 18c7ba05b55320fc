#include "rdf/turtle.h"

#include <cctype>
#include <unordered_map>
#include <vector>

#include "rdf/ntriples.h"
#include "util/string_util.h"

namespace kgqan::rdf {

namespace {

using util::Status;
using util::StatusOr;

constexpr std::string_view kRdfTypeIri =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

class TurtleParser {
 public:
  explicit TurtleParser(std::string_view text) : text_(text) {}

  StatusOr<Graph> Parse() {
    Graph graph;
    while (true) {
      SkipWhitespaceAndComments();
      if (AtEnd()) break;
      KGQAN_RETURN_IF_ERROR(ParseStatement(&graph));
    }
    return graph;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char PeekAt(size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  Status Error(const std::string& msg) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    return Status::ParseError("turtle line " + std::to_string(line) + ": " +
                              msg);
  }

  void SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (!AtEnd() && Peek() != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool ConsumeChar(char c) {
    SkipWhitespaceAndComments();
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  // Case-insensitive word match at the current position.
  bool ConsumeWord(std::string_view word) {
    SkipWhitespaceAndComments();
    if (pos_ + word.size() > text_.size()) return false;
    for (size_t i = 0; i < word.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) !=
          std::tolower(static_cast<unsigned char>(word[i]))) {
        return false;
      }
    }
    char after = PeekAt(word.size());
    if (std::isalnum(static_cast<unsigned char>(after)) || after == '_') {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  // For the bare SPARQL-style keywords, require whitespace after the word
  // so that a subject like `prefix:foo` is not mistaken for a declaration.
  bool ConsumeKeywordWs(std::string_view word) {
    size_t saved = pos_;
    if (!ConsumeWord(word)) return false;
    if (!AtEnd() && !std::isspace(static_cast<unsigned char>(Peek()))) {
      pos_ = saved;
      return false;
    }
    return true;
  }

  Status ParseStatement(Graph* graph) {
    if (ConsumeWord("@prefix") || ConsumeKeywordWs("prefix")) {
      return ParsePrefix();
    }
    if (ConsumeWord("@base") || ConsumeKeywordWs("base")) {
      KGQAN_ASSIGN_OR_RETURN(Term iri, ParseIriRef());
      base_ = iri.value;
      ConsumeChar('.');
      return Status::Ok();
    }
    return ParseTriples(graph);
  }

  Status ParsePrefix() {
    SkipWhitespaceAndComments();
    // pfx:
    size_t start = pos_;
    while (!AtEnd() && Peek() != ':') ++pos_;
    if (AtEnd()) return Error("expected ':' in prefix declaration");
    std::string pfx(text_.substr(start, pos_ - start));
    ++pos_;  // ':'
    KGQAN_ASSIGN_OR_RETURN(Term iri, ParseIriRef());
    prefixes_[std::string(util::Trim(pfx))] = iri.value;
    ConsumeChar('.');  // SPARQL-style PREFIX has no dot; tolerate both.
    return Status::Ok();
  }

  StatusOr<Term> ParseIriRef() {
    SkipWhitespaceAndComments();
    if (Peek() != '<') return Error("expected '<'");
    size_t end = text_.find('>', pos_);
    if (end == std::string_view::npos) return Error("unterminated IRI");
    std::string iri(text_.substr(pos_ + 1, end - pos_ - 1));
    pos_ = end + 1;
    if (!base_.empty() && iri.find(':') == std::string::npos) {
      iri = base_ + iri;  // Relative IRI resolution (simple concatenation).
    }
    return Iri(std::move(iri));
  }

  StatusOr<Term> ParseTerm(bool allow_literal) {
    SkipWhitespaceAndComments();
    char c = Peek();
    if (c == '<') return ParseIriRef();
    if (c == '_') {
      if (PeekAt(1) != ':') return Error("expected ':' after '_'");
      pos_ += 2;
      const size_t length = BlankNodeLabelLength(text_.substr(pos_));
      if (length == 0) return Error("empty blank node label");
      Term t = Blank(std::string(text_.substr(pos_, length)));
      pos_ += length;
      return t;
    }
    if (c == '[') {
      ++pos_;
      SkipWhitespaceAndComments();
      if (Peek() != ']') {
        return Error("bracketed property lists are not supported");
      }
      ++pos_;
      return Blank("anon" + std::to_string(next_anon_++));
    }
    if (c == '(') {
      return Error("RDF collections '(...)' are not supported");
    }
    if (c == '"' || c == '\'') {
      if (!allow_literal) return Error("literal not allowed here");
      return ParseLiteral();
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
        c == '+') {
      if (!allow_literal) return Error("literal not allowed here");
      return ParseNumber();
    }
    if (ConsumeWord("true")) return BoolLiteral(true);
    if (ConsumeWord("false")) return BoolLiteral(false);
    return ParsePrefixedName();
  }

  StatusOr<Term> ParsePrefixedName() {
    SkipWhitespaceAndComments();
    size_t start = pos_;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                        Peek() == '_' || Peek() == '-' || Peek() == '.')) {
      ++pos_;
    }
    if (Peek() != ':') return Error("expected prefixed name");
    std::string pfx(text_.substr(start, pos_ - start));
    ++pos_;
    size_t lstart = pos_;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                        Peek() == '_' || Peek() == '-' || Peek() == '/')) {
      ++pos_;
    }
    std::string local(text_.substr(lstart, pos_ - lstart));
    auto it = prefixes_.find(pfx);
    if (it == prefixes_.end()) {
      return Error("unknown prefix '" + pfx + "'");
    }
    return Iri(it->second + local);
  }

  StatusOr<Term> ParseLiteral() {
    char quote = Peek();
    bool long_string = PeekAt(1) == quote && PeekAt(2) == quote;
    std::string lexical;
    if (long_string) {
      pos_ += 3;
      while (!AtEnd()) {
        if (Peek() == quote && PeekAt(1) == quote && PeekAt(2) == quote) {
          pos_ += 3;
          break;
        }
        lexical += text_[pos_++];
      }
    } else {
      ++pos_;
      while (!AtEnd() && Peek() != quote) {
        char c = text_[pos_++];
        if (c == '\\' && !AtEnd()) {
          char esc = text_[pos_++];
          switch (esc) {
            case 'n':
              lexical += '\n';
              break;
            case 't':
              lexical += '\t';
              break;
            case 'r':
              lexical += '\r';
              break;
            default:
              lexical += esc;
          }
          continue;
        }
        if (c == '\n') return Error("newline in single-quoted literal");
        lexical += c;
      }
      if (AtEnd()) return Error("unterminated literal");
      ++pos_;  // Closing quote.
    }
    // Suffixes.
    if (Peek() == '@') {
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                          Peek() == '-')) {
        ++pos_;
      }
      return LangLiteral(std::move(lexical),
                         std::string(text_.substr(start, pos_ - start)));
    }
    if (Peek() == '^' && PeekAt(1) == '^') {
      pos_ += 2;
      KGQAN_ASSIGN_OR_RETURN(Term dt, ParseTerm(/*allow_literal=*/false));
      if (!dt.IsIri()) return Error("datatype must be an IRI");
      return TypedLiteral(std::move(lexical), dt.value);
    }
    return StringLiteral(std::move(lexical));
  }

  StatusOr<Term> ParseNumber() {
    size_t start = pos_;
    if (Peek() == '-' || Peek() == '+') ++pos_;
    bool decimal = false;
    while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                        Peek() == '.')) {
      if (Peek() == '.') {
        // A '.' not followed by a digit terminates the number.
        if (!std::isdigit(static_cast<unsigned char>(PeekAt(1)))) break;
        decimal = true;
      }
      ++pos_;
    }
    std::string lex(text_.substr(start, pos_ - start));
    if (lex.empty() || lex == "-" || lex == "+") return Error("bad number");
    return TypedLiteral(std::move(lex),
                        std::string(decimal ? vocab::kXsdDouble
                                            : vocab::kXsdInteger));
  }

  Status ParseTriples(Graph* graph) {
    KGQAN_ASSIGN_OR_RETURN(Term subject, ParseTerm(/*allow_literal=*/false));
    while (true) {
      // Predicate: `a` or IRI/prefixed name.
      Term predicate;
      if (ConsumeWord("a")) {
        predicate = Iri(std::string(kRdfTypeIri));
      } else {
        KGQAN_ASSIGN_OR_RETURN(predicate, ParseTerm(false));
        if (!predicate.IsIri()) return Error("predicate must be an IRI");
      }
      // Object list.
      while (true) {
        KGQAN_ASSIGN_OR_RETURN(Term object, ParseTerm(true));
        graph->Add(subject, predicate, object);
        if (!ConsumeChar(',')) break;
      }
      if (ConsumeChar(';')) {
        SkipWhitespaceAndComments();
        if (Peek() == '.') break;  // Trailing semicolon.
        continue;
      }
      break;
    }
    if (!ConsumeChar('.')) return Error("expected '.'");
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::unordered_map<std::string, std::string> prefixes_;
  std::string base_;
  int next_anon_ = 0;
};

// Returns `iri` compressed to a prefixed name if a prefix applies.
std::string CompressIri(const std::string& iri,
                        const std::map<std::string, std::string>& prefixes) {
  for (const auto& [pfx, ns] : prefixes) {
    if (util::StartsWith(iri, ns)) {
      std::string local = iri.substr(ns.size());
      // The local part must be a simple name for the prefixed form.
      bool simple = !local.empty();
      for (char c : local) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '-')) {
          simple = false;
          break;
        }
      }
      if (simple) return pfx + ":" + local;
    }
  }
  return "<" + iri + ">";
}

std::string RenderTerm(const Term& term,
                       const std::map<std::string, std::string>& prefixes) {
  if (term.IsIri()) {
    if (term.value == kRdfTypeIri) return "a";
    return CompressIri(term.value, prefixes);
  }
  return ToNTriples(term);
}

}  // namespace

StatusOr<Graph> ParseTurtle(std::string_view text) {
  TurtleParser parser(text);
  return parser.Parse();
}

std::string WriteTurtle(const Graph& graph,
                        const std::map<std::string, std::string>& prefixes) {
  std::string out;
  for (const auto& [pfx, ns] : prefixes) {
    out += "@prefix " + pfx + ": <" + ns + "> .\n";
  }
  if (!prefixes.empty()) out += "\n";

  // Group triples by subject (first-appearance order), then by predicate.
  const TermDictionary& dict = graph.dictionary();
  std::vector<TermId> subject_order;
  std::unordered_map<TermId, std::vector<Triple>> by_subject;
  for (const Triple& t : graph.triples()) {
    auto [it, inserted] = by_subject.try_emplace(t.s);
    if (inserted) subject_order.push_back(t.s);
    it->second.push_back(t);
  }
  for (TermId s : subject_order) {
    const std::vector<Triple>& triples = by_subject.at(s);
    out += RenderTerm(dict.Get(s), prefixes);
    // Group by predicate, preserving order of first appearance.
    std::vector<TermId> pred_order;
    std::unordered_map<TermId, std::vector<TermId>> objects;
    for (const Triple& t : triples) {
      auto [it, inserted] = objects.try_emplace(t.p);
      if (inserted) pred_order.push_back(t.p);
      it->second.push_back(t.o);
    }
    for (size_t pi = 0; pi < pred_order.size(); ++pi) {
      TermId p = pred_order[pi];
      out += pi == 0 ? " " : " ;\n    ";
      out += RenderTerm(dict.Get(p), prefixes);
      const std::vector<TermId>& objs = objects.at(p);
      for (size_t oi = 0; oi < objs.size(); ++oi) {
        out += oi == 0 ? " " : ", ";
        out += RenderTerm(dict.Get(objs[oi]), prefixes);
      }
    }
    out += " .\n";
  }
  return out;
}

}  // namespace kgqan::rdf
