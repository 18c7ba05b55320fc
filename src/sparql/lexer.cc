#include "sparql/lexer.h"

#include <array>
#include <limits>
#include <string>

namespace kgqan::sparql {

namespace {

using util::Status;
using util::StatusOr;

// ASCII character classes, inline: the <cctype> calls they replace are
// out-of-line library calls per input byte, and the program never leaves
// the "C" locale, where those classify exactly these bytes.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) {
  const char lower = static_cast<char>(c | 0x20);
  return lower >= 'a' && lower <= 'z';
}
bool IsAlnum(char c) { return IsAlpha(c) || IsDigit(c); }
char ToUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - ('a' - 'A')) : c;
}

bool IsNameChar(char c) { return IsAlnum(c) || c == '_' || c == '-'; }

struct Spelling {
  std::string_view text;  // Canonical upper-case spelling.
  Symbol symbol;
};

constexpr std::array<Spelling, 28> kKeywords = {{
    {"SELECT", Symbol::kSelect},     {"ASK", Symbol::kAsk},
    {"WHERE", Symbol::kWhere},       {"DISTINCT", Symbol::kDistinct},
    {"OPTIONAL", Symbol::kOptional}, {"FILTER", Symbol::kFilter},
    {"LIMIT", Symbol::kLimit},       {"PREFIX", Symbol::kPrefix},
    {"COUNT", Symbol::kCount},       {"AS", Symbol::kAs},
    {"BOUND", Symbol::kBound},       {"UNION", Symbol::kUnion},
    {"ORDER", Symbol::kOrder},       {"BY", Symbol::kBy},
    {"ASC", Symbol::kAsc},           {"DESC", Symbol::kDesc},
    {"OFFSET", Symbol::kOffset},     {"MIN", Symbol::kMin},
    {"MAX", Symbol::kMax},           {"SUM", Symbol::kSum},
    {"AVG", Symbol::kAvg},           {"REGEX", Symbol::kRegex},
    {"CONTAINS", Symbol::kContains}, {"STR", Symbol::kStr},
    {"LANG", Symbol::kLang},         {"VALUES", Symbol::kValues},
    {"ISIRI", Symbol::kIsIri},       {"ISLITERAL", Symbol::kIsLiteral},
}};

// Case-insensitive match of `word` against an upper-case spelling.
bool EqualsUpper(std::string_view word, std::string_view upper) {
  if (word.size() != upper.size()) return false;
  for (size_t i = 0; i < word.size(); ++i) {
    if (ToUpper(word[i]) != upper[i]) {
      return false;
    }
  }
  return true;
}

const Spelling* FindKeyword(std::string_view word) {
  for (const Spelling& k : kKeywords) {
    if (EqualsUpper(word, k.text)) return &k;
  }
  return nullptr;
}

Symbol PunctSymbol(char c) {
  switch (c) {
    case '{':
      return Symbol::kLBrace;
    case '}':
      return Symbol::kRBrace;
    case '(':
      return Symbol::kLParen;
    case ')':
      return Symbol::kRParen;
    case '.':
      return Symbol::kDot;
    case ';':
      return Symbol::kSemicolon;
    case ',':
      return Symbol::kComma;
    case '*':
      return Symbol::kStar;
    case '!':
      return Symbol::kBang;
    default:
      return Symbol::kNone;
  }
}

}  // namespace

StatusOr<TokenList> Lex(std::string_view input) {
  if (input.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::ParseError("query longer than 4 GiB");
  }
  TokenList list;
  std::vector<Token>& tokens = list.tokens_;
  // Engine queries average well over 8 bytes per token (IRIs dominate).
  tokens.reserve(input.size() / 8 + 4);
  size_t unescaped_used = 0;
  size_t i = 0;
  size_t start = 0;  // First byte of the current token: its offset.
  const size_t n = input.size();

  auto error = [&](const std::string& msg) {
    return Status::ParseError(msg + " at offset " + std::to_string(i));
  };
  // A token whose text is input[begin, end).
  auto push = [&](TokenKind kind, Symbol symbol, size_t begin, size_t end) {
    tokens.push_back({kind, symbol, static_cast<uint32_t>(start),
                      input.substr(begin, end - begin)});
  };

  while (i < n) {
    char c = input[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    if (c == '#') {  // Comment to end of line.
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    start = i;
    if (c == '<') {
      // '<' is both the IRI opener and the less-than operator.  It is an
      // IRI iff a '>' appears before any whitespace.
      size_t end = i + 1;
      while (end < n && input[end] != '>' &&
             !IsSpace(input[end])) {
        ++end;
      }
      if (end < n && input[end] == '>') {
        push(TokenKind::kIriRef, Symbol::kNone, i + 1, end);
        i = end + 1;
        continue;
      }
      // Fall through to operator handling below.
    }
    if (c == '?' || c == '$') {
      ++i;
      size_t vs = i;
      while (i < n && IsNameChar(input[i])) ++i;
      if (i == vs) return error("empty variable name");
      push(TokenKind::kVar, Symbol::kNone, vs, i);
      continue;
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      ++i;
      const size_t body = i;
      // Escape-free literals (the common case) view the input; the first
      // escape switches to unescaping into the list's buffer.
      char* out = nullptr;
      size_t out_start = 0;
      bool closed = false;
      while (i < n) {
        char d = input[i];
        if (d == '\\' && i + 1 < n) {
          if (out == nullptr) {
            if (list.unescaped_ == nullptr) {
              list.unescaped_ = std::make_unique<char[]>(n);
            }
            out_start = unescaped_used;
            out = list.unescaped_.get() + unescaped_used;
            input.copy(out, i - body, body);
            out += i - body;
          }
          char esc = input[i + 1];
          switch (esc) {
            case 'n':
              *out++ = '\n';
              break;
            case 't':
              *out++ = '\t';
              break;
            case 'r':
              *out++ = '\r';
              break;
            default:
              *out++ = esc;
          }
          i += 2;
          continue;
        }
        if (d == quote) {
          closed = true;
          ++i;
          break;
        }
        if (out != nullptr) *out++ = d;
        ++i;
      }
      if (!closed) return error("unterminated string");
      if (out == nullptr) {
        push(TokenKind::kString, Symbol::kNone, body, i - 1);
      } else {
        const char* text = list.unescaped_.get() + out_start;
        const size_t length = static_cast<size_t>(out - text);
        unescaped_used = out_start + length;
        tokens.push_back({TokenKind::kString, Symbol::kNone,
                          static_cast<uint32_t>(start),
                          std::string_view(text, length)});
      }
      continue;
    }
    if (c == '@') {
      ++i;
      size_t ls = i;
      while (i < n && (IsAlnum(input[i]) ||
                       input[i] == '-')) {
        ++i;
      }
      push(TokenKind::kLangTag, Symbol::kNone, ls, i);
      continue;
    }
    if (c == '^') {
      if (i + 1 < n && input[i + 1] == '^') {
        push(TokenKind::kDtSep, Symbol::kNone, i, i + 2);
        i += 2;
        continue;
      }
      return error("stray '^'");
    }
    if (IsDigit(c) ||
        (c == '-' && i + 1 < n &&
         IsDigit(input[i + 1]))) {
      size_t ns = i;
      if (c == '-') ++i;
      bool decimal = false;
      while (i < n && (IsDigit(input[i]) ||
                       input[i] == '.')) {
        // A '.' followed by a non-digit terminates the number (it is the
        // triple terminator).
        if (input[i] == '.') {
          if (i + 1 >= n ||
              !IsDigit(input[i + 1])) {
            break;
          }
          decimal = true;
        }
        ++i;
      }
      push(decimal ? TokenKind::kDecimal : TokenKind::kInteger, Symbol::kNone,
           ns, i);
      continue;
    }
    if (IsAlpha(c) || c == '_') {
      size_t ws = i;
      while (i < n && IsNameChar(input[i])) ++i;
      std::string_view word = input.substr(ws, i - ws);
      // prefix:local ?
      if (i < n && input[i] == ':') {
        ++i;
        size_t ls = i;
        while (i < n && (IsNameChar(input[i]) || input[i] == '/' ||
                         input[i] == '.')) {
          ++i;
        }
        // A trailing '.' is the triple terminator, not part of the name.
        while (i > ls && input[i - 1] == '.') --i;
        push(TokenKind::kPname, Symbol::kNone, ws, i);
        continue;
      }
      if (const Spelling* keyword = FindKeyword(word)) {
        tokens.push_back({TokenKind::kKeyword, keyword->symbol,
                          static_cast<uint32_t>(start), keyword->text});
      } else if (EqualsUpper(word, "TRUE")) {
        tokens.push_back({TokenKind::kBoolean, Symbol::kNone,
                          static_cast<uint32_t>(start), "true"});
      } else if (EqualsUpper(word, "FALSE")) {
        tokens.push_back({TokenKind::kBoolean, Symbol::kNone,
                          static_cast<uint32_t>(start), "false"});
      } else {
        // Bare word: treat as a pname with empty prefix is not valid; error.
        return error("unexpected word '" + std::string(word) + "'");
      }
      continue;
    }
    // Operators and punctuation.
    const char next = i + 1 < n ? input[i + 1] : '\0';
    Symbol two = Symbol::kNone;
    if (c == '!' && next == '=') two = Symbol::kNe;
    if (c == '<' && next == '=') two = Symbol::kLe;
    if (c == '>' && next == '=') two = Symbol::kGe;
    if (c == '&' && next == '&') two = Symbol::kAnd;
    if (c == '|' && next == '|') two = Symbol::kOr;
    if (two != Symbol::kNone) {
      push(TokenKind::kOp, two, i, i + 2);
      i += 2;
      continue;
    }
    if (c == '=' || c == '<' || c == '>') {
      push(TokenKind::kOp,
           c == '=' ? Symbol::kEq : (c == '<' ? Symbol::kLt : Symbol::kGt), i,
           i + 1);
      ++i;
      continue;
    }
    if (Symbol punct = PunctSymbol(c); punct != Symbol::kNone) {
      push(TokenKind::kPunct, punct, i, i + 1);
      ++i;
      continue;
    }
    return error(std::string("unexpected character '") + c + "'");
  }
  tokens.push_back(
      {TokenKind::kEof, Symbol::kNone, static_cast<uint32_t>(n), {}});
  return list;
}

}  // namespace kgqan::sparql
