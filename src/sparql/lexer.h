// Tokenizer for the SPARQL subset.  Token texts are views into the input,
// so lexing allocates the token vector and nothing per token.

#ifndef KGQAN_SPARQL_LEXER_H_
#define KGQAN_SPARQL_LEXER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace kgqan::sparql {

enum class TokenKind : uint8_t {
  kKeyword,    // SELECT, ASK, WHERE, DISTINCT, OPTIONAL, FILTER, LIMIT,
               // PREFIX, COUNT, AS, BOUND, ... (upper-case in `text`)
  kIriRef,     // <...> (text without brackets)
  kPname,      // prefix:local (text as written)
  kVar,        // ?name (text without '?')
  kString,     // "..." or '...' (unescaped text)
  kLangTag,    // @en (text without '@')
  kDtSep,      // ^^
  kInteger,    // 123 (also negative)
  kDecimal,    // 1.5
  kBoolean,    // true / false
  kPunct,      // one of { } ( ) . ; , * !
  kOp,         // = != < <= > >= && ||
  kEof,
};

// Which keyword, punctuation mark or operator a kKeyword, kPunct or kOp
// token is, so the parser compares integers rather than strings.  kNone
// for every other kind.
enum class Symbol : uint8_t {
  kNone,
  // Keywords.
  kSelect,
  kAsk,
  kWhere,
  kDistinct,
  kOptional,
  kFilter,
  kLimit,
  kPrefix,
  kCount,
  kAs,
  kBound,
  kUnion,
  kOrder,
  kBy,
  kAsc,
  kDesc,
  kOffset,
  kMin,
  kMax,
  kSum,
  kAvg,
  kRegex,
  kContains,
  kStr,
  kLang,
  kValues,
  kIsIri,
  kIsLiteral,
  // Punctuation.
  kLBrace,
  kRBrace,
  kLParen,
  kRParen,
  kDot,
  kSemicolon,
  kComma,
  kStar,
  kBang,
  // Operators.
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

// 24 bytes, so the token vector of an engine query stays small.
struct Token {
  TokenKind kind = TokenKind::kEof;
  Symbol symbol = Symbol::kNone;
  uint32_t offset = 0;  // Byte offset in the input, for error messages.
  // A view into the lexed input, except for keywords and booleans (static
  // canonical spellings) and string literals that contained escapes (the
  // token list's own buffer).
  std::string_view text;
};

// The tokens of one input; the final token is always kEof.  Texts view
// the input, which must outlive the list.
class TokenList {
 public:
  size_t size() const { return tokens_.size(); }
  const Token& operator[](size_t i) const { return tokens_[i]; }
  std::vector<Token>::const_iterator begin() const { return tokens_.begin(); }
  std::vector<Token>::const_iterator end() const { return tokens_.end(); }

 private:
  friend util::StatusOr<TokenList> Lex(std::string_view input);

  std::vector<Token> tokens_;
  // Unescaped string literals, allocated at the first escape with the
  // input's size (unescaping only shrinks text), so views never move.
  std::unique_ptr<char[]> unescaped_;
};

// Tokenizes `input`, which must be shorter than 4 GiB (offsets are 32-bit).
util::StatusOr<TokenList> Lex(std::string_view input);

}  // namespace kgqan::sparql

#endif  // KGQAN_SPARQL_LEXER_H_
