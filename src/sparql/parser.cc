#include "sparql/parser.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sparql/lexer.h"
#include "util/string_util.h"

namespace kgqan::sparql {

namespace {

using util::Status;
using util::StatusOr;

// Terms are built straight from the token views: the only strings a parse
// allocates are the AST's own.
class Parser {
 public:
  explicit Parser(const TokenList& tokens) : tokens_(tokens) {}

  StatusOr<Query> Parse() {
    Query query;
    KGQAN_RETURN_IF_ERROR(ParsePrologue());
    if (Consume(Symbol::kSelect)) {
      query.form = Query::Form::kSelect;
      KGQAN_RETURN_IF_ERROR(ParseSelectClause(&query));
      // WHERE keyword is optional in SPARQL.
      Consume(Symbol::kWhere);
      KGQAN_ASSIGN_OR_RETURN(query.where, ParseGroup());
      KGQAN_RETURN_IF_ERROR(ParseModifiers(&query));
    } else if (Consume(Symbol::kAsk)) {
      query.form = Query::Form::kAsk;
      KGQAN_ASSIGN_OR_RETURN(query.where, ParseGroup());
    } else {
      return Error("expected SELECT or ASK");
    }
    if (Peek().kind != TokenKind::kEof) return Error("trailing input");
    return query;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t idx = pos_ + ahead;
    if (idx >= tokens_.size()) idx = tokens_.size() - 1;
    return tokens_[idx];
  }
  const Token& Advance() { return tokens_[pos_++]; }
  std::string AdvanceText() { return std::string(Advance().text); }

  bool Check(Symbol symbol) const { return Peek().symbol == symbol; }
  bool Consume(Symbol symbol) {
    if (!Check(symbol)) return false;
    Advance();
    return true;
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " +
                              std::to_string(Peek().offset));
  }

  Status ParsePrologue() {
    while (Consume(Symbol::kPrefix)) {
      if (Peek().kind != TokenKind::kPname) {
        return Error("expected prefix name");
      }
      std::string_view pname = Advance().text;
      // pname is "pfx:"; strip the colon (local part is empty).
      std::string_view pfx = pname.substr(0, pname.find(':'));
      if (Peek().kind != TokenKind::kIriRef) {
        return Error("expected IRI after PREFIX");
      }
      std::string_view iri = Advance().text;
      // A later declaration of the same prefix wins.
      if (std::string_view* base = FindPrefix(pfx)) {
        *base = iri;
      } else {
        prefixes_.emplace_back(pfx, iri);
      }
    }
    return Status::Ok();
  }

  Status ParseSelectClause(Query* query) {
    if (Consume(Symbol::kDistinct)) query->distinct = true;
    if (Consume(Symbol::kStar)) {
      query->select_all = true;
      return Status::Ok();
    }
    bool any = false;
    while (true) {
      if (Peek().kind == TokenKind::kVar) {
        query->select_vars.push_back(Var{AdvanceText()});
        any = true;
        continue;
      }
      if (Consume(Symbol::kLParen)) {
        Aggregate agg;
        if (Consume(Symbol::kCount)) {
          agg.op = Aggregate::Op::kCount;
        } else if (Consume(Symbol::kMin)) {
          agg.op = Aggregate::Op::kMin;
        } else if (Consume(Symbol::kMax)) {
          agg.op = Aggregate::Op::kMax;
        } else if (Consume(Symbol::kSum)) {
          agg.op = Aggregate::Op::kSum;
        } else if (Consume(Symbol::kAvg)) {
          agg.op = Aggregate::Op::kAvg;
        } else {
          return Error("expected aggregate function");
        }
        if (!Consume(Symbol::kLParen)) {
          return Error("expected '(' after aggregate");
        }
        if (Consume(Symbol::kDistinct)) agg.distinct = true;
        if (Peek().kind != TokenKind::kVar) {
          return Error("expected variable in aggregate");
        }
        agg.var = Var{AdvanceText()};
        if (!Consume(Symbol::kRParen)) {
          return Error("expected ')' in aggregate");
        }
        if (!Consume(Symbol::kAs)) return Error("expected AS");
        if (Peek().kind != TokenKind::kVar) {
          return Error("expected alias variable");
        }
        agg.alias = Var{AdvanceText()};
        if (!Consume(Symbol::kRParen)) {
          return Error("expected ')' after alias");
        }
        query->aggregates.push_back(std::move(agg));
        any = true;
        continue;
      }
      break;
    }
    if (!any) return Error("empty SELECT clause");
    return Status::Ok();
  }

  Status ParseModifiers(Query* query) {
    while (true) {
      if (Consume(Symbol::kOrder)) {
        if (!Consume(Symbol::kBy)) return Error("expected BY after ORDER");
        bool any = false;
        while (true) {
          OrderKey key;
          if (Check(Symbol::kAsc) || Check(Symbol::kDesc)) {
            key.descending = Advance().symbol == Symbol::kDesc;
            if (!Consume(Symbol::kLParen)) return Error("expected '('");
            if (Peek().kind != TokenKind::kVar) {
              return Error("expected variable in ORDER BY");
            }
            key.var = Var{AdvanceText()};
            if (!Consume(Symbol::kRParen)) return Error("expected ')'");
          } else if (Peek().kind == TokenKind::kVar) {
            key.var = Var{AdvanceText()};
          } else {
            break;
          }
          query->order_by.push_back(std::move(key));
          any = true;
        }
        if (!any) return Error("empty ORDER BY");
        continue;
      }
      if (Consume(Symbol::kLimit)) {
        KGQAN_RETURN_IF_ERROR(ParseCount("LIMIT", &query->limit));
        continue;
      }
      if (Consume(Symbol::kOffset)) {
        KGQAN_RETURN_IF_ERROR(ParseCount("OFFSET", &query->offset));
        continue;
      }
      break;
    }
    return Status::Ok();
  }

  // The integer after LIMIT or OFFSET.  It counts rows, so a negative
  // value or one past size_t is an error, not a wrapped or thrown one.
  Status ParseCount(std::string_view keyword, size_t* out) {
    if (Peek().kind != TokenKind::kInteger) {
      return Error("expected integer after " + std::string(keyword));
    }
    std::string_view digits = Peek().text;
    uint64_t value = 0;
    auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), value);
    if (ec != std::errc() || end != digits.data() + digits.size() ||
        value > std::numeric_limits<size_t>::max()) {
      return Error(std::string(keyword) +
                   " must be a non-negative integer that fits 64 bits");
    }
    Advance();
    *out = static_cast<size_t>(value);
    return Status::Ok();
  }

  // The IRI declared for prefix `name`, or null.
  std::string_view* FindPrefix(std::string_view name) {
    for (auto& [declared, iri] : prefixes_) {
      if (declared == name) return &iri;
    }
    return nullptr;
  }

  // Expands `pname` into `iri`.
  Status ResolvePname(std::string_view pname, std::string* iri) {
    size_t colon = pname.find(':');
    std::string_view pfx = pname.substr(0, colon);
    std::string_view local = pname.substr(colon + 1);
    // `a` shorthand is handled by the caller; bif:contains passes through.
    if (pfx == "bif") {
      *iri = "bif:";
    } else {
      const std::string_view* base = FindPrefix(pfx);
      if (base == nullptr) {
        return Status::ParseError("unknown prefix '" + std::string(pfx) +
                                  "'");
      }
      *iri = *base;
    }
    *iri += local;
    return Status::Ok();
  }

  static rdf::Term& EmplaceTerm(TermOrVar* out, rdf::TermKind kind,
                                std::string_view value) {
    rdf::Term& term = out->emplace<rdf::Term>();
    term.kind = kind;
    term.value = value;
    return term;
  }

  // Parses one term-or-var into `out`, built in place from the token
  // views; handles IRIs, pnames, literals, vars.
  Status ParseTermOrVar(TermOrVar* out) {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kVar:
        out->emplace<Var>().name = Advance().text;
        return Status::Ok();
      case TokenKind::kIriRef:
        EmplaceTerm(out, rdf::TermKind::kIri, Advance().text);
        return Status::Ok();
      case TokenKind::kPname:
        return ResolvePname(
            Advance().text,
            &EmplaceTerm(out, rdf::TermKind::kIri, {}).value);
      case TokenKind::kString: {
        rdf::Term& term =
            EmplaceTerm(out, rdf::TermKind::kLiteral, Advance().text);
        if (Peek().kind == TokenKind::kLangTag) {
          term.lang = Advance().text;
          return Status::Ok();
        }
        if (Peek().kind == TokenKind::kDtSep) {
          Advance();
          if (Peek().kind == TokenKind::kIriRef) {
            term.datatype = Advance().text;
            return Status::Ok();
          }
          if (Peek().kind == TokenKind::kPname) {
            return ResolvePname(Advance().text, &term.datatype);
          }
          return Error("expected datatype IRI");
        }
        term.datatype = rdf::vocab::kXsdString;
        return Status::Ok();
      }
      case TokenKind::kInteger:
        EmplaceTerm(out, rdf::TermKind::kLiteral, Advance().text).datatype =
            rdf::vocab::kXsdInteger;
        return Status::Ok();
      case TokenKind::kDecimal:
        EmplaceTerm(out, rdf::TermKind::kLiteral, Advance().text).datatype =
            rdf::vocab::kXsdDouble;
        return Status::Ok();
      case TokenKind::kBoolean:
        EmplaceTerm(out, rdf::TermKind::kLiteral, Advance().text).datatype =
            rdf::vocab::kXsdBoolean;
        return Status::Ok();
      default:
        return Error("expected term or variable");
    }
  }

  StatusOr<GroupGraphPattern> ParseGroup() {
    if (!Consume(Symbol::kLBrace)) return Error("expected '{'");
    GroupGraphPattern group;
    while (!Check(Symbol::kRBrace)) {
      if (Peek().kind == TokenKind::kEof) return Error("unterminated group");
      if (Check(Symbol::kLBrace)) {
        // `{A} UNION {B} [UNION {C} ...]` block.
        std::vector<GroupGraphPattern> branches;
        KGQAN_ASSIGN_OR_RETURN(GroupGraphPattern first, ParseGroup());
        branches.push_back(std::move(first));
        while (Consume(Symbol::kUnion)) {
          KGQAN_ASSIGN_OR_RETURN(GroupGraphPattern next, ParseGroup());
          branches.push_back(std::move(next));
        }
        group.unions.push_back(std::move(branches));
        Consume(Symbol::kDot);
        continue;
      }
      if (Consume(Symbol::kOptional)) {
        KGQAN_ASSIGN_OR_RETURN(GroupGraphPattern opt, ParseGroup());
        group.optionals.push_back(std::move(opt));
        Consume(Symbol::kDot);
        continue;
      }
      if (Consume(Symbol::kValues)) {
        if (Peek().kind != TokenKind::kVar) {
          return Error("expected variable after VALUES");
        }
        InlineValues iv;
        iv.var = Var{AdvanceText()};
        if (!Consume(Symbol::kLBrace)) {
          return Error("expected '{' after VALUES");
        }
        while (!Check(Symbol::kRBrace)) {
          if (Peek().kind == TokenKind::kEof) {
            return Error("unterminated VALUES block");
          }
          TermOrVar tv;
          KGQAN_RETURN_IF_ERROR(ParseTermOrVar(&tv));
          if (IsVar(tv)) return Error("VALUES entries must be terms");
          iv.values.push_back(std::get<rdf::Term>(std::move(tv)));
        }
        Advance();  // '}'
        group.values.push_back(std::move(iv));
        Consume(Symbol::kDot);
        continue;
      }
      if (Consume(Symbol::kFilter)) {
        if (!Consume(Symbol::kLParen)) {
          return Error("expected '(' after FILTER");
        }
        KGQAN_ASSIGN_OR_RETURN(Expr e, ParseOrExpr());
        if (!Consume(Symbol::kRParen)) {
          return Error("expected ')' after FILTER");
        }
        group.filters.push_back(std::move(e));
        Consume(Symbol::kDot);
        continue;
      }
      KGQAN_RETURN_IF_ERROR(ParseTriplesSameSubject(&group));
      Consume(Symbol::kDot);
    }
    Advance();  // '}'
    return group;
  }

  // Parses `subject predicate object (';' predicate object)*`.
  Status ParseTriplesSameSubject(GroupGraphPattern* group) {
    TermOrVar subject;
    KGQAN_RETURN_IF_ERROR(ParseTermOrVar(&subject));
    while (true) {
      // Predicate: term, var, or the `a` keyword is not produced by our
      // lexer (it errors on bare words), so rdf:type must be written
      // explicitly.
      TermOrVar pred;
      KGQAN_RETURN_IF_ERROR(ParseTermOrVar(&pred));
      // bif:contains text pattern?
      if (!IsVar(pred) && AsTerm(pred).IsIri() &&
          AsTerm(pred).value == "bif:contains") {
        if (!IsVar(subject)) {
          return Error("bif:contains subject must be a variable");
        }
        if (Peek().kind != TokenKind::kString) {
          return Error("bif:contains object must be a string");
        }
        group->text_patterns.push_back(
            TextPattern{AsVar(subject), AdvanceText()});
      } else {
        TriplePattern& triple = group->triples.emplace_back();
        triple.p = std::move(pred);
        KGQAN_RETURN_IF_ERROR(ParseTermOrVar(&triple.o));
        // The subject is copied only when a ';' list reuses it.
        if (!Check(Symbol::kSemicolon)) {
          triple.s = std::move(subject);
          break;
        }
        triple.s = subject;
      }
      if (Consume(Symbol::kSemicolon)) continue;
      break;
    }
    return Status::Ok();
  }

  StatusOr<Expr> ParseOrExpr() {
    KGQAN_ASSIGN_OR_RETURN(Expr lhs, ParseAndExpr());
    while (Consume(Symbol::kOr)) {
      KGQAN_ASSIGN_OR_RETURN(Expr rhs, ParseAndExpr());
      Expr node;
      node.op = ExprOp::kOr;
      node.lhs = std::make_unique<Expr>(std::move(lhs));
      node.rhs = std::make_unique<Expr>(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  StatusOr<Expr> ParseAndExpr() {
    KGQAN_ASSIGN_OR_RETURN(Expr lhs, ParseCmpExpr());
    while (Consume(Symbol::kAnd)) {
      KGQAN_ASSIGN_OR_RETURN(Expr rhs, ParseCmpExpr());
      Expr node;
      node.op = ExprOp::kAnd;
      node.lhs = std::make_unique<Expr>(std::move(lhs));
      node.rhs = std::make_unique<Expr>(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  StatusOr<Expr> ParseCmpExpr() {
    KGQAN_ASSIGN_OR_RETURN(Expr lhs, ParseUnaryExpr());
    // Consume only comparison operators here; `&&` and `||` belong to the
    // enclosing precedence levels (e.g. `CONTAINS(...) || BOUND(?x)` has a
    // non-comparison operand before the `||`).
    if (Peek().kind == TokenKind::kOp && !Check(Symbol::kAnd) &&
        !Check(Symbol::kOr)) {
      const Token& op = Advance();
      KGQAN_ASSIGN_OR_RETURN(Expr rhs, ParseUnaryExpr());
      Expr node;
      switch (op.symbol) {
        case Symbol::kEq:
          node.op = ExprOp::kEq;
          break;
        case Symbol::kNe:
          node.op = ExprOp::kNe;
          break;
        case Symbol::kLt:
          node.op = ExprOp::kLt;
          break;
        case Symbol::kLe:
          node.op = ExprOp::kLe;
          break;
        case Symbol::kGt:
          node.op = ExprOp::kGt;
          break;
        case Symbol::kGe:
          node.op = ExprOp::kGe;
          break;
        default:
          return Error("unexpected operator '" + std::string(op.text) + "'");
      }
      node.lhs = std::make_unique<Expr>(std::move(lhs));
      node.rhs = std::make_unique<Expr>(std::move(rhs));
      return node;
    }
    return lhs;
  }

  StatusOr<Expr> ParseUnaryExpr() {
    if (Consume(Symbol::kBang)) {
      KGQAN_ASSIGN_OR_RETURN(Expr inner, ParseUnaryExpr());
      Expr node;
      node.op = ExprOp::kNot;
      node.lhs = std::make_unique<Expr>(std::move(inner));
      return node;
    }
    if (Consume(Symbol::kLParen)) {
      KGQAN_ASSIGN_OR_RETURN(Expr inner, ParseOrExpr());
      if (!Consume(Symbol::kRParen)) return Error("expected ')'");
      return inner;
    }
    if (Consume(Symbol::kBound)) {
      if (!Consume(Symbol::kLParen)) return Error("expected '(' after BOUND");
      if (Peek().kind != TokenKind::kVar) {
        return Error("expected variable in BOUND");
      }
      Expr node;
      node.op = ExprOp::kBound;
      node.var = Var{AdvanceText()};
      if (!Consume(Symbol::kRParen)) return Error("expected ')' after BOUND");
      return node;
    }
    // Built-in functions.
    for (auto [keyword, op, arity] :
         {std::tuple<Symbol, ExprOp, int>{Symbol::kRegex, ExprOp::kRegex, 2},
          {Symbol::kContains, ExprOp::kContains, 2},
          {Symbol::kStr, ExprOp::kStr, 1},
          {Symbol::kLang, ExprOp::kLang, 1},
          {Symbol::kIsIri, ExprOp::kIsIri, 1},
          {Symbol::kIsLiteral, ExprOp::kIsLiteral, 1}}) {
      if (!Consume(keyword)) continue;
      if (!Consume(Symbol::kLParen)) {
        return Error("expected '(' after function");
      }
      Expr node;
      node.op = op;
      KGQAN_ASSIGN_OR_RETURN(Expr first, ParseOrExpr());
      node.lhs = std::make_unique<Expr>(std::move(first));
      if (arity == 2) {
        if (!Consume(Symbol::kComma)) return Error("expected ',' in function");
        KGQAN_ASSIGN_OR_RETURN(Expr second, ParseOrExpr());
        node.rhs = std::make_unique<Expr>(std::move(second));
      }
      if (!Consume(Symbol::kRParen)) {
        return Error("expected ')' after function");
      }
      return node;
    }
    TermOrVar tv;
    KGQAN_RETURN_IF_ERROR(ParseTermOrVar(&tv));
    Expr node;
    if (IsVar(tv)) {
      node.op = ExprOp::kVar;
      node.var = std::get<Var>(std::move(tv));
    } else {
      node.op = ExprOp::kConstant;
      node.constant = std::get<rdf::Term>(std::move(tv));
    }
    return node;
  }

  const TokenList& tokens_;
  size_t pos_ = 0;
  // PREFIX declarations: (name, IRI) views into the query text.
  std::vector<std::pair<std::string_view, std::string_view>> prefixes_;
};

}  // namespace

StatusOr<Query> ParseQuery(std::string_view text) {
  KGQAN_ASSIGN_OR_RETURN(TokenList tokens, Lex(text));
  return Parser(tokens).Parse();
}

}  // namespace kgqan::sparql
