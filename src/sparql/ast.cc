#include "sparql/ast.h"

namespace kgqan::sparql {

namespace {

std::string Indent(int n) { return std::string(static_cast<size_t>(n), ' '); }

const char* OpText(ExprOp op) {
  switch (op) {
    case ExprOp::kEq:
      return "=";
    case ExprOp::kNe:
      return "!=";
    case ExprOp::kLt:
      return "<";
    case ExprOp::kLe:
      return "<=";
    case ExprOp::kGt:
      return ">";
    case ExprOp::kGe:
      return ">=";
    case ExprOp::kAnd:
      return "&&";
    case ExprOp::kOr:
      return "||";
    default:
      return "?";
  }
}

}  // namespace

bool operator==(const Expr& a, const Expr& b) {
  auto child_eq = [](const std::unique_ptr<Expr>& x,
                     const std::unique_ptr<Expr>& y) {
    if (!x || !y) return !x && !y;
    return *x == *y;
  };
  return a.op == b.op && a.var == b.var && a.constant == b.constant &&
         child_eq(a.lhs, b.lhs) && child_eq(a.rhs, b.rhs);
}

std::string ToSparql(const TermOrVar& tv) {
  if (IsVar(tv)) return "?" + AsVar(tv).name;
  return rdf::ToNTriples(AsTerm(tv));
}

std::string ToSparql(const Expr& expr) {
  switch (expr.op) {
    case ExprOp::kVar:
      return "?" + expr.var.name;
    case ExprOp::kConstant:
      return rdf::ToNTriples(expr.constant);
    case ExprOp::kBound:
      return "BOUND(?" + expr.var.name + ")";
    case ExprOp::kNot:
      return "!(" + ToSparql(*expr.lhs) + ")";
    case ExprOp::kRegex:
      return "REGEX(" + ToSparql(*expr.lhs) + ", " + ToSparql(*expr.rhs) +
             ")";
    case ExprOp::kContains:
      return "CONTAINS(" + ToSparql(*expr.lhs) + ", " +
             ToSparql(*expr.rhs) + ")";
    case ExprOp::kStr:
      return "STR(" + ToSparql(*expr.lhs) + ")";
    case ExprOp::kLang:
      return "LANG(" + ToSparql(*expr.lhs) + ")";
    case ExprOp::kIsIri:
      return "isIRI(" + ToSparql(*expr.lhs) + ")";
    case ExprOp::kIsLiteral:
      return "isLITERAL(" + ToSparql(*expr.lhs) + ")";
    default:
      return "(" + ToSparql(*expr.lhs) + " " + OpText(expr.op) + " " +
             ToSparql(*expr.rhs) + ")";
  }
}

std::string ToSparql(const GroupGraphPattern& group, int indent) {
  std::string out = "{\n";
  for (const TriplePattern& tp : group.triples) {
    out += Indent(indent + 2) + ToSparql(tp.s) + " " + ToSparql(tp.p) + " " +
           ToSparql(tp.o) + " .\n";
  }
  for (const TextPattern& tp : group.text_patterns) {
    // Escaped like a string literal, so a quote in the expression
    // survives a reparse.
    out += Indent(indent + 2) + "?" + tp.var.name + " <bif:contains> " +
           rdf::ToNTriples(rdf::StringLiteral(tp.expr)) + " .\n";
  }
  for (const InlineValues& iv : group.values) {
    out += Indent(indent + 2) + "VALUES ?" + iv.var.name + " {";
    for (const rdf::Term& t : iv.values) {
      out += ' ';
      out += rdf::ToNTriples(t);
    }
    out += " }\n";
  }
  for (const Expr& f : group.filters) {
    out += Indent(indent + 2) + "FILTER (" + ToSparql(f) + ")\n";
  }
  for (const auto& branches : group.unions) {
    out += Indent(indent + 2);
    for (size_t i = 0; i < branches.size(); ++i) {
      if (i > 0) out += Indent(indent + 2) + "UNION ";
      out += ToSparql(branches[i], indent + 2);
    }
  }
  for (const GroupGraphPattern& opt : group.optionals) {
    out += Indent(indent + 2) + "OPTIONAL " + ToSparql(opt, indent + 2);
  }
  out += Indent(indent) + "}\n";
  return out;
}

namespace {

const char* AggregateName(Aggregate::Op op) {
  switch (op) {
    case Aggregate::Op::kCount:
      return "COUNT";
    case Aggregate::Op::kMin:
      return "MIN";
    case Aggregate::Op::kMax:
      return "MAX";
    case Aggregate::Op::kSum:
      return "SUM";
    case Aggregate::Op::kAvg:
      return "AVG";
  }
  return "COUNT";
}

}  // namespace

std::string ToSparql(const Query& query) {
  std::string out;
  if (query.form == Query::Form::kAsk) {
    out = "ASK ";
  } else {
    out = "SELECT ";
    if (query.distinct) out += "DISTINCT ";
    if (query.select_all) {
      out += "* ";
    } else {
      for (const Aggregate& agg : query.aggregates) {
        out += "(" + std::string(AggregateName(agg.op)) + "(";
        if (agg.distinct) out += "DISTINCT ";
        out += "?" + agg.var.name + ") AS ?" + agg.alias.name + ") ";
      }
      for (const Var& v : query.select_vars) out += "?" + v.name + " ";
    }
    out += "WHERE ";
  }
  out += ToSparql(query.where, 0);
  if (!query.order_by.empty()) {
    out += "ORDER BY";
    for (const OrderKey& key : query.order_by) {
      if (key.descending) {
        out += " DESC(?" + key.var.name + ")";
      } else {
        out += " ?" + key.var.name;
      }
    }
    out += "\n";
  }
  if (query.limit > 0) out += "LIMIT " + std::to_string(query.limit) + "\n";
  if (query.offset > 0) {
    out += "OFFSET " + std::to_string(query.offset) + "\n";
  }
  return out;
}

}  // namespace kgqan::sparql
