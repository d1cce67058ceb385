#include "sql/ast.h"

#include "util/string_util.h"

namespace htl::sql {

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kColumn:
      return table_alias.empty() ? column : StrCat(table_alias, ".", column);
    case ExprKind::kStar:
      return "*";
    case ExprKind::kUnary:
      return StrCat(op, " (", args[0]->ToString(), ")");
    case ExprKind::kBinary:
      return StrCat("(", args[0]->ToString(), " ", op, " ", args[1]->ToString(), ")");
    case ExprKind::kFunction:
    case ExprKind::kAggregate: {
      std::string inner;
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) inner += ", ";
        inner += args[i]->ToString();
      }
      return StrCat(fn, "(", inner, ")");
    }
    case ExprKind::kIsNull:
      return StrCat(args[0]->ToString(), is_not_null ? " is not null" : " is null");
  }
  return "?";
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumn(std::string table_alias, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumn;
  e->table_alias = std::move(table_alias);
  e->column = std::move(column);
  return e;
}

ExprPtr MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = std::move(op);
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

}  // namespace htl::sql
