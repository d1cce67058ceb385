#include "sql/parser.h"

#include <algorithm>

#include "sql/lexer.h"
#include "util/string_util.h"

namespace htl::sql {

namespace {

bool IsFunctionName(const std::string& lower) {
  return lower == "least" || lower == "greatest" || lower == "coalesce";
}

class Parser {
 public:
  explicit Parser(std::vector<Tok> toks) : toks_(std::move(toks)) {}

  Result<std::vector<Statement>> ParseScript() {
    std::vector<Statement> out;
    while (true) {
      while (PeekSymbol(";")) ++pos_;
      if (Peek().kind == TokKind::kEnd) break;
      HTL_ASSIGN_OR_RETURN(Statement s, ParseStatement());
      out.push_back(std::move(s));
      if (!PeekSymbol(";") && Peek().kind != TokKind::kEnd) {
        return Error("expected ';' between statements");
      }
    }
    return out;
  }

  Result<Statement> ParseOne() {
    HTL_ASSIGN_OR_RETURN(Statement s, ParseStatement());
    while (PeekSymbol(";")) ++pos_;
    if (Peek().kind != TokKind::kEnd) return Error("unexpected trailing tokens");
    return s;
  }

 private:
  const Tok& Peek() const { return toks_[std::min(pos_, toks_.size() - 1)]; }
  Tok Take() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  bool PeekKeyword(std::string_view kw) const {
    return Peek().kind == TokKind::kIdent && AsciiToLower(Peek().text) == kw;
  }
  bool TakeKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) return false;
    ++pos_;
    return true;
  }
  bool PeekSymbol(std::string_view sym) const {
    return Peek().kind == TokKind::kSymbol && Peek().text == sym;
  }
  bool TakeSymbol(std::string_view sym) {
    if (!PeekSymbol(sym)) return false;
    ++pos_;
    return true;
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError(StrCat(msg, " at offset ", Peek().offset));
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!TakeKeyword(kw)) return Error(StrCat("expected ", kw));
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view sym) {
    if (!TakeSymbol(sym)) return Error(StrCat("expected '", sym, "'"));
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) return Error("expected identifier");
    return Take().text;
  }

  Result<Statement> ParseStatement() {
    if (PeekKeyword("select")) {
      Statement s;
      s.kind = Statement::Kind::kSelect;
      HTL_ASSIGN_OR_RETURN(s.select, ParseSelect());
      return s;
    }
    if (TakeKeyword("create")) {
      HTL_RETURN_IF_ERROR(ExpectKeyword("table"));
      Statement s;
      s.kind = Statement::Kind::kCreateTableAs;
      HTL_ASSIGN_OR_RETURN(s.table, ExpectIdent());
      HTL_RETURN_IF_ERROR(ExpectKeyword("as"));
      HTL_ASSIGN_OR_RETURN(s.select, ParseSelect());
      return s;
    }
    if (TakeKeyword("drop")) {
      HTL_RETURN_IF_ERROR(ExpectKeyword("table"));
      Statement s;
      s.kind = Statement::Kind::kDropTable;
      if (TakeKeyword("if")) {
        HTL_RETURN_IF_ERROR(ExpectKeyword("exists"));
        s.if_exists = true;
      }
      HTL_ASSIGN_OR_RETURN(s.table, ExpectIdent());
      return s;
    }
    return Error("expected SELECT, CREATE, or DROP");
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    HTL_RETURN_IF_ERROR(ExpectKeyword("select"));
    auto stmt = std::make_unique<SelectStmt>();
    if (TakeKeyword("distinct")) stmt->distinct = true;
    while (true) {
      SelectItem item;
      if (TakeSymbol("*")) {
        item.expr = std::make_unique<Expr>();
        item.expr->kind = ExprKind::kStar;
      } else {
        HTL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (TakeKeyword("as")) {
          HTL_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
        } else if (Peek().kind == TokKind::kIdent && !IsClauseKeyword()) {
          item.alias = Take().text;
        }
      }
      stmt->items.push_back(std::move(item));
      if (TakeSymbol(",")) continue;
      break;
    }
    if (TakeKeyword("from")) {
      HTL_ASSIGN_OR_RETURN(TableRef first, ParseTableRef(JoinType::kCross));
      stmt->from.push_back(std::move(first));
      while (true) {
        if (TakeSymbol(",")) {
          HTL_ASSIGN_OR_RETURN(TableRef t, ParseTableRef(JoinType::kCross));
          stmt->from.push_back(std::move(t));
          continue;
        }
        JoinType jt;
        if (TakeKeyword("left")) {
          HTL_RETURN_IF_ERROR(ExpectKeyword("join"));
          jt = JoinType::kLeft;
        } else if (TakeKeyword("join")) {
          jt = JoinType::kInner;
        } else {
          break;
        }
        HTL_ASSIGN_OR_RETURN(TableRef t, ParseTableRef(jt));
        HTL_RETURN_IF_ERROR(ExpectKeyword("on"));
        HTL_ASSIGN_OR_RETURN(t.on, ParseExpr());
        stmt->from.push_back(std::move(t));
      }
    }
    if (TakeKeyword("where")) {
      HTL_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (TakeKeyword("group")) {
      HTL_RETURN_IF_ERROR(ExpectKeyword("by"));
      while (true) {
        HTL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
        if (TakeSymbol(",")) continue;
        break;
      }
    }
    if (TakeKeyword("union")) {
      HTL_RETURN_IF_ERROR(ExpectKeyword("all"));
      HTL_ASSIGN_OR_RETURN(stmt->union_all, ParseSelect());
    }
    return stmt;
  }

  bool IsClauseKeyword() const {
    static constexpr std::string_view kClauses[] = {
        "from", "where", "group", "union", "on", "left", "join", "as"};
    const std::string lower = AsciiToLower(Peek().text);
    for (std::string_view kw : kClauses) {
      if (lower == kw) return true;
    }
    return false;
  }

  Result<TableRef> ParseTableRef(JoinType jt) {
    TableRef ref;
    ref.join = jt;
    HTL_ASSIGN_OR_RETURN(ref.table, ExpectIdent());
    ref.alias = ref.table;
    if (TakeKeyword("as")) {
      HTL_ASSIGN_OR_RETURN(ref.alias, ExpectIdent());
    } else if (Peek().kind == TokKind::kIdent && !IsClauseKeyword()) {
      ref.alias = Take().text;
    }
    return ref;
  }

  // ---- Expressions -------------------------------------------------------

  /// Hard bound on expression recursion depth: `(((((...` / `NOT NOT ...`
  /// token soup returns ParseError instead of risking a stack overflow.
  /// One syntactic nesting level costs one tracked frame (counted at
  /// ParseExpr and the self-recursing unary productions).
  static constexpr int kMaxExprDepth = 256;

  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth_(depth) { ++*depth_; }
    ~DepthGuard() { --*depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    int* depth_;
  };

  Result<ExprPtr> ParseExpr() {
    DepthGuard guard(&expr_depth_);
    if (expr_depth_ > kMaxExprDepth) return Error("expression nesting too deep");
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    HTL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (TakeKeyword("or")) {
      HTL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeBinary("or", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    HTL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (TakeKeyword("and")) {
      HTL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = MakeBinary("and", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    DepthGuard guard(&expr_depth_);
    if (expr_depth_ > kMaxExprDepth) return Error("expression nesting too deep");
    if (TakeKeyword("not")) {
      HTL_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->op = "not";
      e->args.push_back(std::move(inner));
      return ExprPtr(std::move(e));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    HTL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdd());
    if (TakeKeyword("is")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      if (TakeKeyword("not")) e->is_not_null = true;
      HTL_RETURN_IF_ERROR(ExpectKeyword("null"));
      e->args.push_back(std::move(lhs));
      return ExprPtr(std::move(e));
    }
    for (std::string_view op : {"=", "!=", "<=", ">=", "<", ">"}) {
      if (PeekSymbol(op)) {
        ++pos_;
        HTL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdd());
        return MakeBinary(std::string(op), std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdd() {
    HTL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMul());
    while (PeekSymbol("+") || PeekSymbol("-")) {
      std::string op = Take().text;
      HTL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMul());
      lhs = MakeBinary(std::move(op), std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMul() {
    HTL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (PeekSymbol("*") || PeekSymbol("/")) {
      std::string op = Take().text;
      HTL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeBinary(std::move(op), std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    DepthGuard guard(&expr_depth_);
    if (expr_depth_ > kMaxExprDepth) return Error("expression nesting too deep");
    if (TakeSymbol("-")) {
      HTL_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->op = "-";
      e->args.push_back(std::move(inner));
      return ExprPtr(std::move(e));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Tok& t = Peek();
    if (t.kind == TokKind::kInt || t.kind == TokKind::kFloat) {
      return MakeLiteral(Take().number);
    }
    if (t.kind == TokKind::kString) {
      return MakeLiteral(Value(Take().string));
    }
    if (TakeSymbol("(")) {
      HTL_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      HTL_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    if (t.kind == TokKind::kIdent) {
      const std::string lower = AsciiToLower(t.text);
      if (lower == "null") {
        ++pos_;
        return MakeLiteral(Value::Null());
      }
      std::string name = Take().text;
      if (PeekSymbol("(")) {
        ++pos_;
        auto e = std::make_unique<Expr>();
        const std::string fn = AsciiToLower(name);
        if (fn == "max") {
          e->kind = ExprKind::kAggregate;
        } else if (IsFunctionName(fn)) {
          e->kind = ExprKind::kFunction;
        } else {
          return Error(StrCat("unknown function '", name, "'"));
        }
        e->fn = fn;
        while (true) {
          HTL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          e->args.push_back(std::move(arg));
          if (TakeSymbol(",")) continue;
          break;
        }
        HTL_RETURN_IF_ERROR(ExpectSymbol(")"));
        return ExprPtr(std::move(e));
      }
      if (TakeSymbol(".")) {
        HTL_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        return MakeColumn(std::move(name), std::move(col));
      }
      return MakeColumn("", std::move(name));
    }
    return Error("expected an expression");
  }

  std::vector<Tok> toks_;
  size_t pos_ = 0;
  int expr_depth_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view text) {
  HTL_ASSIGN_OR_RETURN(std::vector<Tok> toks, TokenizeSql(text));
  Parser p(std::move(toks));
  return p.ParseOne();
}

Result<std::vector<Statement>> ParseScript(std::string_view text) {
  HTL_ASSIGN_OR_RETURN(std::vector<Tok> toks, TokenizeSql(text));
  Parser p(std::move(toks));
  return p.ParseScript();
}

}  // namespace htl::sql
