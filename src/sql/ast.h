#ifndef HTL_SQL_AST_H_
#define HTL_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "sql/value.h"

namespace htl::sql {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kLiteral,    // 42, 3.5, 'abc', NULL
  kColumn,     // col or alias.col
  kStar,       // * (select list only)
  kUnary,      // -x, NOT x
  kBinary,     // arithmetic, comparison, AND, OR
  kFunction,   // LEAST, GREATEST, COALESCE
  kAggregate,  // MAX
  kIsNull,     // x IS [NOT] NULL
};

/// A SQL scalar expression tree.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;
  Value literal;                 // kLiteral
  std::string table_alias;       // kColumn (may be empty)
  std::string column;            // kColumn
  std::string op;                // kUnary/kBinary: "-","not","+","*","/","=","!=",
                                 // "<","<=",">",">=","and","or"
  std::string fn;                // kFunction/kAggregate name, lower-cased
  bool is_not_null = false;      // kIsNull: IS NOT NULL
  std::vector<ExprPtr> args;

  std::string ToString() const;
};

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumn(std::string table_alias, std::string column);
ExprPtr MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs);

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // Output column name; derived when empty.
};

enum class JoinType { kCross, kInner, kLeft };

struct TableRef {
  std::string table;
  std::string alias;  // Defaults to the table name.
  JoinType join = JoinType::kCross;
  ExprPtr on;  // Null for kCross.
};

/// SELECT [DISTINCT] ... FROM ... [WHERE] [GROUP BY] [UNION ALL SELECT ...].
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;  // Empty FROM allowed (SELECT 1).
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  std::unique_ptr<SelectStmt> union_all;  // Chained UNION ALL branch.
};

/// One statement of the dialect the HTL translator writes.
struct Statement {
  enum class Kind {
    kSelect,         // SELECT ...
    kCreateTableAs,  // CREATE TABLE t AS SELECT ...
    kDropTable,      // DROP TABLE [IF EXISTS] t
  };

  Kind kind = Kind::kSelect;
  std::string table;                   // Target for create/drop.
  std::unique_ptr<SelectStmt> select;  // kSelect and kCreateTableAs.
  bool if_exists = false;              // DROP TABLE IF EXISTS.
};

}  // namespace htl::sql

#endif  // HTL_SQL_AST_H_
