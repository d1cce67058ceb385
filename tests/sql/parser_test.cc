#include "sql/parser.h"

#include <gtest/gtest.h>

#include "testing/helpers.h"

namespace htl::sql {
namespace {

Statement MustParse(std::string_view text) {
  auto r = ParseStatement(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
  return r.ok() ? std::move(r).value() : Statement{};
}

TEST(SqlParserTest, SimpleSelect) {
  Statement s = MustParse("SELECT a, b FROM t");
  EXPECT_EQ(s.kind, Statement::Kind::kSelect);
  ASSERT_EQ(s.select->items.size(), 2u);
  EXPECT_EQ(s.select->items[0].expr->column, "a");
  ASSERT_EQ(s.select->from.size(), 1u);
  EXPECT_EQ(s.select->from[0].table, "t");
  EXPECT_EQ(s.select->from[0].alias, "t");
}

TEST(SqlParserTest, SelectStar) {
  Statement s = MustParse("SELECT * FROM t");
  EXPECT_EQ(s.select->items[0].expr->kind, ExprKind::kStar);
}

TEST(SqlParserTest, Aliases) {
  Statement s = MustParse("SELECT a AS x, b y FROM t u");
  EXPECT_EQ(s.select->items[0].alias, "x");
  EXPECT_EQ(s.select->items[1].alias, "y");
  EXPECT_EQ(s.select->from[0].alias, "u");
}

TEST(SqlParserTest, QualifiedColumns) {
  Statement s = MustParse("SELECT t.a FROM t");
  EXPECT_EQ(s.select->items[0].expr->table_alias, "t");
  EXPECT_EQ(s.select->items[0].expr->column, "a");
}

TEST(SqlParserTest, JoinKinds) {
  Statement s = MustParse(
      "SELECT a.x FROM a JOIN b ON a.x = b.x LEFT JOIN c ON c.y = a.x, d");
  ASSERT_EQ(s.select->from.size(), 4u);
  EXPECT_EQ(s.select->from[1].join, JoinType::kInner);
  EXPECT_NE(s.select->from[1].on, nullptr);
  EXPECT_EQ(s.select->from[2].join, JoinType::kLeft);
  EXPECT_EQ(s.select->from[3].join, JoinType::kCross);
  EXPECT_EQ(s.select->from[3].on, nullptr);
}

// HAVING, ORDER BY and LIMIT are outside the dialect (see
// OnlyTheTranslatorsDialectParses); WHERE and GROUP BY remain.
TEST(SqlParserTest, WhereGroupHavingOrderLimit) {
  Statement s = MustParse(
      "SELECT x, id, MAX(act) AS act FROM t WHERE act >= 1.5 GROUP BY x, id");
  EXPECT_NE(s.select->where, nullptr);
  EXPECT_EQ(s.select->group_by.size(), 2u);
}

TEST(SqlParserTest, UnionAllChains) {
  Statement s = MustParse("SELECT a FROM t UNION ALL SELECT a FROM u UNION ALL SELECT a FROM v");
  ASSERT_NE(s.select->union_all, nullptr);
  ASSERT_NE(s.select->union_all->union_all, nullptr);
}

TEST(SqlParserTest, ExpressionPrecedence) {
  Statement s = MustParse("SELECT a + b * 2 - 1 FROM t");
  const Expr* e = s.select->items[0].expr.get();
  // ((a + (b*2)) - 1)
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->op, "-");
  EXPECT_EQ(e->args[0]->op, "+");
  EXPECT_EQ(e->args[0]->args[1]->op, "*");
}

TEST(SqlParserTest, BooleanPrecedence) {
  Statement s = MustParse("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3");
  const Expr* w = s.select->where.get();
  EXPECT_EQ(w->op, "or");
  EXPECT_EQ(w->args[1]->op, "and");
}

TEST(SqlParserTest, IsNullForms) {
  Statement s = MustParse("SELECT 1 FROM t WHERE a IS NULL AND b IS NOT NULL");
  const Expr* w = s.select->where.get();
  EXPECT_EQ(w->args[0]->kind, ExprKind::kIsNull);
  EXPECT_FALSE(w->args[0]->is_not_null);
  EXPECT_TRUE(w->args[1]->is_not_null);
}

TEST(SqlParserTest, FunctionsAndAggregates) {
  Statement s = MustParse(
      "SELECT MAX(a), LEAST(a, b), GREATEST(a, b, 3), COALESCE(a, 0) FROM t");
  const auto& items = s.select->items;
  EXPECT_EQ(items[0].expr->kind, ExprKind::kAggregate);
  EXPECT_EQ(items[0].expr->fn, "max");
  EXPECT_EQ(items[1].expr->kind, ExprKind::kFunction);
  EXPECT_EQ(items[2].expr->args.size(), 3u);
  EXPECT_EQ(items[3].expr->fn, "coalesce");
}

TEST(SqlParserTest, UnknownFunctionRejected) {
  EXPECT_FALSE(ParseStatement("SELECT FOO(a) FROM t").ok());
}

TEST(SqlParserTest, CreateTableAs) {
  Statement s = MustParse("CREATE TABLE out AS SELECT a FROM t");
  EXPECT_EQ(s.kind, Statement::Kind::kCreateTableAs);
  EXPECT_EQ(s.table, "out");
  EXPECT_NE(s.select, nullptr);
}

TEST(SqlParserTest, DropTable) {
  Statement s = MustParse("DROP TABLE IF EXISTS t");
  EXPECT_EQ(s.kind, Statement::Kind::kDropTable);
  EXPECT_TRUE(s.if_exists);
  EXPECT_FALSE(MustParse("DROP TABLE t").if_exists);
}

TEST(SqlParserTest, ScriptSplitsOnSemicolons) {
  auto r = ParseScript(
      "DROP TABLE IF EXISTS t; CREATE TABLE t AS SELECT a FROM u; SELECT a FROM t;");
  ASSERT_OK(r.status());
  EXPECT_EQ(r.value().size(), 3u);
}

TEST(SqlParserTest, NegativeNumbersAndUnaryMinus) {
  Statement s = MustParse("SELECT -a, 3 - 4 FROM t WHERE a > -2");
  EXPECT_EQ(s.select->items[0].expr->kind, ExprKind::kUnary);
}

TEST(SqlParserTest, CommentsSkipped) {
  Statement s = MustParse("SELECT a FROM t -- trailing comment\n WHERE a = 1");
  EXPECT_NE(s.select->where, nullptr);
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("SELECT").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM").ok());
  EXPECT_FALSE(ParseStatement("BANANA").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t; SELECT b FROM t").ok());  // Two stmts.
}

// The engine parses exactly the SQL TranslateToSql writes: every statement
// below is standard SQL that no translation contains, and each is a
// ParseError rather than a feature kept for tests alone.
TEST(SqlParserTest, OnlyTheTranslatorsDialectParses) {
  for (const char* text : {
           "SELECT a FROM t ORDER BY a",
           "SELECT a FROM t LIMIT 1",
           "SELECT a, MAX(b) FROM t GROUP BY a HAVING MAX(b) > 1",
           "SELECT a FROM t WHERE a BETWEEN 1 AND 2",
           "SELECT a FROM t WHERE a IN (1, 2)",
           "SELECT COUNT(*) FROM t",
           "SELECT SUM(a) FROM t",
           "SELECT MIN(a) FROM t",
           "SELECT AVG(a) FROM t",
           "SELECT ABS(a) FROM t",
           "SELECT a FROM t LEFT OUTER JOIN u ON u.a = t.a",
           "CREATE TABLE t (a)",
           "INSERT INTO t VALUES (1)",
           "INSERT INTO t SELECT a FROM u",
       }) {
    EXPECT_EQ(ParseStatement(text).status().code(), StatusCode::kParseError) << text;
  }
}

TEST(SqlParserTest, NotEqualSpellings) {
  Statement s = MustParse("SELECT 1 FROM t WHERE a != 1 AND b <> 2");
  EXPECT_EQ(s.select->where->args[0]->op, "!=");
  EXPECT_EQ(s.select->where->args[1]->op, "!=");
}

}  // namespace
}  // namespace htl::sql
