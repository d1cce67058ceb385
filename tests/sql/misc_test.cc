// Odds and ends of the SQL substrate: executor counters, printers, and the
// translation's script rendering.

#include <gtest/gtest.h>

#include "htl/parser.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/translator.h"
#include "testing/helpers.h"

namespace htl::sql {
namespace {

// The executor counts its work only in the registry's sql.* counters.
using testing::CounterDelta;
using testing::ScopedMetrics;

TEST(ExecutorStatsTest, CountsStatementsAndRows) {
  ScopedMetrics metrics;
  CounterDelta statements("sql.statements");
  CounterDelta rows_materialized("sql.rows_materialized");
  Catalog catalog;
  Table t({"a"});
  for (int64_t a = 1; a <= 3; ++a) t.AddRow({Value(a)});
  catalog.CreateOrReplace("t", std::move(t));
  Executor exec(&catalog);
  ASSERT_OK(exec.ExecuteSql("DROP TABLE IF EXISTS u").status());
  ASSERT_OK(exec.ExecuteSql("CREATE TABLE u AS SELECT a FROM t").status());
  ASSERT_OK(exec.ExecuteSql("SELECT a FROM u WHERE a >= 2").status());
  EXPECT_EQ(statements.value(), 3);
  EXPECT_EQ(rows_materialized.value(), 5);  // 3 copied into u + 2 selected.
}

TEST(ExecutorStatsTest, JoinStrategyCounters) {
  ScopedMetrics metrics;
  CounterDelta hash_joins("sql.hash_joins");
  CounterDelta range_joins("sql.range_joins");
  CounterDelta loop_joins("sql.loop_joins");
  Catalog catalog;
  Table t({"a"});
  t.AddRow({Value(int64_t{1})});
  catalog.CreateOrReplace("t", std::move(t));
  Executor exec(&catalog);
  ASSERT_OK(exec.ExecuteSql("SELECT x.a FROM t x JOIN t y ON y.a = x.a").status());
  ASSERT_OK(
      exec.ExecuteSql("SELECT x.a FROM t x JOIN t y ON y.a >= x.a").status());
  ASSERT_OK(exec.ExecuteSql("SELECT x.a FROM t x, t y").status());
  EXPECT_EQ(hash_joins.value(), 1);
  EXPECT_EQ(range_joins.value(), 1);
  EXPECT_EQ(loop_joins.value(), 1);
}

TEST(SqlTablePrinterTest, RendersRowsAndTruncates) {
  Table t({"a", "b"});
  for (int64_t i = 0; i < 5; ++i) t.AddRow({Value(i), Value("x")});
  const std::string full = t.ToString();
  EXPECT_NE(full.find("a | b"), std::string::npos);
  EXPECT_NE(full.find("4 | 'x'"), std::string::npos);
  const std::string cut = t.ToString(2);
  EXPECT_NE(cut.find("more rows"), std::string::npos);
  EXPECT_EQ(cut.find("4 | 'x'"), std::string::npos);
}

TEST(SqlExprPrinterTest, RendersOperatorsAndCalls) {
  auto stmt = ParseStatement(
      "SELECT MAX(a), LEAST(a, 1) FROM t WHERE NOT (a + 1 = 2) AND b IS NOT NULL");
  ASSERT_OK(stmt.status());
  EXPECT_EQ(stmt.value().select->items[0].expr->ToString(), "max(a)");
  EXPECT_EQ(stmt.value().select->items[1].expr->ToString(), "least(a, 1)");
  const std::string where = stmt.value().select->where->ToString();
  EXPECT_NE(where.find("not (((a + 1) = 2))"), std::string::npos);
  EXPECT_NE(where.find("b is not null"), std::string::npos);
}

TEST(TranslationScriptTest, JoinsStatementsWithSemicolons) {
  auto f = ParseFormula("p() and q()");
  ASSERT_OK(f.status());
  ASSERT_OK_AND_ASSIGN(Translation tr,
                       TranslateToSql(*f.value(), {{"p", 1.0}, {"q", 1.0}}, "s"));
  const std::string script = tr.Script();
  EXPECT_NE(script.find("DROP TABLE IF EXISTS s_t1;"), std::string::npos);
  EXPECT_NE(script.find("CREATE TABLE"), std::string::npos);
  // Script statement count matches the statements vector.
  size_t semis = 0;
  for (char c : script) semis += c == ';';
  EXPECT_EQ(semis, tr.statements.size() - 1);
}

TEST(TranslationScriptTest, InputsRegisteredOnce) {
  auto f = ParseFormula("p() and (p() until p())");
  ASSERT_OK(f.status());
  ASSERT_OK_AND_ASSIGN(Translation tr, TranslateToSql(*f.value(), {{"p", 2.0}}, "s"));
  EXPECT_EQ(tr.inputs.size(), 1u);  // p registered once despite 3 uses.
}

}  // namespace
}  // namespace htl::sql
