#include "sql/executor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/helpers.h"

namespace htl::sql {
namespace {

// The executor counts join strategies only in the registry's sql.* counters.
using testing::CounterDelta;
using testing::ScopedMetrics;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : exec_(&catalog_) {
    Table people({"id", "name", "age"});
    people.AddRow({Value(int64_t{1}), Value("ann"), Value(int64_t{30})});
    people.AddRow({Value(int64_t{2}), Value("bob"), Value(int64_t{25})});
    people.AddRow({Value(int64_t{3}), Value("cid"), Value(int64_t{35})});
    catalog_.CreateOrReplace("people", std::move(people));

    Table pets({"owner", "pet"});
    pets.AddRow({Value(int64_t{1}), Value("cat")});
    pets.AddRow({Value(int64_t{1}), Value("dog")});
    pets.AddRow({Value(int64_t{3}), Value("fish")});
    catalog_.CreateOrReplace("pets", std::move(pets));
  }

  Table Run(std::string_view sql) {
    auto r = exec_.ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << sql;
    return r.ok() ? std::move(r).value() : Table();
  }

  // The result's rows in Value::Compare order, column by column: the
  // dialect has no ORDER BY, so tests compare row sets.
  std::vector<Row> SortedRows(std::string_view sql) {
    std::vector<Row> rows = Run(sql).rows();
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return std::lexicographical_compare(
          a.begin(), a.end(), b.begin(), b.end(),
          [](const Value& x, const Value& y) { return Value::Compare(x, y) < 0; });
    });
    return rows;
  }

  Catalog catalog_;
  Executor exec_;
};

TEST_F(ExecutorTest, SelectProjection) {
  Table t = Run("SELECT name FROM people");
  EXPECT_EQ(t.columns(), std::vector<std::string>{"name"});
  EXPECT_EQ(t.num_rows(), 3);
}

TEST_F(ExecutorTest, SelectStarExpands) {
  Table t = Run("SELECT * FROM people");
  EXPECT_EQ(t.columns(), (std::vector<std::string>{"id", "name", "age"}));
}

TEST_F(ExecutorTest, WhereFilters) {
  Table t = Run("SELECT id FROM people WHERE age >= 30");
  EXPECT_EQ(t.num_rows(), 2);
}

TEST_F(ExecutorTest, ArithmeticAndAliases) {
  Table t = Run("SELECT age * 2 AS dbl, age + 1 FROM people WHERE id = 1");
  EXPECT_EQ(t.columns()[0], "dbl");
  EXPECT_EQ(t.rows()[0][0], Value(int64_t{60}));
  EXPECT_EQ(t.rows()[0][1], Value(int64_t{31}));
}

TEST_F(ExecutorTest, HashJoin) {
  ScopedMetrics metrics;
  CounterDelta hash_joins("sql.hash_joins");
  CounterDelta loop_joins("sql.loop_joins");
  Table t = Run("SELECT p.name, q.pet FROM people p JOIN pets q ON q.owner = p.id");
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_EQ(hash_joins.value(), 1);
  EXPECT_EQ(loop_joins.value(), 0);
}

TEST_F(ExecutorTest, LeftJoinPadsNulls) {
  Table t = Run("SELECT p.id, q.pet FROM people p LEFT JOIN pets q ON q.owner = p.id");
  EXPECT_EQ(t.num_rows(), 4);  // bob has no pet -> one NULL row.
  bool bob_null = false;
  for (const Row& r : t.rows()) {
    if (r[0] == Value(int64_t{2})) bob_null = r[1].is_null();
  }
  EXPECT_TRUE(bob_null);
}

TEST_F(ExecutorTest, LeftJoinNullFilter) {
  Table t = Run(
      "SELECT p.id FROM people p LEFT JOIN pets q ON q.owner = p.id "
      "WHERE q.owner IS NULL");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.rows()[0][0], Value(int64_t{2}));
}

TEST_F(ExecutorTest, RangeJoinUsesSortedSeek) {
  // seq 1..10 joined on a range: the planner must choose the range join.
  Table seq({"id"});
  for (int64_t i = 1; i <= 10; ++i) seq.AddRow({Value(i)});
  catalog_.CreateOrReplace("seq", std::move(seq));
  Table iv({"beg", "end"});
  iv.AddRow({Value(int64_t{2}), Value(int64_t{4})});
  iv.AddRow({Value(int64_t{8}), Value(int64_t{9})});
  catalog_.CreateOrReplace("iv", std::move(iv));

  ScopedMetrics metrics;
  CounterDelta range_joins("sql.range_joins");
  CounterDelta loop_joins("sql.loop_joins");
  Table t = Run("SELECT s.id FROM iv a JOIN seq s ON s.id >= a.beg AND s.id <= a.end");
  EXPECT_EQ(t.num_rows(), 5);  // 2,3,4,8,9
  EXPECT_EQ(range_joins.value(), 1);
  EXPECT_EQ(loop_joins.value(), 0);
}

TEST_F(ExecutorTest, CrossJoinIsNestedLoop) {
  ScopedMetrics metrics;
  CounterDelta loop_joins("sql.loop_joins");
  Table t = Run("SELECT p.id FROM people p, pets q");
  EXPECT_EQ(t.num_rows(), 9);
  EXPECT_EQ(loop_joins.value(), 1);
}

TEST_F(ExecutorTest, GroupByWithAggregates) {
  std::vector<Row> rows = SortedRows(
      "SELECT q.owner, MAX(q.pet) AS last_pet, MAX(q.owner) AS max_owner "
      "FROM pets q GROUP BY q.owner");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (Row{Value(int64_t{1}), Value("dog"), Value(int64_t{1})}));
  EXPECT_EQ(rows[1], (Row{Value(int64_t{3}), Value("fish"), Value(int64_t{3})}));
}

TEST_F(ExecutorTest, GlobalAggregateOverEmptyInput) {
  Table t = Run("SELECT MAX(id), MAX(age) FROM people WHERE age > 99");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_TRUE(t.rows()[0][0].is_null());
  EXPECT_TRUE(t.rows()[0][1].is_null());
}

TEST_F(ExecutorTest, UnionAllConcatenates) {
  Table t = Run("SELECT id FROM people UNION ALL SELECT owner FROM pets");
  EXPECT_EQ(t.num_rows(), 6);
}

TEST_F(ExecutorTest, UnionAllArityMismatch) {
  auto r = exec_.ExecuteSql("SELECT id FROM people UNION ALL SELECT owner, pet FROM pets");
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, FunctionsEvaluate) {
  Table t = Run("SELECT LEAST(1, 2), GREATEST(1, 2, 3), COALESCE(NULL, 5) FROM people");
  EXPECT_EQ(t.rows()[0][0], Value(int64_t{1}));
  EXPECT_EQ(t.rows()[0][1], Value(int64_t{3}));
  EXPECT_EQ(t.rows()[0][2], Value(int64_t{5}));
}

TEST_F(ExecutorTest, LeastPropagatesNull) {
  Table t = Run("SELECT LEAST(1, NULL) FROM people");
  EXPECT_TRUE(t.rows()[0][0].is_null());
}

TEST_F(ExecutorTest, NullComparisonsFilterOut) {
  Table t = Run("SELECT 1 FROM people WHERE NULL = NULL");
  EXPECT_EQ(t.num_rows(), 0);
}

TEST_F(ExecutorTest, DivisionByZeroIsNull) {
  Table t = Run("SELECT 1 / 0 FROM people");
  EXPECT_TRUE(t.rows()[0][0].is_null());
}

TEST_F(ExecutorTest, CreateTableAsMaterializes) {
  ASSERT_OK(exec_.ExecuteSql("CREATE TABLE olds AS SELECT id FROM people WHERE age >= 30")
                .status());
  Table t = Run("SELECT id FROM olds");
  EXPECT_EQ(t.num_rows(), 2);
}

TEST_F(ExecutorTest, UnknownTableErrors) {
  EXPECT_EQ(exec_.ExecuteSql("SELECT a FROM nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ExecutorTest, UnknownColumnErrors) {
  EXPECT_FALSE(exec_.ExecuteSql("SELECT wat FROM people").ok());
}

TEST_F(ExecutorTest, AmbiguousColumnErrors) {
  EXPECT_FALSE(
      exec_.ExecuteSql("SELECT id FROM people a JOIN people b ON a.id = b.id").ok());
}

TEST_F(ExecutorTest, AggregateInWhereRejected) {
  EXPECT_FALSE(exec_.ExecuteSql("SELECT id FROM people WHERE MAX(age) > 1").ok());
}

TEST_F(ExecutorTest, SelfJoinWithAliases) {
  std::vector<Row> rows =
      SortedRows("SELECT a.id, b.id FROM people a JOIN people b ON b.id = a.id + 1");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (Row{Value(int64_t{1}), Value(int64_t{2})}));
  EXPECT_EQ(rows[1], (Row{Value(int64_t{2}), Value(int64_t{3})}));
}

TEST_F(ExecutorTest, ResidualConditionOnHashJoin) {
  Table t = Run(
      "SELECT p.name, q.pet FROM people p JOIN pets q ON q.owner = p.id AND "
      "q.pet != 'dog'");
  EXPECT_EQ(t.num_rows(), 2);
}


TEST_F(ExecutorTest, Distinct) {
  Table dup({"v"});
  dup.AddRow({Value(int64_t{1})});
  dup.AddRow({Value(int64_t{2})});
  dup.AddRow({Value(int64_t{1})});
  dup.AddRow({Value()});
  dup.AddRow({Value()});
  catalog_.CreateOrReplace("dup", std::move(dup));
  std::vector<Row> rows = SortedRows("SELECT DISTINCT v FROM dup");
  ASSERT_EQ(rows.size(), 3u);  // NULL, 1, 2.
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_EQ(rows[1][0], Value(int64_t{1}));
  EXPECT_EQ(rows[2][0], Value(int64_t{2}));
}

}  // namespace
}  // namespace htl::sql
