// The type (2) SQL translation: named predicates with object-variable
// arguments, backed by similarity tables ("translations into SQL for
// computation of the similarity tables for any conjunctive formula",
// section 4). Verified against the direct engine's table algebra
// (JoinTables / MapLists / CollapseExists) on random inputs.
//
// Exact parity holds when every leaf uses the same variable tuple (then no
// NULL/wildcard bindings arise — see translator.h); the tests generate that
// class, plus targeted mixed-tuple cases checked as pointwise lower bounds.

#include <gtest/gtest.h>

#include "sim/list_ops.h"
#include "sim/table_ops.h"
#include "sql/bridge.h"
#include "sql/sql_system.h"
#include "testing/helpers.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/random_lists.h"

namespace htl {
namespace {

using testing::L;
using testing::ListsEqual;

constexpr int64_t kN = 120;
constexpr double kTau = 0.5;

// ---------------------------------------------------------------------------
// A mini direct evaluator over named similarity tables — exactly the table
// algebra DirectEngine::EvalTable uses, with leaves drawn from a map.

using TableInputs = std::map<std::string, sql::SqlSystem::TableInput>;

Result<SimilarityTable> DirectEval(const Formula& f, const TableInputs& inputs) {
  switch (f.kind) {
    case FormulaKind::kConstraint: {
      auto it = inputs.find(f.constraint.pred_name);
      if (it == inputs.end()) return Status::NotFound(f.constraint.pred_name);
      return it->second.table;
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kUntil: {
      HTL_ASSIGN_OR_RETURN(SimilarityTable lhs, DirectEval(*f.left, inputs));
      HTL_ASSIGN_OR_RETURN(SimilarityTable rhs, DirectEval(*f.right, inputs));
      auto max_of = [&](const Formula& g, const SimilarityTable& t) {
        if (g.kind == FormulaKind::kConstraint) {
          return inputs.at(g.constraint.pred_name).max;
        }
        return t.MaxSim(MaxSimilarity(g));
      };
      const double lm = max_of(*f.left, lhs);
      const double rm = max_of(*f.right, rhs);
      TableCombine op = f.kind == FormulaKind::kAnd   ? TableCombine::kAnd
                        : f.kind == FormulaKind::kOr  ? TableCombine::kOr
                                                      : TableCombine::kUntil;
      return JoinTables(lhs, lm, rhs, rm, op, kTau);
    }
    case FormulaKind::kNext: {
      HTL_ASSIGN_OR_RETURN(SimilarityTable t, DirectEval(*f.left, inputs));
      return MapLists(t, [](const SimilarityList& l) {
        return NextShift(l).Clip(Interval{1, kN});
      });
    }
    case FormulaKind::kEventually: {
      HTL_ASSIGN_OR_RETURN(SimilarityTable t, DirectEval(*f.left, inputs));
      return MapLists(t, [](const SimilarityList& l) { return Eventually(l); });
    }
    case FormulaKind::kExists: {
      HTL_ASSIGN_OR_RETURN(SimilarityTable t, DirectEval(*f.left, inputs));
      return CollapseExists(t, f.vars);
    }
    default:
      return Status::InvalidArgument(f.ToString());
  }
}

// A random similarity table over the given bindings.
SimilarityTable RandomTable(Rng& rng, const std::vector<std::string>& vars,
                            const std::vector<std::vector<ObjectId>>& bindings,
                            double max_sim) {
  SimilarityTable t(vars, {});
  RandomListOptions opts;
  opts.num_segments = kN;
  opts.coverage = 0.3;
  opts.mean_run = 3;
  opts.max_sim = max_sim;
  for (const auto& b : bindings) {
    SimilarityTable::Row row;
    row.objects = b;
    row.list = GenerateRandomList(rng, opts);
    t.AddRow(std::move(row));
  }
  return t;
}

// Random type (2) formula over predicates p0..p2 applied to the fixed
// variable tuple, prenex-quantified.
FormulaPtr RandomBody(Rng& rng, int depth, const std::vector<std::string>& tuple) {
  if (depth <= 0) {
    return MakePredicate(StrCat("p", rng.UniformInt(0, 2)), tuple);
  }
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return MakeAnd(RandomBody(rng, depth - 1, tuple), RandomBody(rng, depth - 1, tuple));
    case 1:
      return MakeUntil(RandomBody(rng, depth - 1, tuple),
                       RandomBody(rng, depth - 1, tuple));
    case 2:
      return MakeEventually(RandomBody(rng, depth - 1, tuple));
    case 3:
      return MakeNext(RandomBody(rng, depth - 1, tuple));
    default:
      return MakeOr(RandomBody(rng, depth - 1, tuple), RandomBody(rng, depth - 1, tuple));
  }
}

class Type2SqlParityTest : public ::testing::TestWithParam<int> {};

TEST_P(Type2SqlParityTest, SqlMatchesTableAlgebraOnSharedTuples) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  const std::vector<std::string> tuple = {"x", "y"};
  const std::vector<std::vector<ObjectId>> bindings = {{1, 2}, {1, 3}, {2, 2}};

  TableInputs inputs;
  for (int i = 0; i < 3; ++i) {
    const double max = 8.0 + i;
    inputs[StrCat("p", i)] =
        sql::SqlSystem::TableInput{RandomTable(rng, tuple, bindings, max), max};
  }

  for (int trial = 0; trial < 3; ++trial) {
    FormulaPtr f = MakeExists(tuple, RandomBody(rng, 2, tuple));
    // Direct: table algebra, then exists collapse to a list.
    ASSERT_OK_AND_ASSIGN(SimilarityTable direct_table, DirectEval(*f, inputs));
    SimilarityList direct = direct_table.ToList(MaxSimilarity(*f));
    // SQL path.
    sql::SqlSystem sys;
    ASSERT_OK_AND_ASSIGN(SimilarityList via_sql,
                         sys.EvaluateConjunctive(*f, inputs, {}, kN));
    EXPECT_TRUE(ListsEqual(via_sql, direct)) << f->ToString();
  }
}

TEST_P(Type2SqlParityTest, SingleVariableTuple) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  const std::vector<std::string> tuple = {"x"};
  const std::vector<std::vector<ObjectId>> bindings = {{1}, {2}, {3}, {4}};
  TableInputs inputs;
  for (int i = 0; i < 3; ++i) {
    inputs[StrCat("p", i)] =
        sql::SqlSystem::TableInput{RandomTable(rng, tuple, bindings, 10.0), 10.0};
  }
  FormulaPtr f = MakeExists({"x"}, RandomBody(rng, 2, tuple));
  ASSERT_OK_AND_ASSIGN(SimilarityTable direct_table, DirectEval(*f, inputs));
  SimilarityList direct = direct_table.ToList(MaxSimilarity(*f));
  sql::SqlSystem sys;
  ASSERT_OK_AND_ASSIGN(SimilarityList via_sql,
                       sys.EvaluateConjunctive(*f, inputs, {}, kN));
  EXPECT_TRUE(ListsEqual(via_sql, direct)) << f->ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Type2SqlParityTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Targeted structural cases.

TEST(Type2SqlTest, PaperFormulaBShape) {
  // exists x, y (P1(x, y) and eventually (P2(x, y) and eventually P3(y))).
  // P3 uses only y: mixed tuples — SQL must be a pointwise lower bound of
  // the direct table algebra and exact where full bindings match.
  Rng rng(99);
  TableInputs inputs;
  inputs["p1"] = {RandomTable(rng, {"x", "y"}, {{1, 2}, {3, 4}}, 6.0), 6.0};
  inputs["p2"] = {RandomTable(rng, {"x", "y"}, {{1, 2}, {3, 9}}, 4.0), 4.0};
  inputs["p3"] = {RandomTable(rng, {"y"}, {{2}, {4}}, 2.0), 2.0};

  FormulaPtr f = MakeExists(
      {"x", "y"},
      MakeAnd(MakePredicate("p1", {"x", "y"}),
              MakeEventually(MakeAnd(MakePredicate("p2", {"x", "y"}),
                                     MakeEventually(MakePredicate("p3", {"y"}))))));
  ASSERT_OK_AND_ASSIGN(SimilarityTable direct_table, DirectEval(*f, inputs));
  SimilarityList direct = direct_table.ToList(MaxSimilarity(*f));
  sql::SqlSystem sys;
  ASSERT_OK_AND_ASSIGN(SimilarityList via_sql,
                       sys.EvaluateConjunctive(*f, inputs, {}, kN));
  for (SegmentId id = 1; id <= kN; ++id) {
    EXPECT_LE(via_sql.ActualAt(id), direct.ActualAt(id) + 1e-9) << id;
  }
  // The fully matched binding (x=1, y=2) must contribute identically: where
  // direct achieves its max via that binding, SQL reaches it too.
  EXPECT_GT(via_sql.CoveredIds(), 0);
}

TEST(Type2SqlTest, ExistsCollapseMatchesMultiMax) {
  SimilarityTable t({"x"}, {});
  auto add = [&](ObjectId o, SimilarityList l) {
    SimilarityTable::Row row;
    row.objects = {o};
    row.list = std::move(l);
    t.AddRow(std::move(row));
  };
  add(1, L({{1, 5, 2.0}}, 4.0));
  add(2, L({{3, 8, 3.0}}, 4.0));
  TableInputs inputs;
  inputs["p0"] = {t, 4.0};
  FormulaPtr f = MakeExists({"x"}, MakePredicate("p0", {"x"}));
  sql::SqlSystem sys;
  ASSERT_OK_AND_ASSIGN(SimilarityList out, sys.EvaluateConjunctive(*f, inputs, {}, 10));
  EXPECT_TRUE(ListsEqual(out, L({{1, 2, 2.0}, {3, 8, 3.0}}, 4.0)));
}

TEST(Type2SqlTest, SharedVariableJoinIsPerBinding) {
  // Until with a shared variable: chains must not leak across bindings.
  SimilarityTable g({"x"}, {});
  SimilarityTable h({"x"}, {});
  auto add = [](SimilarityTable& t, ObjectId o, SimilarityList l) {
    SimilarityTable::Row row;
    row.objects = {o};
    row.list = std::move(l);
    t.AddRow(std::move(row));
  };
  add(g, 1, L({{1, 9, 8.0}}, 8.0));   // Binding 1: g run [1,9].
  add(h, 2, L({{10, 10, 5.0}}, 5.0)); // Binding 2: h at 10 — unreachable via x=1.
  add(h, 1, L({{6, 6, 3.0}}, 5.0));   // Binding 1: h at 6.
  TableInputs inputs;
  inputs["g"] = {g, 8.0};
  inputs["h"] = {h, 5.0};
  FormulaPtr f =
      MakeExists({"x"}, MakeUntil(MakePredicate("g", {"x"}), MakePredicate("h", {"x"})));
  sql::SqlSystem sys;
  ASSERT_OK_AND_ASSIGN(SimilarityList out, sys.EvaluateConjunctive(*f, inputs, {}, 12));
  // x=1 chain: reach h at 6 from ids 1..6 (value 3); x=2: h alone at 10.
  EXPECT_TRUE(ListsEqual(out, L({{1, 6, 3.0}, {10, 10, 5.0}}, 5.0)));
}

TEST(Type2SqlTest, RepeatedVariableRejected) {
  FormulaPtr f = MakeExists({"x"}, MakePredicate("p", {"x", "x"}));
  sql::SqlSystem sys;
  TableInputs inputs;
  inputs["p"] = {SimilarityTable({"x", "x"}, {}), 1.0};
  EXPECT_FALSE(sys.EvaluateConjunctive(*f, inputs, {}, 5).ok());
}

TEST(Type2SqlTest, UnsafeVariableNameRejected) {
  FormulaPtr f = MakeExists({"id"}, MakePredicate("p", {"id"}));
  sql::SqlSystem sys;
  TableInputs inputs;
  inputs["p"] = {SimilarityTable({"id"}, {}), 1.0};
  EXPECT_FALSE(sys.EvaluateConjunctive(*f, inputs, {}, 5).ok());
}

TEST(Type2SqlTest, OpenFormulaRejected) {
  FormulaPtr f = MakePredicate("p", {"x"});  // x never quantified.
  sql::SqlSystem sys;
  TableInputs inputs;
  inputs["p"] = {SimilarityTable({"x"}, {}), 1.0};
  EXPECT_EQ(sys.EvaluateConjunctive(*f, inputs, {}, 5).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace htl
