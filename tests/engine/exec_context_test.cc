#include "engine/exec_context.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>

#include "engine/retrieval.h"
#include "model/video.h"
#include "sql/sql_system.h"
#include "testing/helpers.h"
#include "workload/casablanca.h"

namespace htl {
namespace {

using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// Unit behavior.

TEST(ExecContextTest, DefaultContextNeverFails) {
  ExecContext ctx;
  for (int i = 0; i < 1000; ++i) EXPECT_OK(ctx.Check());
  EXPECT_OK(ctx.ChargeRows(1 << 20));
  EXPECT_OK(ctx.ChargeTable());
  EXPECT_OK(ctx.EnterDepth());
  ctx.LeaveDepth();
}

TEST(ExecContextTest, ZeroTimeoutFailsTheVeryFirstPoll) {
  ExecContext ctx;
  ctx.SetTimeout(milliseconds(0));
  // The clock-read amortization must not delay an already-expired deadline.
  Status s = ctx.Check();
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
}

TEST(ExecContextTest, ExpiredDeadlineLatches) {
  ExecContext ctx;
  ctx.SetTimeout(milliseconds(-5));
  EXPECT_TRUE(ctx.Check().IsDeadlineExceeded());
  // Every later poll fails too, without waiting for the poll stride.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ctx.Check().IsDeadlineExceeded());
}

TEST(ExecContextTest, FutureDeadlinePassesThenExpires) {
  ExecContext ctx;
  ctx.SetTimeout(milliseconds(20));
  EXPECT_OK(ctx.Check());
  std::this_thread::sleep_for(milliseconds(40));
  // Poll enough times to cross the amortization stride.
  Status last = Status::OK();
  for (int i = 0; i < 256 && last.ok(); ++i) last = ctx.Check();
  EXPECT_TRUE(last.IsDeadlineExceeded()) << last.ToString();
}

TEST(ExecContextTest, SetTimeoutMsZeroIsAlreadyExpired) {
  ExecContext ctx;
  ctx.SetTimeoutMs(0);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_TRUE(ctx.Check().IsDeadlineExceeded());
}

TEST(ExecContextTest, SetTimeoutMsNegativeIsAlreadyExpired) {
  // Wire values are attacker-controlled: any negative budget, including the
  // most negative one (whose ms -> ns conversion would overflow if it were
  // attempted), must behave exactly like SetTimeout(0).
  for (int64_t ms : {int64_t{-1}, int64_t{-5000},
                     std::numeric_limits<int64_t>::min()}) {
    ExecContext ctx;
    ctx.SetTimeoutMs(ms);
    EXPECT_TRUE(ctx.Check().IsDeadlineExceeded()) << "timeout_ms = " << ms;
  }
}

TEST(ExecContextTest, SetTimeoutMsHugeClampsInsteadOfOverflowing) {
  // INT64_MAX milliseconds overflows int64 nanoseconds ~292x over; the
  // clamp must land the deadline in the future (24h), not wrap it into the
  // past.
  for (int64_t ms : {std::numeric_limits<int64_t>::max(),
                     ExecContext::kMaxTimeoutMs + 1}) {
    ExecContext ctx;
    ctx.SetTimeoutMs(ms);
    EXPECT_TRUE(ctx.has_deadline());
    EXPECT_OK(ctx.Check());
  }
}

TEST(ExecContextTest, SetTimeoutMsNormalValueBehavesLikeSetTimeout) {
  ExecContext ctx;
  ctx.SetTimeoutMs(20);
  EXPECT_OK(ctx.Check());
  std::this_thread::sleep_for(milliseconds(40));
  Status last = Status::OK();
  for (int i = 0; i < 256 && last.ok(); ++i) last = ctx.Check();
  EXPECT_TRUE(last.IsDeadlineExceeded()) << last.ToString();
}

TEST(ExecContextTest, SetTimeoutMsAtTheClampBoundaryIsNotExpired) {
  ExecContext ctx;
  ctx.SetTimeoutMs(ExecContext::kMaxTimeoutMs);
  EXPECT_OK(ctx.Check());
}

TEST(ExecContextTest, CancellationObservedAtNextPoll) {
  ExecContext ctx;
  EXPECT_OK(ctx.Check());
  ctx.Cancel();
  EXPECT_TRUE(ctx.cancelled());
  Status s = ctx.Check();
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  EXPECT_TRUE(s.IsQueryAbort());
}

// ---------------------------------------------------------------------------
// Child contexts (parallel workers).

TEST(ExecContextChildTest, NullParentYieldsPlainDefaultContext) {
  ExecContext child(static_cast<const ExecContext*>(nullptr));
  EXPECT_FALSE(child.has_deadline());
  EXPECT_FALSE(child.cancelled());
  EXPECT_OK(child.Check());
}

TEST(ExecContextChildTest, ChildCopiesBudgetsAndCountsItsOwnUnits) {
  ExecBudgets budgets;
  budgets.max_rows = 5;
  ExecContext parent(budgets);
  ASSERT_OK(parent.ChargeRows(3));

  ExecContext child(&parent);
  EXPECT_EQ(child.budgets().max_rows, 5);
  // Per-unit counters start fresh: the parent's 3 used rows do not carry
  // over (budgets bound each video independently, whichever worker runs it).
  EXPECT_EQ(child.rows_used(), 0);
  EXPECT_OK(child.ChargeRows(5));
  EXPECT_TRUE(child.ChargeRows(1).IsResourceExhausted());
  // The child's charging never touches the parent.
  EXPECT_EQ(parent.rows_used(), 3);
}

TEST(ExecContextChildTest, ChildObservesParentCancelSetBeforeSpawn) {
  // The fan-out ordering that matters in the retriever: a worker child
  // created *after* the group was cancelled must fail its very first poll.
  ExecContext parent;
  parent.Cancel();
  ExecContext child(&parent);
  EXPECT_TRUE(child.cancelled());
  Status s = child.Check();
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
}

TEST(ExecContextChildTest, ChildObservesParentCancelSetAfterSpawn) {
  ExecContext parent;
  ExecContext child(&parent);
  EXPECT_OK(child.Check());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_TRUE(child.Check().IsCancelled());
}

TEST(ExecContextChildTest, CancellingChildLeavesParentAndSiblingRunning) {
  ExecContext parent;
  ExecContext child_a(&parent);
  ExecContext child_b(&parent);
  child_a.Cancel();
  EXPECT_TRUE(child_a.Check().IsCancelled());
  EXPECT_FALSE(parent.cancelled());
  EXPECT_OK(parent.Check());
  EXPECT_OK(child_b.Check());
}

TEST(ExecContextChildTest, CancelChainsThroughTwoLevels) {
  // Retriever layering: caller ctx -> per-call group -> per-worker child.
  ExecContext caller;
  ExecContext group(&caller);
  ExecContext worker(&group);
  caller.Cancel();
  EXPECT_TRUE(worker.cancelled());
  // Cancelling only the group reaches workers but never the caller.
  ExecContext caller2;
  ExecContext group2(&caller2);
  ExecContext worker2(&group2);
  group2.Cancel();
  EXPECT_TRUE(worker2.cancelled());
  EXPECT_FALSE(caller2.cancelled());
}

TEST(ExecContextChildTest, ChildInheritsZeroTimeoutDeadline) {
  // 0ms (or negative) deadline semantics carry over: the parent's deadline
  // is copied as an absolute time point, so the child's first poll fails
  // exactly like SetTimeout(0) on the parent itself.
  ExecContext parent;
  parent.SetTimeout(milliseconds(0));
  ExecContext child(&parent);
  EXPECT_TRUE(child.has_deadline());
  Status s = child.Check();
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
}

TEST(ExecContextChildTest, ChildInheritsLatchedDeadline) {
  ExecContext parent;
  parent.SetTimeout(milliseconds(-5));
  EXPECT_TRUE(parent.Check().IsDeadlineExceeded());  // Latches.
  ExecContext child(&parent);
  EXPECT_TRUE(child.Check().IsDeadlineExceeded());
}

TEST(ExecContextChildTest, ChildSharesAbsoluteDeadlineNotTimeout) {
  ExecContext parent;
  parent.SetTimeout(milliseconds(30));
  std::this_thread::sleep_for(milliseconds(15));
  // A child created halfway through inherits the *remaining* ~15ms, not a
  // fresh 30ms window.
  ExecContext child(&parent);
  EXPECT_OK(child.Check());
  std::this_thread::sleep_for(milliseconds(30));
  Status last = Status::OK();
  for (int i = 0; i < 256 && last.ok(); ++i) last = child.Check();
  EXPECT_TRUE(last.IsDeadlineExceeded()) << last.ToString();
}

TEST(ExecContextTest, RowBudgetTripsAndResetsPerUnit) {
  ExecBudgets budgets;
  budgets.max_rows = 10;
  ExecContext ctx(budgets);
  EXPECT_OK(ctx.ChargeRows(6));
  EXPECT_OK(ctx.ChargeRows(4));
  Status s = ctx.ChargeRows(1);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  ctx.BeginUnit();  // New video/statement: full allowance again.
  EXPECT_OK(ctx.ChargeRows(10));
  EXPECT_EQ(ctx.rows_used(), 10);
}

TEST(ExecContextTest, TableBudgetTrips) {
  ExecBudgets budgets;
  budgets.max_tables = 2;
  ExecContext ctx(budgets);
  EXPECT_OK(ctx.ChargeTable());
  EXPECT_OK(ctx.ChargeTable());
  EXPECT_TRUE(ctx.ChargeTable().IsResourceExhausted());
}

TEST(ExecContextTest, DepthBudgetTripsAndEnterIsBalancedOnFailure) {
  ExecBudgets budgets;
  budgets.max_depth = 2;
  ExecContext ctx(budgets);
  EXPECT_OK(ctx.EnterDepth());
  EXPECT_OK(ctx.EnterDepth());
  EXPECT_TRUE(ctx.EnterDepth().IsResourceExhausted());
  EXPECT_EQ(ctx.depth_used(), 2) << "failed EnterDepth must not leak depth";
  ctx.LeaveDepth();
  ctx.LeaveDepth();
  EXPECT_EQ(ctx.depth_used(), 0);
}

TEST(ExecContextTest, DepthScopeBalancesAndToleratesNull) {
  ExecBudgets budgets;
  budgets.max_depth = 1;
  ExecContext ctx(budgets);
  {
    DepthScope outer(&ctx);
    EXPECT_OK(outer.status());
    DepthScope inner(&ctx);
    EXPECT_TRUE(inner.status().IsResourceExhausted());
  }
  EXPECT_EQ(ctx.depth_used(), 0);
  DepthScope null_scope(nullptr);
  EXPECT_OK(null_scope.status());
}

Status PollViaMacro(ExecContext* ctx) {
  HTL_CHECK_EXEC(ctx);
  return Status::OK();
}

TEST(ExecContextTest, CheckExecMacroToleratesNullAndPropagates) {
  EXPECT_OK(PollViaMacro(nullptr));
  ExecContext ctx;
  ctx.Cancel();
  EXPECT_TRUE(PollViaMacro(&ctx).IsCancelled());
}

// ---------------------------------------------------------------------------
// End-to-end through the Retriever (the ISSUE acceptance case: a 0ms
// deadline returns DeadlineExceeded instead of hanging).

MetadataStore MakeCasablancaStore() {
  MetadataStore store;
  store.AddVideo(casablanca::MakeVideo());
  return store;
}

TEST(ExecContextRetrievalTest, ZeroDeadlineQueryReturnsDeadlineExceeded) {
  MetadataStore store = MakeCasablancaStore();
  Retriever r(&store);
  FormulaPtr q = casablanca::Query1Full();
  ExecContext ctx;
  ctx.SetTimeout(milliseconds(0));
  Status s = r.TopSegmentsWithReport(*q, 2, 4, &ctx).status();
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
}

TEST(ExecContextRetrievalTest, ZeroDeadlineAbortsWithReportVariantToo) {
  MetadataStore store = MakeCasablancaStore();
  Retriever r(&store);
  FormulaPtr q = casablanca::Query1Full();
  ExecContext ctx;
  ctx.SetTimeout(milliseconds(0));
  // Deadline expiry is a query-wide abort, not a per-video degradation.
  EXPECT_TRUE(r.TopSegmentsWithReport(*q, 2, 4, &ctx).status().IsDeadlineExceeded());
  ExecContext ctx2;
  ctx2.SetTimeout(milliseconds(0));
  EXPECT_TRUE(r.TopSegmentsWithReport(*q, 1, 4, &ctx2).status().IsDeadlineExceeded());
}

TEST(ExecContextRetrievalTest, CancelledQueryReturnsCancelled) {
  MetadataStore store = MakeCasablancaStore();
  Retriever r(&store);
  FormulaPtr q = casablanca::Query1Full();
  ExecContext ctx;
  ctx.Cancel();
  EXPECT_TRUE(r.TopSegmentsWithReport(*q, 2, 4, &ctx).status().IsCancelled());
}

TEST(ExecContextRetrievalTest, UnlimitedContextMatchesNullContext) {
  MetadataStore store = MakeCasablancaStore();
  Retriever r(&store);
  FormulaPtr q = casablanca::Query1Full();
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval baseline, r.TopSegmentsWithReport(*q, 2, 4));
  ExecContext ctx;  // Default: no deadline, unlimited budgets.
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval limited, r.TopSegmentsWithReport(*q, 2, 4, &ctx));
  ASSERT_OK(baseline.report.FirstFailure());
  ASSERT_OK(limited.report.FirstFailure());
  ASSERT_EQ(limited.hits.size(), baseline.hits.size());
  for (size_t i = 0; i < baseline.hits.size(); ++i) {
    EXPECT_EQ(limited.hits[i].video, baseline.hits[i].video);
    EXPECT_EQ(limited.hits[i].segment, baseline.hits[i].segment);
    EXPECT_DOUBLE_EQ(limited.hits[i].sim.actual, baseline.hits[i].sim.actual);
  }
}

TEST(ExecContextRetrievalTest, BlownBudgetIsolatesPerVideoWithReport) {
  MetadataStore store = MakeCasablancaStore();
  Retriever r(&store);
  FormulaPtr q = casablanca::Query1Full();
  ExecBudgets budgets;
  budgets.max_tables = 0;  // Every table join is over budget.
  ExecContext ctx(budgets);
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval out, r.TopSegmentsWithReport(*q, 2, 4, &ctx));
  EXPECT_EQ(out.report.videos_failed, 1);
  EXPECT_FALSE(out.report.complete());
  ASSERT_EQ(out.report.failures.size(), 1u);
  EXPECT_EQ(out.report.failures[0].video, 1);
  EXPECT_TRUE(out.report.failures[0].status.IsResourceExhausted())
      << out.report.ToString();
  EXPECT_TRUE(out.hits.empty());
}

TEST(ExecContextRetrievalTest, BudgetsResetPerVideo) {
  // Two videos whose evaluation each materializes two tables (the atomic
  // "d = 1" plus the and-join): a per-query budget of two would fail the
  // second video, a per-video budget (reset via BeginUnit) admits both.
  MetadataStore store;
  for (int i = 0; i < 2; ++i) {
    VideoTree v = VideoTree::Flat(3);
    v.MutableMeta(2, 2).SetAttribute("d", AttrValue(int64_t{1}));
    store.AddVideo(std::move(v));
  }
  Retriever r(&store);
  ExecBudgets budgets;
  budgets.max_tables = 2;
  ExecContext ctx(budgets);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, r.Prepare("d = 1 and true"));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval out, r.TopSegmentsWithReport(*f, 2, 10, &ctx));
  EXPECT_EQ(out.report.videos_evaluated, 2);
  EXPECT_EQ(out.report.videos_failed, 0) << out.report.ToString();
  // "true" admits every segment (3 per video) with a partial score.
  EXPECT_EQ(out.hits.size(), 6u);
}

TEST(ExecContextRetrievalTest, FirstFailureSurfacesBudgetErrorOfSkippedVideo) {
  MetadataStore store = MakeCasablancaStore();
  Retriever r(&store);
  FormulaPtr q = casablanca::Query1Full();
  ExecBudgets budgets;
  budgets.max_tables = 0;
  ExecContext ctx(budgets);
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval out, r.TopSegmentsWithReport(*q, 2, 4, &ctx));
  Status s = out.report.FirstFailure();
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
}

// ---------------------------------------------------------------------------
// End-to-end through the SQL executor.

TEST(ExecContextSqlTest, ZeroDeadlineStatementReturnsDeadlineExceeded) {
  sql::SqlSystem sys;
  ExecContext ctx;
  ctx.SetTimeout(milliseconds(0));
  sys.executor().set_exec_context(&ctx);
  Status s = sys.executor().ExecuteSql("DROP TABLE IF EXISTS t;").status();
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
}

TEST(ExecContextSqlTest, RowBudgetBoundsMaterialization) {
  sql::SqlSystem sys;
  sql::Table t({"a"});
  for (int64_t a = 1; a <= 3; ++a) t.AddRow({sql::Value(a)});
  sys.catalog().CreateOrReplace("t", std::move(t));
  ExecBudgets budgets;
  budgets.max_rows = 2;
  ExecContext ctx(budgets);
  sys.executor().set_exec_context(&ctx);
  Status s = sys.executor().ExecuteSql("SELECT a FROM t;").status();
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  // Budgets reset per statement: a query under budget still runs.
  ASSERT_OK_AND_ASSIGN(sql::Table out,
                       sys.executor().ExecuteSql("SELECT a FROM t WHERE a = 1;"));
  EXPECT_EQ(out.num_rows(), 1);
  sys.executor().set_exec_context(nullptr);
}

TEST(ExecContextSqlTest, CasablancaTranslationRunsUnderUnlimitedContext) {
  FormulaPtr q = casablanca::Query1Named();
  sql::SqlSystem sys;
  ExecContext ctx;
  sys.executor().set_exec_context(&ctx);
  ASSERT_OK_AND_ASSIGN(
      SimilarityList out,
      sys.Evaluate(*q, casablanca::NamedInputs(), casablanca::kNumShots));
  EXPECT_TRUE(out == casablanca::Query1ResultTable());
  sys.executor().set_exec_context(nullptr);
}

}  // namespace
}  // namespace htl
