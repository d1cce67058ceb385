#ifndef HTL_ENGINE_EXEC_CONTEXT_H_
#define HTL_ENGINE_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "util/status.h"

namespace htl {

namespace obs {
class QueryTrace;
}  // namespace obs

/// Resource budgets for one query execution. The defaults are "unlimited"
/// (max int64), so a default-constructed ExecContext never trips a budget.
/// Budgets that are naturally per-video (rows, tables, depth) reset at each
/// Retriever video boundary via ExecContext::BeginUnit(), so one pathological
/// video cannot consume the allowance of the healthy ones.
struct ExecBudgets {
  /// Upper bound on similarity-list/table/SQL rows merged or materialized
  /// within one unit of work (one video evaluation, or one SQL statement).
  int64_t max_rows = std::numeric_limits<int64_t>::max();

  /// Upper bound on intermediate tables materialized within one unit
  /// (similarity tables built by the direct engine; working sets built by
  /// the SQL executor's FROM pipeline).
  int64_t max_tables = std::numeric_limits<int64_t>::max();

  /// Upper bound on evaluation recursion depth (formula nesting in the
  /// engines; SELECT nesting in the SQL executor).
  int64_t max_depth = std::numeric_limits<int64_t>::max();
};

/// Deadline-aware, cancellable execution context threaded through the whole
/// query path (Retriever -> DirectEngine / ReferenceEngine -> PictureSystem
/// seams, and sql::Executor). Engines poll it at loop boundaries and return
/// Status::DeadlineExceeded / Cancelled / ResourceExhausted instead of
/// running away.
///
/// Cost model: a default-constructed context has no deadline and unlimited
/// budgets, and CheckDeadline() amortizes the clock read (one steady_clock
/// call every kDeadlinePollStride polls), so threading a default context
/// through a query costs a few predictable branches per loop iteration —
/// bench_retrieval records the measured overhead in BENCH_retrieval.json.
///
/// Thread model: the cancellation flag may be set from any thread (it is an
/// atomic); everything else is owned by the querying thread. For parallel
/// per-video execution the Retriever gives each worker a *child* context
/// (see the parent constructor): the child copies the parent's budgets and
/// absolute deadline at construction and chains cancellation through the
/// parent's atomic flag, so the only cross-thread state is atomic reads.
class ExecContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// No deadline, unlimited budgets, not cancelled.
  ExecContext() = default;

  explicit ExecContext(ExecBudgets budgets) : budgets_(budgets) {}

  /// Child context for one worker of a parallel query. Copies the parent's
  /// budgets and absolute deadline (an already-expired or 0ms parent
  /// deadline fails the child's very first poll, like SetTimeout(0) on the
  /// parent itself), starts with fresh per-unit counters, and observes the
  /// parent's Cancel() — including one issued *before* this child was
  /// created — as well as its own. The parent (whole chain) must outlive
  /// the child; a null parent yields a plain default context.
  explicit ExecContext(const ExecContext* parent) {
    if (parent == nullptr) return;
    parent_ = parent;
    budgets_ = parent->budgets_;
    has_deadline_ = parent->has_deadline_;
    deadline_ = parent->deadline_;
    deadline_hit_ = parent->deadline_hit_;
    // As in SetTimeout: the first poll must read the clock, so a deadline
    // the parent already crossed fails immediately.
    polls_since_clock_read_ = kDeadlinePollStride - 1;
  }

  /// Sets the deadline `timeout` from now (monotonic clock). A zero or
  /// negative timeout is already expired: the first poll fails.
  void SetTimeout(std::chrono::nanoseconds timeout) {
    has_deadline_ = true;
    deadline_ = Clock::now() + timeout;
    // Force the first poll to read the clock, so an already-expired
    // deadline fails immediately instead of after one amortization stride.
    polls_since_clock_read_ = kDeadlinePollStride - 1;
  }

  /// Upper clamp for SetTimeoutMs: 24 hours. Anything longer is
  /// indistinguishable from "no deadline" for a query service, and bounding
  /// it here keeps the milliseconds -> nanoseconds conversion safely inside
  /// int64 for any wire value (INT64_MAX ms would overflow the duration).
  static constexpr int64_t kMaxTimeoutMs = 24 * 60 * 60 * 1000;

  /// Deadline from a relative timeout in *milliseconds* — the unit budgets
  /// travel in over the wire (net/protocol.h) — with explicit clamping:
  /// zero and negative values are already expired (the first poll fails,
  /// exactly like SetTimeout(0)); values above kMaxTimeoutMs clamp down to
  /// it. Call sites must use this instead of hand-rolled steady_clock
  /// arithmetic so the edge cases stay in one tested place.
  void SetTimeoutMs(int64_t timeout_ms) {
    if (timeout_ms > kMaxTimeoutMs) timeout_ms = kMaxTimeoutMs;
    if (timeout_ms <= 0) {
      SetTimeout(std::chrono::nanoseconds(0));
      return;
    }
    SetTimeout(std::chrono::milliseconds(timeout_ms));
  }

  bool has_deadline() const { return has_deadline_; }

  /// Requests cooperative cancellation; safe from any thread. The querying
  /// thread observes it at its next poll. Cancelling a parent cancels every
  /// (present and future) child chained to it; cancelling a child leaves
  /// the parent running.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    for (const ExecContext* c = this; c != nullptr; c = c->parent_) {
      if (c->cancelled_.load(std::memory_order_relaxed)) return true;
    }
    return false;
  }

  const ExecBudgets& budgets() const { return budgets_; }
  ExecBudgets& mutable_budgets() { return budgets_; }

  /// Resets the per-unit resource counters (rows, tables, depth) at a unit
  /// boundary — the Retriever calls this before each video so budgets bound
  /// each video independently; the SQL system calls it per statement.
  void BeginUnit() {
    rows_used_ = 0;
    tables_used_ = 0;
    depth_used_ = 0;
  }

  /// The cheap poll engines place at loop boundaries: cancellation
  /// (chained through any parents), then (amortized) deadline. Never fails
  /// on a default context.
  Status Check() {
    if (cancelled()) return Status::Cancelled("query cancelled");
    if (has_deadline_) return CheckDeadline();
    return Status::OK();
  }

  /// Charges `n` rows against the per-unit row budget, polling deadline and
  /// cancellation on the way (so row-charging loops need no separate
  /// Check()).
  Status ChargeRows(int64_t n) {
    rows_used_ += n;
    if (rows_used_ > budgets_.max_rows) {
      return Status::ResourceExhausted(RowsExhaustedMessage());
    }
    return Check();
  }

  /// Charges one materialized intermediate table.
  Status ChargeTable() {
    if (++tables_used_ > budgets_.max_tables) {
      return Status::ResourceExhausted(TablesExhaustedMessage());
    }
    return Check();
  }

  /// Enters one recursion level; must be paired with LeaveDepth(). Prefer
  /// the DepthScope RAII below.
  Status EnterDepth() {
    if (++depth_used_ > budgets_.max_depth) {
      --depth_used_;
      return Status::ResourceExhausted(DepthExhaustedMessage());
    }
    return Check();
  }
  void LeaveDepth() { --depth_used_; }

  int64_t rows_used() const { return rows_used_; }
  int64_t tables_used() const { return tables_used_; }
  int64_t depth_used() const { return depth_used_; }

  /// The query trace riding on this context (null for unprofiled queries —
  /// the common case). Engines read it at the same seams where they poll the
  /// context, so profiling reuses the PR 2 threading instead of new plumbing.
  /// The trace is borrowed, not owned; the attacher keeps it alive.
  obs::QueryTrace* trace() const { return trace_; }
  void set_trace(obs::QueryTrace* trace) { trace_ = trace; }

 private:
  Status CheckDeadline();

  // Out-of-line so the hot Check() inline path stays small; these allocate.
  std::string RowsExhaustedMessage() const;
  std::string TablesExhaustedMessage() const;
  std::string DepthExhaustedMessage() const;

  /// Clock reads are amortized: only every kDeadlinePollStride-th poll pays
  /// a steady_clock::now(). Engine loop bodies are microseconds-scale, so
  /// the deadline is still honored well within a millisecond.
  static constexpr int32_t kDeadlinePollStride = 128;

  const ExecContext* parent_ = nullptr;  // Cancellation chain; see cancelled().
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  int32_t polls_since_clock_read_ = 0;
  bool deadline_hit_ = false;  // Latched: once missed, every poll fails.
  std::atomic<bool> cancelled_{false};

  ExecBudgets budgets_;
  int64_t rows_used_ = 0;
  int64_t tables_used_ = 0;
  int64_t depth_used_ = 0;

  obs::QueryTrace* trace_ = nullptr;  // Borrowed; see trace().
};

/// RAII depth guard: `HTL_RETURN_IF_ERROR(scope.status())` after
/// construction. Tolerates a null context (no-op).
class DepthScope {
 public:
  explicit DepthScope(ExecContext* ctx) : ctx_(ctx) {
    if (ctx_ != nullptr) status_ = ctx_->EnterDepth();
  }
  ~DepthScope() {
    if (ctx_ != nullptr && status_.ok()) ctx_->LeaveDepth();
  }
  DepthScope(const DepthScope&) = delete;
  DepthScope& operator=(const DepthScope&) = delete;

  const Status& status() const { return status_; }

 private:
  ExecContext* ctx_;
  Status status_;
};

}  // namespace htl

/// Polls a possibly-null ExecContext*; returns on deadline/cancel. The
/// standard loop-boundary idiom (CONTRIBUTING.md: every new loop over
/// segments or rows must poll its ExecContext).
#define HTL_CHECK_EXEC(ctx_ptr)                                  \
  do {                                                           \
    ::htl::ExecContext* htl_exec_tmp_ = (ctx_ptr);               \
    if (htl_exec_tmp_ != nullptr) {                              \
      HTL_RETURN_IF_ERROR(htl_exec_tmp_->Check());               \
    }                                                            \
  } while (0)

#endif  // HTL_ENGINE_EXEC_CONTEXT_H_
