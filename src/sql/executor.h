#ifndef HTL_SQL_EXECUTOR_H_
#define HTL_SQL_EXECUTOR_H_

#include <cstdint>

#include "engine/exec_context.h"
#include "obs/trace.h"
#include "sql/ast.h"
#include "sql/table.h"
#include "util/result.h"

namespace htl::sql {

/// Executes parsed statements against a catalog. The execution model is the
/// classic materializing interpreter: every SELECT fully materializes its
/// FROM pipeline (left-deep joins), then filters and aggregates — the
/// per-query overhead and large intermediates are exactly what the paper's
/// SQL-based approach pays on a commercial RDBMS. The statements are the
/// dialect TranslateToSql writes (see sql/ast.h); tables are loaded through
/// the Catalog, not by SQL.
///
/// Join strategy per JOIN ... ON:
///   * hash join when some conjunct is `inner_expr = outer_expr` with each
///     side touching only its own table(s);
///   * sorted-seek join when some conjuncts bound a single bare inner column
///     by outer-side expressions (plays the role of the RDBMS index);
///   * nested loop otherwise.
/// Remaining conjuncts run as residual filters.
///
/// Work is counted only in the metrics registry, while it is enabled:
/// `sql.statements`, `sql.rows_materialized` (rows written into
/// intermediate results), `sql.hash_joins`, `sql.range_joins` (sorted-seek
/// joins) and `sql.loop_joins` (plain nested loops).
class Executor {
 public:
  /// `catalog` must outlive the executor.
  explicit Executor(Catalog* catalog) : catalog_(catalog) {}

  /// Runs one statement. SELECT returns its result table; CREATE TABLE AS
  /// and DROP TABLE return an empty table.
  Result<Table> Execute(const Statement& stmt);

  /// Parses and runs one statement.
  Result<Table> ExecuteSql(std::string_view text);

  /// Attaches a deadline/cancellation/budget context. Join and filter loops
  /// poll it per outer row; every materialized intermediate charges the row
  /// budget, and each FROM pipeline charges one table per joined input.
  /// Budget counters reset per statement (ExecContext::BeginUnit). Null
  /// (the default) disables all limits.
  void set_exec_context(ExecContext* ctx) { exec_ = ctx; }

 private:
  Result<Table> ExecuteSelect(const SelectStmt& stmt);

  /// Poll + row-budget charge for one materialization step.
  Status ChargeRows(int64_t n);

  /// The trace riding on the attached ExecContext (null when unprofiled).
  obs::QueryTrace* trace() const {
    return exec_ != nullptr ? exec_->trace() : nullptr;
  }

  Catalog* catalog_;
  ExecContext* exec_ = nullptr;  // Not owned; null means unlimited.
};

}  // namespace htl::sql

#endif  // HTL_SQL_EXECUTOR_H_
