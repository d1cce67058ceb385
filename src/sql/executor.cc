#include "sql/executor.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "util/fault_point.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace htl::sql {

namespace {

// ---------------------------------------------------------------------------
// Schema of an intermediate working set: qualified columns.

struct SchemaCol {
  std::string alias;   // Table alias (lower-cased).
  std::string column;  // Column name (lower-cased).
};

struct Schema {
  std::vector<SchemaCol> cols;

  Result<int> Resolve(const std::string& alias, const std::string& column) const {
    const std::string a = AsciiToLower(alias);
    const std::string c = AsciiToLower(column);
    int found = -1;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (!a.empty() && cols[i].alias != a) continue;
      if (cols[i].column != c) continue;
      if (found >= 0) {
        return Status::InvalidArgument(StrCat("ambiguous column '", column, "'"));
      }
      found = static_cast<int>(i);
    }
    if (found < 0) {
      return Status::InvalidArgument(
          StrCat("unknown column '", alias.empty() ? column : alias + "." + column, "'"));
    }
    return found;
  }
};

// ---------------------------------------------------------------------------
// Bound (column-resolved) expressions.

enum class BKind { kLiteral, kColumn, kUnary, kBinary, kFunction, kIsNull, kAggSlot };

struct BoundExpr {
  BKind kind = BKind::kLiteral;
  Value literal;
  int index = -1;  // kColumn: row index; kAggSlot: aggregate slot.
  std::string op;
  std::string fn;
  bool is_not_null = false;
  std::vector<BoundExpr> args;
};

struct BindContext {
  const Schema* schema = nullptr;
  // When non-null, MAX calls are allowed and their bound arguments are
  // collected here, one aggregate slot each.
  std::vector<BoundExpr>* aggs = nullptr;
};

Result<BoundExpr> BindExpr(const Expr& e, const BindContext& ctx) {
  BoundExpr b;
  switch (e.kind) {
    case ExprKind::kLiteral:
      b.kind = BKind::kLiteral;
      b.literal = e.literal;
      return b;
    case ExprKind::kColumn: {
      b.kind = BKind::kColumn;
      HTL_ASSIGN_OR_RETURN(b.index, ctx.schema->Resolve(e.table_alias, e.column));
      return b;
    }
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is only valid as a whole select item");
    case ExprKind::kUnary: {
      b.kind = BKind::kUnary;
      b.op = e.op;
      HTL_ASSIGN_OR_RETURN(BoundExpr a, BindExpr(*e.args[0], ctx));
      b.args.push_back(std::move(a));
      return b;
    }
    case ExprKind::kBinary: {
      b.kind = BKind::kBinary;
      b.op = e.op;
      for (const auto& arg : e.args) {
        HTL_ASSIGN_OR_RETURN(BoundExpr a, BindExpr(*arg, ctx));
        b.args.push_back(std::move(a));
      }
      return b;
    }
    case ExprKind::kFunction: {
      b.kind = BKind::kFunction;
      b.fn = e.fn;
      for (const auto& arg : e.args) {
        HTL_ASSIGN_OR_RETURN(BoundExpr a, BindExpr(*arg, ctx));
        b.args.push_back(std::move(a));
      }
      return b;
    }
    case ExprKind::kAggregate: {
      if (ctx.aggs == nullptr) {
        return Status::InvalidArgument(
            StrCat("aggregate ", e.fn, "() not allowed in this clause"));
      }
      if (e.args.size() != 1) {
        return Status::InvalidArgument(StrCat(e.fn, "() takes one argument"));
      }
      BindContext inner = ctx;
      inner.aggs = nullptr;  // No nested aggregates.
      HTL_ASSIGN_OR_RETURN(BoundExpr arg, BindExpr(*e.args[0], inner));
      b.kind = BKind::kAggSlot;
      b.index = static_cast<int>(ctx.aggs->size());
      ctx.aggs->push_back(std::move(arg));
      return b;
    }
    case ExprKind::kIsNull: {
      b.kind = BKind::kIsNull;
      b.is_not_null = e.is_not_null;
      HTL_ASSIGN_OR_RETURN(BoundExpr a, BindExpr(*e.args[0], ctx));
      b.args.push_back(std::move(a));
      return b;
    }
  }
  return Status::Internal("unhandled expression kind");
}

Value EvalBound(const BoundExpr& e, const Row& row, const std::vector<Value>* aggs) {
  switch (e.kind) {
    case BKind::kLiteral:
      return e.literal;
    case BKind::kColumn:
      return row[static_cast<size_t>(e.index)];
    case BKind::kAggSlot:
      HTL_CHECK(aggs != nullptr);
      return (*aggs)[static_cast<size_t>(e.index)];
    case BKind::kUnary: {
      Value v = EvalBound(e.args[0], row, aggs);
      if (e.op == "not") return Value::FromBool(!v.Truthy());
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value(-v.AsInt());
      if (v.is_double()) return Value(-v.AsDouble());
      return Value::Null();
    }
    case BKind::kIsNull: {
      const bool isnull = EvalBound(e.args[0], row, aggs).is_null();
      return Value::FromBool(e.is_not_null ? !isnull : isnull);
    }
    case BKind::kFunction: {
      if (e.fn == "coalesce") {
        for (const BoundExpr& a : e.args) {
          Value v = EvalBound(a, row, aggs);
          if (!v.is_null()) return v;
        }
        return Value::Null();
      }
      // least / greatest: NULL if any argument is NULL (SQL semantics).
      Value best;
      bool first = true;
      for (const BoundExpr& a : e.args) {
        Value v = EvalBound(a, row, aggs);
        if (v.is_null()) return Value::Null();
        if (first) {
          best = v;
          first = false;
          continue;
        }
        const int cmp = Value::Compare(v, best);
        if ((e.fn == "least" && cmp < 0) || (e.fn == "greatest" && cmp > 0)) best = v;
      }
      return best;
    }
    case BKind::kBinary: {
      if (e.op == "and") {
        return Value::FromBool(EvalBound(e.args[0], row, aggs).Truthy() &&
                               EvalBound(e.args[1], row, aggs).Truthy());
      }
      if (e.op == "or") {
        return Value::FromBool(EvalBound(e.args[0], row, aggs).Truthy() ||
                               EvalBound(e.args[1], row, aggs).Truthy());
      }
      Value l = EvalBound(e.args[0], row, aggs);
      Value r = EvalBound(e.args[1], row, aggs);
      if (l.is_null() || r.is_null()) return Value::Null();
      if (e.op == "=") return Value::FromBool(l == r);
      if (e.op == "!=") return Value::FromBool(!(l == r));
      if (e.op == "<") return Value::FromBool(Value::Compare(l, r) < 0);
      if (e.op == "<=") return Value::FromBool(Value::Compare(l, r) <= 0);
      if (e.op == ">") return Value::FromBool(Value::Compare(l, r) > 0);
      if (e.op == ">=") return Value::FromBool(Value::Compare(l, r) >= 0);
      // Arithmetic.
      if (!l.is_numeric() || !r.is_numeric()) return Value::Null();
      if (e.op == "/") {
        const double d = r.AsDouble();
        if (d == 0) return Value::Null();
        return Value(l.AsDouble() / d);
      }
      if (l.is_int() && r.is_int()) {
        if (e.op == "+") return Value(l.AsInt() + r.AsInt());
        if (e.op == "-") return Value(l.AsInt() - r.AsInt());
        if (e.op == "*") return Value(l.AsInt() * r.AsInt());
      } else {
        if (e.op == "+") return Value(l.AsDouble() + r.AsDouble());
        if (e.op == "-") return Value(l.AsDouble() - r.AsDouble());
        if (e.op == "*") return Value(l.AsDouble() * r.AsDouble());
      }
      return Value::Null();
    }
  }
  return Value::Null();
}

// True when the bound expression only reads columns with index in
// [lo, hi) (aggregates/agg slots disqualify).
bool ReadsOnly(const BoundExpr& e, int lo, int hi) {
  if (e.kind == BKind::kColumn) return e.index >= lo && e.index < hi;
  if (e.kind == BKind::kAggSlot) return false;
  for (const BoundExpr& a : e.args) {
    if (!ReadsOnly(a, lo, hi)) return false;
  }
  return true;
}

void SplitConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary && e.op == "and") {
    SplitConjuncts(*e.args[0], out);
    SplitConjuncts(*e.args[1], out);
    return;
  }
  out->push_back(&e);
}

// Rebases a bound expression that reads only inner columns [w, w+inner_width)
// to read [0, inner_width) instead — for evaluating on a bare inner row.
BoundExpr Rebase(const BoundExpr& e, int w) {
  BoundExpr out = e;
  if (out.kind == BKind::kColumn) out.index -= w;
  for (BoundExpr& a : out.args) a = Rebase(a, w);
  return out;
}

}  // namespace

Result<Table> Executor::ExecuteSql(std::string_view text) {
  HTL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(text));
  return Execute(stmt);
}

Status Executor::ChargeRows(int64_t n) {
  if (exec_ == nullptr) return Status::OK();
  return exec_->ChargeRows(n);
}

Result<Table> Executor::Execute(const Statement& stmt) {
  HTL_OBS_COUNT("sql.statements", 1);
  HTL_OBS_SPAN(span, trace(), "sql.statement");
  // Statement boundary: poll deadline/cancel and reset the per-unit
  // budgets, so each statement of a translated script is bounded alone.
  if (exec_ != nullptr) {
    exec_->BeginUnit();
    HTL_RETURN_IF_ERROR(exec_->Check());
  }
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(*stmt.select);
    case Statement::Kind::kCreateTableAs: {
      HTL_ASSIGN_OR_RETURN(Table t, ExecuteSelect(*stmt.select));
      HTL_RETURN_IF_ERROR(catalog_->Create(stmt.table, std::move(t)));
      return Table();
    }
    case Statement::Kind::kDropTable: {
      HTL_RETURN_IF_ERROR(catalog_->Drop(stmt.table, stmt.if_exists));
      return Table();
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<Table> Executor::ExecuteSelect(const SelectStmt& stmt) {
  // SELECT nesting (UNION ALL chains, CREATE TABLE AS) is bounded by the
  // context's depth budget.
  DepthScope depth(exec_);
  HTL_RETURN_IF_ERROR(depth.status());
  // ---- FROM: left-deep materialized join pipeline ------------------------
  Schema schema;
  std::vector<Row> work;
  bool first_table = true;
  for (const TableRef& ref : stmt.from) {
    // The base-table scan: in the paper's setup this is Sybase reading a
    // stored relation.
    const Table* t = nullptr;
    {
      HTL_OBS_SPAN(scan_span, trace(), "sql.scan");
      HTL_FAULT_POINT("sql.scan");
      if (exec_ != nullptr) HTL_RETURN_IF_ERROR(exec_->ChargeTable());
      HTL_ASSIGN_OR_RETURN(t, catalog_->Get(ref.table));
      scan_span.AddTables(1);
      scan_span.AddRows(t->num_rows());
    }
    const std::string alias = AsciiToLower(ref.alias);
    Schema inner_schema;
    for (const std::string& c : t->columns()) {
      inner_schema.cols.push_back(SchemaCol{alias, AsciiToLower(c)});
    }
    if (first_table) {
      schema = inner_schema;
      work = t->rows();
      first_table = false;
      continue;
    }
    const int w = static_cast<int>(schema.cols.size());
    const int iw = static_cast<int>(inner_schema.cols.size());
    Schema combined = schema;
    combined.cols.insert(combined.cols.end(), inner_schema.cols.begin(),
                         inner_schema.cols.end());

    // Classify ON conjuncts.
    std::vector<const Expr*> conjuncts;
    if (ref.on) SplitConjuncts(*ref.on, &conjuncts);
    BindContext cctx{&combined, nullptr};
    struct EquiPair {
      BoundExpr outer;  // Evaluated on the outer row.
      BoundExpr inner;  // Rebased to the inner row.
    };
    std::vector<EquiPair> equis;
    struct RangeBound {
      BoundExpr outer;  // Bound value from the outer row.
      bool is_lower;    // inner >= / > outer  vs  inner <= / < outer.
      bool strict;
      BoundExpr full;   // The whole conjunct, for residual demotion.
    };
    int range_col = -1;  // Inner column index (rebased) for range bounds.
    std::vector<RangeBound> ranges;
    std::vector<BoundExpr> residual;
    for (const Expr* c : conjuncts) {
      HTL_ASSIGN_OR_RETURN(BoundExpr b, BindExpr(*c, cctx));
      bool handled = false;
      if (b.kind == BKind::kBinary &&
          (b.op == "=" || b.op == "<" || b.op == "<=" || b.op == ">" || b.op == ">=")) {
        const BoundExpr* lhs = &b.args[0];
        const BoundExpr* rhs = &b.args[1];
        std::string op = b.op;
        // Normalize to inner OP outer.
        if (ReadsOnly(*lhs, 0, w) && ReadsOnly(*rhs, w, w + iw)) {
          std::swap(lhs, rhs);
          if (op == "<") op = ">";
          else if (op == "<=") op = ">=";
          else if (op == ">") op = "<";
          else if (op == ">=") op = "<=";
        }
        if (ReadsOnly(*lhs, w, w + iw) && ReadsOnly(*rhs, 0, w)) {
          if (op == "=") {
            equis.push_back(EquiPair{*rhs, Rebase(*lhs, w)});
            handled = true;
          } else if (lhs->kind == BKind::kColumn) {
            const int col = lhs->index - w;
            if (range_col < 0 || range_col == col) {
              range_col = col;
              ranges.push_back(RangeBound{*rhs, op == ">" || op == ">=",
                                          op == ">" || op == "<", b});
              handled = true;
            }
          }
        }
      }
      if (!handled) residual.push_back(std::move(b));
    }
    // Strategy selection: a hash join wins whenever an equality is present;
    // range conjuncts then demote to residual filters (they were collected
    // for a sort-seek join that will not run).
    if (!equis.empty()) {
      for (RangeBound& rb : ranges) residual.push_back(std::move(rb.full));
      ranges.clear();
      range_col = -1;
    }

    std::vector<Row> next;
    auto emit = [&](const Row& outer, const Row* inner) -> bool {
      Row combined_row = outer;
      if (inner != nullptr) {
        combined_row.insert(combined_row.end(), inner->begin(), inner->end());
      } else {
        combined_row.resize(static_cast<size_t>(w + iw));  // NULL padding.
      }
      if (inner != nullptr) {
        for (const BoundExpr& r : residual) {
          if (!EvalBound(r, combined_row, nullptr).Truthy()) return false;
        }
      }
      next.push_back(std::move(combined_row));
      return true;
    };

    if (!equis.empty()) {
      HTL_OBS_COUNT("sql.hash_joins", 1);
      HTL_OBS_SPAN(span, trace(), "sql.hash_join");
      span.AddRows(static_cast<int64_t>(work.size()) + t->num_rows());
      std::unordered_map<std::string, std::vector<const Row*>> ht;
      ht.reserve(t->rows().size() * 2);
      for (const Row& ir : t->rows()) {
        std::string key;
        for (const EquiPair& ep : equis) key += EvalBound(ep.inner, ir, nullptr).Key() + "|";
        ht[key].push_back(&ir);
      }
      for (const Row& outer : work) {
        HTL_CHECK_EXEC(exec_);
        std::string key;
        for (const EquiPair& ep : equis) key += EvalBound(ep.outer, outer, nullptr).Key() + "|";
        bool matched = false;
        auto it = ht.find(key);
        if (it != ht.end()) {
          for (const Row* ir : it->second) matched |= emit(outer, ir);
        }
        if (!matched && ref.join == JoinType::kLeft) emit(outer, nullptr);
      }
    } else if (range_col >= 0) {
      HTL_OBS_COUNT("sql.range_joins", 1);
      HTL_OBS_SPAN(span, trace(), "sql.range_join");
      span.AddRows(static_cast<int64_t>(work.size()) + t->num_rows());
      // Sort inner row pointers by the range column.
      std::vector<const Row*> sorted;
      sorted.reserve(t->rows().size());
      for (const Row& ir : t->rows()) sorted.push_back(&ir);
      std::sort(sorted.begin(), sorted.end(), [&](const Row* a, const Row* b) {
        return Value::Compare((*a)[static_cast<size_t>(range_col)],
                              (*b)[static_cast<size_t>(range_col)]) < 0;
      });
      for (const Row& outer : work) {
        HTL_CHECK_EXEC(exec_);
        // Effective bounds for this outer row.
        Value lo, hi;
        bool lo_strict = false, hi_strict = false, empty = false;
        for (const RangeBound& rb : ranges) {
          Value v = EvalBound(rb.outer, outer, nullptr);
          if (v.is_null()) {
            empty = true;
            break;
          }
          if (rb.is_lower) {
            if (lo.is_null() || Value::Compare(v, lo) > 0 ||
                (Value::Compare(v, lo) == 0 && rb.strict)) {
              lo = v;
              lo_strict = rb.strict;
            }
          } else {
            if (hi.is_null() || Value::Compare(v, hi) < 0 ||
                (Value::Compare(v, hi) == 0 && rb.strict)) {
              hi = v;
              hi_strict = rb.strict;
            }
          }
        }
        bool matched = false;
        if (!empty) {
          size_t start = 0;
          if (!lo.is_null()) {
            start = static_cast<size_t>(
                std::lower_bound(sorted.begin(), sorted.end(), lo,
                                 [&](const Row* r, const Value& v) {
                                   const int cmp = Value::Compare(
                                       (*r)[static_cast<size_t>(range_col)], v);
                                   return lo_strict ? cmp <= 0 : cmp < 0;
                                 }) -
                sorted.begin());
          }
          for (size_t i = start; i < sorted.size(); ++i) {
            const Value& v = (*sorted[i])[static_cast<size_t>(range_col)];
            if (v.is_null()) continue;
            if (!hi.is_null()) {
              const int cmp = Value::Compare(v, hi);
              if (cmp > 0 || (cmp == 0 && hi_strict)) break;
            }
            matched |= emit(outer, sorted[i]);
          }
        }
        if (!matched && ref.join == JoinType::kLeft) emit(outer, nullptr);
      }
    } else {
      HTL_OBS_COUNT("sql.loop_joins", 1);
      HTL_OBS_SPAN(span, trace(), "sql.loop_join");
      span.AddRows(static_cast<int64_t>(work.size()) + t->num_rows());
      for (const Row& outer : work) {
        HTL_CHECK_EXEC(exec_);
        bool matched = false;
        for (const Row& ir : t->rows()) matched |= emit(outer, &ir);
        if (!matched && ref.join == JoinType::kLeft) emit(outer, nullptr);
      }
    }
    schema = std::move(combined);
    work = std::move(next);
    HTL_OBS_COUNT("sql.rows_materialized", static_cast<int64_t>(work.size()));
    HTL_RETURN_IF_ERROR(ChargeRows(static_cast<int64_t>(work.size())));
  }

  // ---- WHERE --------------------------------------------------------------
  if (stmt.where) {
    BindContext ctx{&schema, nullptr};
    HTL_ASSIGN_OR_RETURN(BoundExpr w, BindExpr(*stmt.where, ctx));
    std::vector<Row> filtered;
    filtered.reserve(work.size());
    for (Row& r : work) {
      HTL_CHECK_EXEC(exec_);
      if (EvalBound(w, r, nullptr).Truthy()) filtered.push_back(std::move(r));
    }
    work = std::move(filtered);
  }

  // ---- Select list / aggregation -----------------------------------------
  // Expand '*' items. Expanded items are owned by `owned`; the rest alias
  // the statement's expressions.
  std::vector<ExprPtr> owned;
  std::vector<std::pair<const Expr*, std::string>> items;  // (expr, alias)
  for (const SelectItem& item : stmt.items) {
    if (item.expr->kind == ExprKind::kStar) {
      for (const SchemaCol& sc : schema.cols) {
        owned.push_back(MakeColumn(sc.alias, sc.column));
        items.emplace_back(owned.back().get(), sc.column);
      }
    } else {
      items.emplace_back(item.expr.get(), item.alias);
    }
  }

  auto output_name = [&](const std::pair<const Expr*, std::string>& si,
                         size_t i) -> std::string {
    if (!si.second.empty()) return AsciiToLower(si.second);
    if (si.first->kind == ExprKind::kColumn) return AsciiToLower(si.first->column);
    return StrCat("col", i + 1);
  };

  std::vector<std::string> out_cols;
  for (size_t i = 0; i < items.size(); ++i) out_cols.push_back(output_name(items[i], i));
  Table out(out_cols);

  std::vector<BoundExpr> aggs;  // The argument of each MAX, by slot.
  BindContext agg_ctx{&schema, &aggs};
  std::vector<BoundExpr> bound_items;
  for (const auto& si : items) {
    HTL_ASSIGN_OR_RETURN(BoundExpr b, BindExpr(*si.first, agg_ctx));
    bound_items.push_back(std::move(b));
  }

  const bool aggregate_query = !aggs.empty() || !stmt.group_by.empty();
  if (aggregate_query) {
    BindContext plain{&schema, nullptr};
    std::vector<BoundExpr> keys;
    for (const auto& g : stmt.group_by) {
      HTL_ASSIGN_OR_RETURN(BoundExpr b, BindExpr(*g, plain));
      keys.push_back(std::move(b));
    }
    struct Group {
      Row representative;
      std::vector<Value> maxes;  // One per aggregate slot; NULL until a value.
    };
    std::map<std::string, Group> groups;
    for (const Row& r : work) {
      HTL_CHECK_EXEC(exec_);
      std::string key;
      for (const BoundExpr& k : keys) key += EvalBound(k, r, nullptr).Key() + "|";
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) {
        it->second.representative = r;
        it->second.maxes.resize(aggs.size());
      }
      for (size_t i = 0; i < aggs.size(); ++i) {
        Value v = EvalBound(aggs[i], r, nullptr);
        Value& max = it->second.maxes[i];
        if (!v.is_null() && (max.is_null() || Value::Compare(v, max) > 0)) {
          max = std::move(v);
        }
      }
    }
    // A global aggregate over zero rows still yields one group.
    if (groups.empty() && stmt.group_by.empty()) {
      Group g;
      g.representative.resize(schema.cols.size());
      g.maxes.resize(aggs.size());
      groups.emplace("", std::move(g));
    }
    for (const auto& [key, g] : groups) {
      Row out_row;
      out_row.reserve(bound_items.size());
      for (const BoundExpr& b : bound_items) {
        out_row.push_back(EvalBound(b, g.representative, &g.maxes));
      }
      out.AddRow(std::move(out_row));
    }
  } else {
    for (const Row& r : work) {
      Row out_row;
      out_row.reserve(bound_items.size());
      for (const BoundExpr& b : bound_items) out_row.push_back(EvalBound(b, r, nullptr));
      out.AddRow(std::move(out_row));
    }
  }
  HTL_OBS_COUNT("sql.rows_materialized", out.num_rows());
  HTL_RETURN_IF_ERROR(ChargeRows(out.num_rows()));

  // ---- DISTINCT -------------------------------------------------------------
  if (stmt.distinct) {
    std::unordered_set<std::string> seen;
    std::vector<Row> rows;
    for (Row& r : out.mutable_rows()) {
      std::string key;
      for (const Value& v : r) key += v.Key() + "|";
      if (seen.insert(std::move(key)).second) rows.push_back(std::move(r));
    }
    out.mutable_rows() = std::move(rows);
  }

  // ---- UNION ALL ------------------------------------------------------------
  if (stmt.union_all) {
    HTL_ASSIGN_OR_RETURN(Table rest, ExecuteSelect(*stmt.union_all));
    if (rest.columns().size() != out.columns().size()) {
      return Status::InvalidArgument("UNION ALL arity mismatch");
    }
    for (Row& r : rest.mutable_rows()) out.AddRow(std::move(r));
  }
  return out;
}

}  // namespace htl::sql
