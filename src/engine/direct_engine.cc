#include "engine/direct_engine.h"

#include <string>
#include <utility>

#include "cache/sim_list_cache.h"
#include "engine/level_eval.h"
#include "htl/fingerprint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "picture/atomic.h"
#include "sim/list_ops.h"
#include "sim/table_ops.h"
#include "util/fault_point.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace htl {

DirectEngine::DirectEngine(const VideoTree* video, QueryOptions options)
    : video_(video), options_(options), pictures_(video, options.picture) {
  HTL_CHECK(video != nullptr);
}

void DirectEngine::ClearCache() {
  atomic_cache_.clear();
  value_cache_.clear();
}

Result<SimilarityList> DirectEngine::EvaluateList(int level, const Formula& f) {
  if (level < 1 || level > video_->num_levels()) {
    return Status::OutOfRange(StrCat("level ", level, " out of range"));
  }
  const Interval bounds{1, video_->NumSegments(level)};
  HTL_ASSIGN_OR_RETURN(SimilarityTable table, EvalTable(level, bounds, f));
  HTL_DCHECK_OK(table.CheckInvariants());
  if (!table.object_vars().empty() || !table.attr_vars().empty()) {
    return Status::InvalidArgument(
        StrCat("formula has free variables (",
               StrJoin(table.object_vars(), ","), StrJoin(table.attr_vars(), ","),
               "); retrieval queries must be closed"));
  }
  return table.ToList(MaxSimilarity(f));
}

Result<Sim> DirectEngine::EvaluateVideo(const Formula& f) {
  HTL_ASSIGN_OR_RETURN(SimilarityTable table, EvalTable(1, Interval{1, 1}, f));
  if (!table.object_vars().empty() || !table.attr_vars().empty()) {
    return Status::InvalidArgument("formula has free variables");
  }
  return table.ToList(MaxSimilarity(f)).ValueAt(1);
}

Result<int> DirectEngine::ResolveLevel(int level, const LevelSpec& spec) const {
  int target = 0;
  switch (spec.kind) {
    case LevelSpec::Kind::kNextLevel:
      return level + 1;  // May exceed num_levels; the caller yields zeroes.
    case LevelSpec::Kind::kAbsolute:
      target = spec.level;
      break;
    case LevelSpec::Kind::kNamed: {
      HTL_ASSIGN_OR_RETURN(target, video_->LevelByName(spec.name));
      break;
    }
  }
  if (target <= level || target > video_->num_levels()) {
    return Status::InvalidArgument(
        StrCat("level operator targets level ", target, " from level ", level));
  }
  return target;
}

Result<SimilarityTable> DirectEngine::EvalLevelOp(int level, const Interval& bounds,
                                                  const Formula& f) {
  HTL_ASSIGN_OR_RETURN(int target, ResolveLevel(level, f.level));
  const double body_max = MaxSimilarity(*f.left);
  if (target > video_->num_levels()) {
    // at-next-level below the leaves: similarity zero everywhere.
    return SimilarityTable();
  }

  // Accumulate, per (objects, ranges) key, run-length entries over the
  // parent-level positions.
  LevelAccumulator acc;

  for (SegmentId pos = bounds.begin; pos <= bounds.end; ++pos) {
    HTL_CHECK_EXEC(exec_);
    const Interval seq = f.level.kind == LevelSpec::Kind::kNextLevel
                             ? video_->Children(level, pos)
                             : video_->DescendantsAtLevel(level, pos, target);
    if (seq.empty()) continue;
    counters_.level_evaluations.Increment();
    HTL_OBS_COUNT("engine.level_evaluations", 1);
    HTL_ASSIGN_OR_RETURN(SimilarityTable t, EvalTable(target, seq, *f.left));
    if (!acc.has_schema()) acc.SetSchema(t.object_vars(), t.attr_vars());
    for (const SimilarityTable::Row& row : t.rows()) {
      acc.Add(pos, row.list.ActualAt(seq.begin), row.objects, row.ranges);
    }
  }
  return acc.Finish(body_max);
}

Result<SimilarityTable> DirectEngine::EvalTable(int level, const Interval& bounds,
                                                const Formula& f) {
  // Every evaluation node is a loop boundary: poll deadline/cancellation
  // and bound the recursion depth (formula nesting) in one place.
  DepthScope depth(exec_);
  HTL_RETURN_IF_ERROR(depth.status());
  // Maximal atomic subtrees are single picture queries, evaluated once per
  // (subtree, level) over the whole level and clipped to the active bounds
  // (atomic similarity depends only on the segment, so clipping is exact).
  if (f.kind != FormulaKind::kTrue && f.kind != FormulaKind::kFalse &&
      IsAtomicShape(f)) {
    const auto key = std::make_pair(f.ToString(), level);
    auto it = atomic_cache_.find(key);
    if (it == atomic_cache_.end()) {
      counters_.atomic_queries.Increment();
      HTL_OBS_COUNT("engine.atomic_queries", 1);
      HTL_OBS_SPAN(span, trace(), "op.picture_query");
      HTL_ASSIGN_OR_RETURN(AtomicFormula atomic, ExtractAtomic(f));
      HTL_ASSIGN_OR_RETURN(SimilarityTable table, pictures_.Query(level, atomic));
      span.AddTables(1);
      span.AddRows(table.num_rows());
      if (exec_ != nullptr) {
        HTL_RETURN_IF_ERROR(exec_->ChargeTable());
        HTL_RETURN_IF_ERROR(exec_->ChargeRows(table.num_rows()));
      }
      it = atomic_cache_.emplace(key, std::move(table)).first;
    } else {
      counters_.atomic_cache_hits.Increment();
      HTL_OBS_COUNT("engine.atomic_cache_hits", 1);
    }
    return MapLists(it->second,
                    [&](const SimilarityList& l) { return l.Clip(bounds); });
  }

  // Cross-query similarity-list cache: closed non-atomic sub-formulas
  // evaluated over the full level are exactly the interval-coded
  // intermediates the paper makes reusable (§4-§5); serve them from the
  // retriever-shared cache when one is attached. Only ≤1-row closed tables
  // are published: for those, FromList(ToList(t)) reproduces the table the
  // cold path returns bit for bit, so a hit is indistinguishable from a
  // recompute.
  const bool cacheable =
      list_cache_ != nullptr && options_.cache_mode != CacheMode::kOff &&
      f.kind != FormulaKind::kTrue && f.kind != FormulaKind::kFalse &&
      bounds.begin == 1 && bounds.end == video_->NumSegments(level) &&
      FreeObjectVars(f).empty() && FreeAttrVars(f).empty();
  std::string cache_key;
  if (cacheable) {
    cache_key = CanonicalFormulaKey(f);
    if (cache::SimListCache::ListPtr hit =
            list_cache_->Get(cache_video_id_, level, cache_key, cache_epoch_)) {
      HTL_OBS_SPAN(span, trace(), "cache.list");
      span.SetNote("hit");
      span.AddIntervals(static_cast<int64_t>(hit->entries().size()));
      if (hit->empty()) return SimilarityTable();
      return SimilarityTable::FromList(*hit);
    }
  }
  HTL_ASSIGN_OR_RETURN(SimilarityTable table, EvalNode(level, bounds, f));
  if (cacheable && options_.cache_mode == CacheMode::kReadWrite &&
      table.num_rows() <= 1 && table.object_vars().empty() &&
      table.attr_vars().empty()) {
    list_cache_->Put(cache_video_id_, level, cache_key, cache_epoch_,
                     table.ToList(MaxSimilarity(f)));
  }
  return table;
}

Result<SimilarityTable> DirectEngine::EvalNode(int level, const Interval& bounds,
                                               const Formula& f) {
  switch (f.kind) {
    case FormulaKind::kTrue: {
      SimilarityList list =
          SimilarityList::FromEntriesOrDie({SimEntry{bounds, 1.0}}, 1.0);
      return SimilarityTable::FromList(std::move(list));
    }
    case FormulaKind::kFalse:
      return SimilarityTable();
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kUntil: {
      HTL_ASSIGN_OR_RETURN(SimilarityTable lhs, EvalTable(level, bounds, *f.left));
      HTL_ASSIGN_OR_RETURN(SimilarityTable rhs, EvalTable(level, bounds, *f.right));
      HTL_FAULT_POINT("engine.table_join");
      counters_.table_joins.Increment();
      HTL_OBS_COUNT("engine.table_joins", 1);
      // The span opens after the operands are evaluated, so it times the
      // join kernel alone (operand spans nest as siblings, not children).
      const char* join_name = f.kind == FormulaKind::kOr      ? "op.or_join"
                              : f.kind == FormulaKind::kUntil ? "op.until_join"
                                                              : "op.and_join";
      HTL_OBS_SPAN(span, trace(), join_name);
      span.AddTables(1);
      span.AddRows(lhs.num_rows() + rhs.num_rows());
      if (exec_ != nullptr) {
        HTL_RETURN_IF_ERROR(exec_->ChargeTable());
        HTL_RETURN_IF_ERROR(exec_->ChargeRows(lhs.num_rows() + rhs.num_rows()));
      }
      TableCombine op = f.kind == FormulaKind::kOr    ? TableCombine::kOr
                        : f.kind == FormulaKind::kUntil ? TableCombine::kUntil
                        : options_.and_semantics == AndSemantics::kFuzzyMin
                            ? TableCombine::kFuzzyAnd
                            : TableCombine::kAnd;
      return JoinTables(lhs, MaxSimilarity(*f.left), rhs, MaxSimilarity(*f.right), op,
                        options_.until_threshold);
    }
    case FormulaKind::kNext: {
      HTL_ASSIGN_OR_RETURN(SimilarityTable t, EvalTable(level, bounds, *f.left));
      HTL_OBS_SPAN(span, trace(), "op.next_shift");
      span.AddRows(t.num_rows());
      return MapLists(t, [&](const SimilarityList& l) {
        return NextShift(l).Clip(bounds);
      });
    }
    case FormulaKind::kEventually: {
      HTL_ASSIGN_OR_RETURN(SimilarityTable t, EvalTable(level, bounds, *f.left));
      HTL_OBS_SPAN(span, trace(), "op.eventually");
      span.AddRows(t.num_rows());
      return MapLists(t, [](const SimilarityList& l) { return Eventually(l); });
    }
    case FormulaKind::kExists: {
      counters_.exists_collapses.Increment();
      HTL_OBS_COUNT("engine.exists_collapses", 1);
      HTL_ASSIGN_OR_RETURN(SimilarityTable t, EvalTable(level, bounds, *f.left));
      HTL_OBS_SPAN(span, trace(), "op.exists_collapse");
      span.AddRows(t.num_rows());
      return CollapseExists(t, f.vars);
    }
    case FormulaKind::kFreeze: {
      HTL_ASSIGN_OR_RETURN(SimilarityTable t, EvalTable(level, bounds, *f.left));
      if (t.AttrColumn(f.freeze_var) < 0) return t;  // Variable unused.
      const auto key = std::make_pair(f.freeze_term.ToString(), level);
      auto it = value_cache_.find(key);
      if (it == value_cache_.end()) {
        HTL_OBS_SPAN(vspan, trace(), "op.value_table");
        HTL_FAULT_POINT("engine.value_table");
        HTL_ASSIGN_OR_RETURN(ValueTable vt, pictures_.Values(level, f.freeze_term));
        vspan.AddRows(vt.num_rows());
        vspan.AddTables(1);
        it = value_cache_.emplace(key, std::move(vt)).first;
      }
      counters_.freeze_joins.Increment();
      HTL_OBS_COUNT("engine.freeze_joins", 1);
      HTL_OBS_SPAN(span, trace(), "op.freeze_join");
      span.AddRows(t.num_rows());
      return FreezeJoin(t, f.freeze_var, it->second);
    }
    case FormulaKind::kLevel: {
      HTL_OBS_SPAN(span, trace(), "op.level_eval");
      return EvalLevelOp(level, bounds, f);
    }
    case FormulaKind::kNot: {
      // Extension: negation of a *closed* subformula complements its list
      // over the active bounds (actual' = max - actual). Negation over free
      // variables would need complemented tables with universal rows —
      // outside the paper's classes; the reference engine covers it.
      HTL_ASSIGN_OR_RETURN(SimilarityTable t, EvalTable(level, bounds, *f.left));
      if (!t.object_vars().empty() || !t.attr_vars().empty()) {
        return Status::Unimplemented(
            "negation over free variables is outside the extended conjunctive "
            "class (section 2.5); use ReferenceEngine for general formulas");
      }
      HTL_OBS_SPAN(span, trace(), "op.complement");
      span.AddRows(t.num_rows());
      return SimilarityTable::FromList(
          Complement(t.ToList(MaxSimilarity(*f.left)), bounds));
    }
    case FormulaKind::kConstraint:
      break;  // Handled by the atomic branch above.
  }
  return Status::Internal(StrCat("unhandled formula: ", f.ToString()));
}

Result<SimilarityList> EvaluateWithLists(
    const Formula& f, const std::map<std::string, SimilarityList>& inputs,
    const QueryOptions& options, obs::QueryTrace* trace) {
  switch (f.kind) {
    case FormulaKind::kConstraint: {
      if (f.constraint.kind != Constraint::Kind::kPredicate) {
        return Status::InvalidArgument(
            StrCat("list evaluation expects named predicates as leaves, got: ",
                   f.constraint.ToString()));
      }
      auto it = inputs.find(f.constraint.pred_name);
      if (it == inputs.end()) {
        return Status::NotFound(
            StrCat("no input similarity list for predicate '", f.constraint.pred_name,
                   "'"));
      }
      return it->second;
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kUntil: {
      HTL_ASSIGN_OR_RETURN(SimilarityList lhs,
                           EvaluateWithLists(*f.left, inputs, options, trace));
      HTL_ASSIGN_OR_RETURN(SimilarityList rhs,
                           EvaluateWithLists(*f.right, inputs, options, trace));
      const char* merge_name = f.kind == FormulaKind::kAnd     ? "op.and_merge"
                               : f.kind == FormulaKind::kOr    ? "op.or_merge"
                                                               : "op.until_merge";
      HTL_OBS_SPAN(span, trace, merge_name);
      span.AddRows(lhs.length() + rhs.length());
      SimilarityList out =
          f.kind == FormulaKind::kAnd
              ? (options.and_semantics == AndSemantics::kFuzzyMin
                     ? FuzzyMinAndMerge(lhs, rhs)
                     : AndMerge(lhs, rhs))
          : f.kind == FormulaKind::kOr ? OrMerge(lhs, rhs)
                                       : UntilMerge(lhs, rhs, options.until_threshold);
      span.AddIntervals(out.length());
      return out;
    }
    case FormulaKind::kNext: {
      HTL_ASSIGN_OR_RETURN(SimilarityList l,
                           EvaluateWithLists(*f.left, inputs, options, trace));
      HTL_OBS_SPAN(span, trace, "op.next_shift");
      span.AddRows(l.length());
      SimilarityList out = NextShift(l);
      span.AddIntervals(out.length());
      return out;
    }
    case FormulaKind::kEventually: {
      HTL_ASSIGN_OR_RETURN(SimilarityList l,
                           EvaluateWithLists(*f.left, inputs, options, trace));
      HTL_OBS_SPAN(span, trace, "op.eventually");
      span.AddRows(l.length());
      SimilarityList out = Eventually(l);
      span.AddIntervals(out.length());
      return out;
    }
    default:
      return Status::InvalidArgument(
          StrCat("not a list-evaluable (type (1)) formula: ", f.ToString()));
  }
}

}  // namespace htl
