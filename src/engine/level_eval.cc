#include "engine/level_eval.h"

#include <utility>

#include "util/string_util.h"

// htl-lint: allow(exec-context-polling) — the accumulator only folds rows
// the caller already evaluated and charged; DirectEngine::EvalLevelOp polls
// the ExecContext per descendant sequence around these calls.

namespace htl {

void LevelAccumulator::Add(SegmentId pos, double value,
                           const std::vector<ObjectId>& objects,
                           const std::vector<ValueRange>& ranges) {
  if (value <= 0) return;
  std::string key;
  for (ObjectId o : objects) key += StrCat(o, "|");
  for (const ValueRange& r : ranges) key += r.ToString() + "|";
  Accum& acc = accums_[key];
  if (acc.entries.empty()) {
    acc.objects = objects;
    acc.ranges = ranges;
  }
  if (!acc.entries.empty() && acc.entries.back().actual == value &&
      acc.entries.back().range.end + 1 == pos) {
    acc.entries.back().range.end = pos;
  } else {
    acc.entries.push_back(SimEntry{Interval{pos, pos}, value});
  }
}

Result<SimilarityTable> LevelAccumulator::Finish(double body_max) {
  if (!schema_.has_value()) return SimilarityTable();
  SimilarityTable out(schema_->object_vars(), schema_->attr_vars());
  for (auto& [key, acc] : accums_) {
    SimilarityTable::Row row;
    row.objects = std::move(acc.objects);
    row.ranges = std::move(acc.ranges);
    HTL_ASSIGN_OR_RETURN(row.list,
                         SimilarityList::FromEntries(std::move(acc.entries), body_max));
    out.AddRow(std::move(row));
  }
  return out;
}

}  // namespace htl
