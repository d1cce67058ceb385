#ifndef HTL_ENGINE_LEVEL_EVAL_H_
#define HTL_ENGINE_LEVEL_EVAL_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/object.h"
#include "sim/sim_table.h"
#include "util/result.h"

namespace htl {

/// Per-position accumulator behind the level modal operators: collects, for
/// every (object bindings, value ranges) key, run-length-encoded entries
/// over the parent-level positions, then materializes the result table.
///
/// Used by DirectEngine::EvalLevelOp.
class LevelAccumulator {
 public:
  /// Captures the output schema from the first evaluated position's table
  /// (even an empty one — the schema is what matters).
  void SetSchema(const std::vector<std::string>& object_vars,
                 const std::vector<std::string>& attr_vars) {
    if (!schema_.has_value()) schema_ = SimilarityTable(object_vars, attr_vars);
  }
  bool has_schema() const { return schema_.has_value(); }

  /// Feeds one row's value at parent position `pos` (the body's similarity
  /// at the first element of the position's descendant sequence). Zero and
  /// negative values are dropped; equal values at adjacent positions extend
  /// the previous run.
  void Add(SegmentId pos, double value, const std::vector<ObjectId>& objects,
           const std::vector<ValueRange>& ranges);

  /// Builds the result table (empty when no position was fed a schema);
  /// every row's list gets `body_max` as its maximum.
  Result<SimilarityTable> Finish(double body_max);

 private:
  struct Accum {
    std::vector<ObjectId> objects;
    std::vector<ValueRange> ranges;
    std::vector<SimEntry> entries;
  };

  std::optional<SimilarityTable> schema_;
  std::map<std::string, Accum> accums_;
};

}  // namespace htl

#endif  // HTL_ENGINE_LEVEL_EVAL_H_
