#ifndef HTL_PICTURE_PICTURE_SYSTEM_H_
#define HTL_PICTURE_PICTURE_SYSTEM_H_

#include <memory>

#include "model/video.h"
#include "model/video_stats.h"
#include "picture/atomic.h"
#include "sim/sim_table.h"
#include "sim/value_table.h"
#include "util/result.h"

namespace htl {

/// Tuning knobs for the picture-retrieval substrate.
struct PictureOptions {
  /// Upper bound on the number of candidate variable bindings enumerated
  /// for one atomic query (the product over variables of candidate-set
  /// sizes). Queries exceeding it fail with FailedPrecondition rather than
  /// running away; realistic annotated videos stay far below it.
  int64_t max_bindings = 1'000'000;
};

/// The similarity-based picture retrieval substrate — a re-implementation of
/// the published interface of the system the paper builds on ([27, 25, 2]):
/// given an atomic (non-temporal) formula and a level of the video
/// hierarchy, produce the similarity table of that formula over the level's
/// segments, scoring each segment by weighted partial match (the sum of the
/// weights of satisfied constraints; segments scoring zero are omitted).
///
/// Candidate objects and segments come from the video's one index
/// (VideoStats): the store's copy when the caller passes it, else one the
/// system builds at construction.
///
/// Semantics notes (documented in DESIGN.md):
///   * Bindings range over objects appearing anywhere at the queried level;
///     rows whose list would be empty are dropped. A wildcard row (object
///     column = kAnyObject) carries the score achievable regardless of that
///     variable's binding, preserving partial matches under joins.
///   * Constraints mentioning an attribute variable are "hard": a row's
///     range column records exactly the variable values for which they all
///     hold, and the constraint weights are included inside that range; for
///     values outside every row's range the atomic formula scores zero.
class PictureSystem {
 public:
  /// `video`, and `index` when given, must outlive the system. `index` must
  /// be built from `video`; null makes the system build and own one.
  explicit PictureSystem(const VideoTree* video, PictureOptions options = {},
                         const VideoStats* index = nullptr);

  const VideoTree& video() const { return *video_; }

  /// Similarity table of `atomic` over the segments of `level`. Columns:
  /// the atomic formula's free object variables and attribute variables.
  Result<SimilarityTable> Query(int level, const AtomicFormula& atomic);

  /// As Query for an atomic formula with no free variables (all object
  /// variables locally quantified, no attribute variables): a plain
  /// similarity list.
  Result<SimilarityList> QueryClosed(int level, const AtomicFormula& atomic);

  /// The value table of attribute function `q` (kAttrOfVar or kSegmentAttr)
  /// over the segments of `level` — input to the freeze join (section 3.3).
  Result<ValueTable> Values(int level, const AttrTerm& q);

 private:
  const VideoTree* video_;
  PictureOptions options_;
  std::unique_ptr<const VideoStats> owned_index_;  // Null when the caller's.
  const VideoStats* index_;
};

}  // namespace htl

#endif  // HTL_PICTURE_PICTURE_SYSTEM_H_
