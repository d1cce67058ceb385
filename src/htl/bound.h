#ifndef HTL_HTL_BOUND_H_
#define HTL_HTL_BOUND_H_

#include "htl/ast.h"
#include "model/video.h"
#include "model/video_stats.h"

namespace htl {

/// Knobs the bound derivation must mirror from QueryOptions (a plain struct
/// rather than QueryOptions itself, so htl/ does not depend on engine/).
struct BoundOptions {
  /// True for AndSemantics::kFuzzyMin: non-atomic conjunctions combine as
  /// min of the operand fractions instead of the weighted average.
  bool fuzzy_and = false;
};

/// Absolute floating-point guard band applied when a pruning decision
/// compares a derived bound against the top-k floor: a video is pruned only
/// when `bound < floor - kBoundSlack`. The bound arithmetic re-associates
/// the same weight sums the engines compute, so the two can differ by a few
/// ulps; the band turns "equal up to rounding" into "never pruned", keeping
/// the skip decision sound without requiring bit-exact bound arithmetic.
inline constexpr double kBoundSlack = 1e-9;

/// A sound upper bound, in [0, 1], on the fractional similarity
/// (Sim::fraction()) that `f` can attain on any segment of `video` at
/// `level` — the threshold-style score cap of DESIGN.md "Scale-out
/// retrieval". Derived structurally from `stats`, `video`'s index, without
/// evaluating the formula (a level outside the video bounds at 1):
///
///   - maximal atomic-shaped subtrees score at most the weight fraction of
///     their independently-satisfiable constraints (the picture system's
///     weighted partial matching, relaxed constraint-by-constraint);
///   - and/or/until/next/eventually/exists/freeze/level nodes combine the
///     operand bounds exactly along the MaxSimilarity() weight structure of
///     the merge kernels (sim/list_ops.h);
///   - anything the derivation cannot see through (negation, unresolvable
///     level names, attribute-variable comparisons) widens to 1 — a bound
///     of 1 never prunes, so unknown always degrades to full evaluation.
///
/// The soundness property (bound >= true best fraction per video, within
/// kBoundSlack) is asserted over randomized corpora and formulas by
/// tests/property/bound_soundness_test.cc, and the end-to-end guarantee
/// (pruning never perturbs ranked output, statuses, or reports, and every
/// pruned video's bound is below the k-th hit's fraction minus kBoundSlack)
/// by tests/property/prune_differential_test.cc. Every change here re-runs
/// both (CONTRIBUTING.md ground rule).
double UpperBoundFraction(const Formula& f, const VideoTree& video,
                          const VideoStats& stats, int level,
                          const BoundOptions& options = {});

}  // namespace htl

#endif  // HTL_HTL_BOUND_H_
