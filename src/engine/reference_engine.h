#ifndef HTL_ENGINE_REFERENCE_ENGINE_H_
#define HTL_ENGINE_REFERENCE_ENGINE_H_

#include "engine/exec_context.h"
#include "engine/query_options.h"
#include "htl/ast.h"
#include "model/video.h"
#include "picture/constraint_eval.h"
#include "sim/sim_list.h"
#include "util/result.h"

namespace htl {

/// Direct-from-definition evaluator of the similarity semantics of
/// section 2.5. It enumerates evaluations explicitly and recurses over the
/// formula and the sequence, with no similarity-list machinery — worst-case
/// exponential in the number of variables and quadratic in sequence length,
/// but straightforward enough to serve as the oracle that the optimized
/// engine is property-tested against. It also covers the constructs the
/// optimized classes exclude (negation, disjunction, arbitrary nesting).
///
/// Semantics implemented (identical to the optimized engine by design):
///   * constraint: (w, w) when satisfied, else (0, w);
///   * and: pairwise sum; or: max; not: (m - a, m) [extension];
///   * next: value at the successor, (0, m) at the sequence end;
///   * until: max over u'' >= u of act(h, u'') such that frac(g) clears
///     options.until_threshold on every segment in [u, u'');
///   * exists: max over bindings of the variables to objects occurring at
///     the current level, plus one "absent" object id (so that negated
///     presence is handled exactly);
///   * freeze: extends the environment with the attribute value at the
///     current segment (null when undefined);
///   * attribute-variable comparisons are *hard*: if any such constraint in
///     an atomic conjunction fails, that constraint scores 0 like any
///     other, but the value-range convention of the optimized engine is
///     honored by scoring the whole conjunction 0 — see
///     ConjunctionHardRangeNote in the implementation;
///   * level operators: value of the body at the first descendant of the
///     current segment at the target level, (0, m) when there is none.
class ReferenceEngine {
 public:
  /// `video` must outlive the engine.
  explicit ReferenceEngine(const VideoTree* video, QueryOptions options = {});

  /// Similarity of `f` at position `pos` of the proper sequence `bounds`
  /// (ids at `level`), under `env`.
  Result<Sim> Evaluate(int level, const Interval& bounds, SegmentId pos,
                       const Formula& f, const EvalEnv& env);

  /// Similarity list of `f` over the whole sequence of `level` (the proper
  /// sequence of the root's descendants at that level).
  Result<SimilarityList> EvaluateList(int level, const Formula& f);

  /// Attaches a deadline/cancellation/budget context, polled on every
  /// recursive Actual() call — essential here, since the evaluator is
  /// worst-case exponential. Null (the default) disables all limits.
  void set_exec_context(ExecContext* ctx) { exec_ = ctx; }

 private:
  Result<double> Actual(int level, const Interval& bounds, SegmentId pos,
                        const Formula& f, const EvalEnv& env);

  const VideoTree* video_;
  QueryOptions options_;
  ExecContext* exec_ = nullptr;  // Not owned; null means unlimited.
};

}  // namespace htl

#endif  // HTL_ENGINE_REFERENCE_ENGINE_H_
