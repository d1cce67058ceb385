#ifndef HTL_ENGINE_DIRECT_ENGINE_H_
#define HTL_ENGINE_DIRECT_ENGINE_H_

#include <map>
#include <string>

#include "engine/exec_context.h"
#include "engine/query_options.h"
#include "htl/ast.h"
#include "htl/classifier.h"
#include "model/video.h"
#include "model/video_stats.h"
#include "obs/trace.h"
#include "picture/picture_system.h"
#include "sim/sim_table.h"
#include "util/result.h"

namespace htl {

/// The optimized retrieval engine of section 3: evaluates extended
/// conjunctive HTL formulas bottom-up over similarity lists and similarity
/// tables.
///
/// Evaluation strategy per node:
///   * maximal atomic (non-temporal) subtrees become one picture-system
///     query each, answered from the video's one index (VideoStats); the
///     resulting table is cached per (subtree, level) and clipped to the
///     sequence bounds in effect;
///   * `and` / `until` are table joins whose row lists merge with the
///     linear-time algorithms of section 3.1 (AndMerge / UntilMerge);
///   * `next` shifts lists; `eventually` is the suffix-max sweep;
///   * prenex `exists` collapses the table by max-merging rows (the
///     modified m-way merge of section 3.2);
///   * freeze quantifiers join with attribute value tables (section 3.3);
///   * level modal operators evaluate their body over each node's
///     descendant subsequence and read the value at its first element
///     (the extension to multi-level videos sketched in section 3);
///   * `or` is supported as a max-merge extension, and `not` over *closed*
///     subformulas as a list complement; negation over free variables
///     reports Unimplemented — use ReferenceEngine for those.
///
/// One executor implements this strategy: a tree walk over the formula
/// (EvalTable / EvalNode / EvalLevelOp). Its oracles are ReferenceEngine
/// (tests/property/engines_agree_test.cc) and the exact paper tables in
/// EXPERIMENTS.md (DESIGN.md "One executor").
class DirectEngine {
 public:
  /// `video`, and `index` when given, must outlive the engine. `index` is
  /// the video's index, which the picture queries read; null makes the
  /// engine build and own one.
  explicit DirectEngine(const VideoTree* video, QueryOptions options = {},
                        const VideoStats* index = nullptr);

  /// Similarity list of the closed formula `f` over the segments of
  /// `level` (the proper sequence of the root's descendants there).
  /// This is the operation the paper's experiments time.
  Result<SimilarityList> EvaluateList(int level, const Formula& f);

  /// Attaches a deadline/cancellation/budget context polled at every
  /// evaluation node and charged for merged rows and materialized tables.
  /// Null (the default) disables all limits. The context must outlive the
  /// evaluation calls it governs.
  void set_exec_context(ExecContext* ctx) { exec_ = ctx; }

  /// Drops the per-formula caches. A video's meta-data never changes once
  /// it is in the store, so only cold-run timing needs this.
  void ClearCache();

 private:
  Result<SimilarityTable> EvalTable(int level, const Interval& bounds, const Formula& f);
  /// The operator switch behind EvalTable (which wraps it with the depth
  /// poll and the atomic-subtree cache).
  Result<SimilarityTable> EvalNode(int level, const Interval& bounds, const Formula& f);
  Result<SimilarityTable> EvalLevelOp(int level, const Interval& bounds,
                                      const Formula& f);
  Result<int> ResolveLevel(int level, const LevelSpec& spec) const;

  /// The trace riding on the attached ExecContext (null when unprofiled).
  obs::QueryTrace* trace() const {
    return exec_ != nullptr ? exec_->trace() : nullptr;
  }

  const VideoTree* video_;
  QueryOptions options_;
  PictureSystem pictures_;
  ExecContext* exec_ = nullptr;  // Not owned; null means unlimited.
  // Full-level atomic tables keyed by (formula text, level). Text keys are
  // stable across formula lifetimes (pointer keys would alias when a freed
  // formula's address is reused by a later parse).
  std::map<std::pair<std::string, int>, SimilarityTable> atomic_cache_;
  // Value tables keyed by (term string, level).
  std::map<std::pair<std::string, int>, ValueTable> value_cache_;
};

/// Evaluates a list-only (type (1), plus the `or` extension) formula over
/// externally supplied similarity lists for its atomic predicates — the
/// §4.2 experimental setup, where "both systems take the similarity tables
/// associated with the atomic subformulas as input". Atomic leaves must be
/// nullary-shaped predicates: a kPredicate constraint whose name keys into
/// `inputs` (its arguments are ignored). kTrue is not allowed (it needs the
/// sequence length, which lists do not carry).
///
/// When `trace` is non-null, every merge operator opens a span on it with
/// the intervals it produced — the §4.2 benches print these as per-operator
/// profiles. Null (the default) costs one branch per node.
Result<SimilarityList> EvaluateWithLists(
    const Formula& f, const std::map<std::string, SimilarityList>& inputs,
    const QueryOptions& options = {}, obs::QueryTrace* trace = nullptr);

}  // namespace htl

#endif  // HTL_ENGINE_DIRECT_ENGINE_H_
