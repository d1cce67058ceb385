#ifndef HTL_ENGINE_DIRECT_ENGINE_H_
#define HTL_ENGINE_DIRECT_ENGINE_H_

#include <map>
#include <string>

#include "engine/exec_context.h"
#include "engine/query_options.h"
#include "htl/ast.h"
#include "htl/classifier.h"
#include "model/video.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "picture/picture_system.h"
#include "sim/sim_table.h"
#include "util/result.h"

namespace htl {
namespace cache {
class SimListCache;
}  // namespace cache

/// Point-in-time snapshot of one DirectEngine's runtime counters —
/// observability for the ablation benches and for verifying cache behaviour.
/// Returned by value from DirectEngine::stats(); the live counters are
/// relaxed atomics (obs::Counter), so snapshotting and ResetStats() are
/// race-free against a query running on another thread.
struct EngineStats {
  int64_t atomic_queries = 0;      // Picture-system queries executed.
  int64_t atomic_cache_hits = 0;   // Atomic tables served from cache.
  int64_t table_joins = 0;         // and / or / until joins.
  int64_t exists_collapses = 0;
  int64_t freeze_joins = 0;
  int64_t level_evaluations = 0;   // Per-parent subsequence evaluations.
};

/// The optimized retrieval engine of section 3: evaluates extended
/// conjunctive HTL formulas bottom-up over similarity lists and similarity
/// tables.
///
/// Evaluation strategy per node:
///   * maximal atomic (non-temporal) subtrees become one picture-system
///     query each; the resulting table is cached per (subtree, level) and
///     clipped to the sequence bounds in effect;
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
  /// `video` must outlive the engine.
  explicit DirectEngine(const VideoTree* video, QueryOptions options = {});

  /// Similarity list of the closed formula `f` over the segments of
  /// `level` (the proper sequence of the root's descendants there).
  /// This is the operation the paper's experiments time.
  Result<SimilarityList> EvaluateList(int level, const Formula& f);

  /// Similarity of `f` at the root of the video, in the one-element root
  /// sequence — "satisfied by a video" (section 2.3).
  Result<Sim> EvaluateVideo(const Formula& f);

  PictureSystem& pictures() { return pictures_; }

  /// Attaches a deadline/cancellation/budget context polled at every
  /// evaluation node and charged for merged rows and materialized tables.
  /// Null (the default) disables all limits. The context must outlive the
  /// evaluation calls it governs.
  void set_exec_context(ExecContext* ctx) { exec_ = ctx; }

  /// Drops the per-formula caches (needed when the video's meta-data
  /// changes or when timing cold runs).
  void ClearCache();

  /// Lends the engine a cross-query similarity-list cache (borrowed, may
  /// be null = disabled; must outlive the engine's evaluations). When set
  /// and QueryOptions::cache_mode allows it, every *closed* non-atomic
  /// sub-formula evaluated over a full level is served from / published
  /// to the cache under `(video_id, level, canonical sub-formula key)`,
  /// stamped with the epoch from set_cache_epoch().
  void set_list_cache(cache::SimListCache* cache, int64_t video_id) {
    list_cache_ = cache;
    cache_video_id_ = video_id;
  }

  /// The store epoch stamped on (and required of) cache entries; the
  /// retriever samples it once per query before evaluation starts.
  void set_cache_epoch(uint64_t epoch) { cache_epoch_ = epoch; }

  /// Snapshot of the live counters. By value: the underlying counters are
  /// atomics shared with a possibly-running query, so callers get a coherent
  /// detached copy instead of a reference into mutating state.
  EngineStats stats() const {
    EngineStats s;
    s.atomic_queries = counters_.atomic_queries.Value();
    s.atomic_cache_hits = counters_.atomic_cache_hits.Value();
    s.table_joins = counters_.table_joins.Value();
    s.exists_collapses = counters_.exists_collapses.Value();
    s.freeze_joins = counters_.freeze_joins.Value();
    s.level_evaluations = counters_.level_evaluations.Value();
    return s;
  }
  void ResetStats() {
    counters_.atomic_queries.Reset();
    counters_.atomic_cache_hits.Reset();
    counters_.table_joins.Reset();
    counters_.exists_collapses.Reset();
    counters_.freeze_joins.Reset();
    counters_.level_evaluations.Reset();
  }

 private:
  /// Live per-engine counters behind EngineStats (PR 3 folded the plain-int
  /// EngineStats into the obs layer; this is the thin compat backing).
  struct EngineCounters {
    obs::Counter atomic_queries;
    obs::Counter atomic_cache_hits;
    obs::Counter table_joins;
    obs::Counter exists_collapses;
    obs::Counter freeze_joins;
    obs::Counter level_evaluations;
  };

  Result<SimilarityTable> EvalTable(int level, const Interval& bounds, const Formula& f);
  /// The operator switch behind EvalTable (which wraps it with the depth
  /// poll, the atomic-subtree cache, and the similarity-list cache).
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
  cache::SimListCache* list_cache_ = nullptr;  // Not owned; null disables.
  int64_t cache_video_id_ = 0;
  uint64_t cache_epoch_ = 0;
  EngineCounters counters_;
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
