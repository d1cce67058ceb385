#ifndef HTL_ENGINE_RETRIEVAL_H_
#define HTL_ENGINE_RETRIEVAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/direct_engine.h"
#include "engine/exec_context.h"
#include "engine/query_options.h"
#include "htl/ast.h"
#include "model/video.h"
#include "model/video_stats.h"
#include "obs/profile.h"
#include "sim/topk.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace htl {

class QueryCaches;

/// One retrieved video segment across the whole database.
struct SegmentHit {
  MetadataStore::VideoId video = 0;
  SegmentId segment = kInvalidSegmentId;
  Sim sim;
};

/// One retrieved video (query evaluated at the root).
struct VideoHit {
  MetadataStore::VideoId video = 0;
  Sim sim;
};

/// What happened to each video during a store-wide retrieval — the truthful
/// companion of a partial result. A video that faults, times out its
/// per-video budget, or blows a resource budget is *skipped* (recorded
/// here), not allowed to abort the whole call.
struct RetrievalReport {
  /// One skipped video and the first error it produced.
  struct VideoFailure {
    MetadataStore::VideoId video = 0;
    Status status;
  };

  /// One shard whose scatter dispatch failed (QueryOptions::num_shards > 1):
  /// its contiguous video range was not evaluated at all. The gathered
  /// result truthfully covers only the healthy shards; complete() is false.
  struct ShardFailure {
    int shard = 0;                          // 0-based shard index.
    MetadataStore::VideoId first_video = 0;  // Inclusive range the shard owned.
    MetadataStore::VideoId last_video = 0;
    Status status;
  };

  int64_t videos_evaluated = 0;  // Contributed results (incl. degraded).
  int64_t videos_failed = 0;     // Skipped with an error (see failures).
  int64_t videos_degraded = 0;   // Fell back from DirectEngine to ReferenceEngine.
  int64_t videos_pruned = 0;     // Skipped by the top-k bound, unevaluated.
  std::vector<VideoFailure> failures;  // First error per failed video, in id order.

  /// Every video skipped by bound-based pruning (QueryOptions::prune), in
  /// id order per shard/chunk. Pruning is proven not to perturb the ranked
  /// output, so pruned ∩ top-k is always empty — the differential battery
  /// asserts it from this list. Sized by the corpus, not the result; only
  /// populated when pruning is on.
  std::vector<MetadataStore::VideoId> pruned_videos;

  /// Shards lost to dispatch failures, in shard order (empty when unsharded
  /// or healthy).
  std::vector<ShardFailure> shard_failures;

  /// Stage/operator/per-video profile with the fault points that fired —
  /// filled by the Retriever's *Profiled entry points, empty otherwise.
  obs::QueryProfile profile;

  /// True when every video contributed or was provably irrelevant (pruned):
  /// the result is exact, not partial.
  bool complete() const { return videos_failed == 0 && shard_failures.empty(); }

  /// Human-readable one-line summary for logs (names tripped fault points).
  std::string ToString() const;
};

/// Partial-tolerant retrieval result: ranked hits over the healthy videos
/// plus the report saying exactly which videos are missing and why.
struct SegmentRetrieval {
  std::vector<SegmentHit> hits;
  RetrievalReport report;
};

/// As SegmentRetrieval for whole-video (browsing) retrieval.
struct VideoRetrieval {
  std::vector<VideoHit> hits;
  RetrievalReport report;
};

/// The end-to-end retrieval façade of figure 1: parse → bind → classify →
/// evaluate per video → rank globally → return the top k. Conjunctive and
/// extended conjunctive queries run on the optimized DirectEngine;
/// constructs it reports Unimplemented for transparently fall back to the
/// ReferenceEngine.
///
/// Execution resilience: every entry point accepts an optional ExecContext
/// carrying a deadline, a cooperative cancellation flag, and per-video
/// resource budgets. Deadline expiry and cancellation abort the whole call
/// with Status::DeadlineExceeded / Cancelled; any *other* per-video error
/// (an injected fault, a blown budget, corrupt meta-data) is isolated — the
/// video is skipped, recorded in the RetrievalReport, and ranked results
/// over the healthy videos are still returned. The plain Top* methods keep
/// the strict historical contract (first per-video error fails the call);
/// the *WithReport variants implement graceful degradation.
///
/// Parallel execution: QueryOptions::parallelism splits the per-video loop
/// into contiguous chunks evaluated on a ThreadPool, each worker under a
/// child ExecContext sharing the caller's deadline and budgets. The ranked
/// output, the report, and every per-video decision are identical to the
/// serial run (`parallelism = 1`) — see DESIGN.md "Parallel execution" for
/// the determinism contract and the cancellation fan-out.
///
/// Scale-out (QueryOptions::prune / num_shards): pruning derives a cheap
/// per-video upper bound on the attainable similarity and skips videos that
/// provably cannot enter the current top k; sharding splits the corpus into
/// contiguous ranges scatter-gathered under child ExecContexts, sharing the
/// pruning floor through a monotonic atomic. Both are proven bit-identical
/// to the plain path by tests/property/prune_differential_test.cc — see
/// DESIGN.md "Scale-out retrieval".
///
/// The retriever keeps one DirectEngine per video, so atomic picture
/// queries and value tables are cached *across* queries. Each per-video
/// engine records the store epoch it was built at and is rebuilt on first
/// use after a mutation (MetadataStore::epoch()), so mutating the store
/// *between* queries is safe; mutations must still be serialized against
/// in-flight queries by the caller. Concurrent queries against one
/// Retriever are safe: the engine cache is mutex-guarded per video
/// (distinct videos never contend, so one query's parallel chunks run
/// lock-free).
///
/// Caching (QueryOptions::cache_mode, default off): with caching enabled
/// the retriever owns a whole-query result cache (keyed by the canonical
/// query fingerprint, the options fingerprint, k, and the level spec) and
/// a similarity-list cache lent to the per-video engines for closed
/// sub-formulas. Hits are bit-identical to cold recomputation at the same
/// store epoch; entries from older epochs are lazily evicted; concurrent
/// identical queries single-flight (one computes, the rest wait). See
/// DESIGN.md "Result and sub-formula caching".
class Retriever {
 public:
  /// `store` must outlive the retriever.
  explicit Retriever(const MetadataStore* store, QueryOptions options = {});
  ~Retriever();

  /// Parses and validates a query, returning the bound formula.
  Result<FormulaPtr> Prepare(std::string_view query_text) const;

  /// Top-k segments at `level` over all videos, ranked by fractional
  /// similarity (ties: lower video id, then lower segment id). Strict: any
  /// incomplete run fails the call, with the first per-video error or, when
  /// only shards were lost, the first lost shard's error.
  Result<std::vector<SegmentHit>> TopSegments(const Formula& query, int level,
                                              int64_t k, ExecContext* ctx = nullptr);
  Result<std::vector<SegmentHit>> TopSegments(std::string_view query_text, int level,
                                              int64_t k, ExecContext* ctx = nullptr);

  /// Degradation-tolerant TopSegments: faulting videos are skipped and
  /// recorded; the ranked partial result covers every healthy video. Only
  /// deadline expiry / cancellation, a `level` below 1 (InvalidArgument),
  /// and Prepare errors for the text overload fail the call itself.
  Result<SegmentRetrieval> TopSegmentsWithReport(const Formula& query, int level,
                                                 int64_t k, ExecContext* ctx = nullptr);
  Result<SegmentRetrieval> TopSegmentsWithReport(std::string_view query_text, int level,
                                                 int64_t k, ExecContext* ctx = nullptr);

  /// EXPLAIN/profile surface: as TopSegmentsWithReport, but runs the query
  /// under an obs::QueryTrace and attaches the finished QueryProfile —
  /// stage spans (classify/execute; the text overload adds parse, bind and
  /// rewrite), one span per video with rows/tables charged and the failure
  /// or degradation note, per-operator kernel spans underneath, and every
  /// fault point that fired — to the returned report
  /// (RetrievalReport::profile, rendered by QueryProfile::ToText()). The
  /// caller's ExecContext is used when given (its budgets and deadline
  /// apply; its previous trace is restored on return); null gets a local
  /// unlimited context.
  Result<SegmentRetrieval> TopSegmentsProfiled(const Formula& query, int level,
                                               int64_t k, ExecContext* ctx = nullptr);
  Result<SegmentRetrieval> TopSegmentsProfiled(std::string_view query_text, int level,
                                               int64_t k, ExecContext* ctx = nullptr);

  /// As TopSegments but addressing the level by its registered name (e.g.
  /// "shot"); each video resolves the name independently, so heterogeneous
  /// hierarchies mix correctly. Videos lacking the name are skipped (not
  /// counted as failures).
  Result<std::vector<SegmentHit>> TopSegmentsAtNamedLevel(const Formula& query,
                                                          const std::string& level_name,
                                                          int64_t k,
                                                          ExecContext* ctx = nullptr);
  Result<std::vector<SegmentHit>> TopSegmentsAtNamedLevel(std::string_view query_text,
                                                          const std::string& level_name,
                                                          int64_t k,
                                                          ExecContext* ctx = nullptr);
  Result<SegmentRetrieval> TopSegmentsAtNamedLevelWithReport(
      const Formula& query, const std::string& level_name, int64_t k,
      ExecContext* ctx = nullptr);

  /// Top-k videos with the query asserted at the root (browsing queries and
  /// whole-video matches). Strict, like TopSegments.
  Result<std::vector<VideoHit>> TopVideos(const Formula& query, int64_t k,
                                          ExecContext* ctx = nullptr);
  Result<std::vector<VideoHit>> TopVideos(std::string_view query_text, int64_t k,
                                          ExecContext* ctx = nullptr);

  /// Degradation-tolerant TopVideos.
  Result<VideoRetrieval> TopVideosWithReport(const Formula& query, int64_t k,
                                             ExecContext* ctx = nullptr);

  /// EXPLAIN/profile surface for whole-video retrieval; see
  /// TopSegmentsProfiled.
  Result<VideoRetrieval> TopVideosProfiled(const Formula& query, int64_t k,
                                           ExecContext* ctx = nullptr);

  /// The similarity list of `query` for one video's `level` — the
  /// single-video operation the paper's experiments report (Tables 3-6).
  /// Sets `degraded` (when non-null) to true if the direct engine declined
  /// and the reference engine produced the list.
  Result<SimilarityList> EvaluateList(MetadataStore::VideoId video, int level,
                                      const Formula& query, ExecContext* ctx = nullptr,
                                      bool* degraded = nullptr);

  /// The retriever's cache bundle — null when cache_mode == kOff. Exposed
  /// for stats assertions in tests and benches.
  QueryCaches* caches() { return caches_.get(); }

 private:
  /// One cached per-video engine slot. `mu` serializes queries touching
  /// the same video (the engine's exec-context slot is per-evaluation
  /// state); distinct videos never share an entry, so one parallel query's
  /// chunks take no contended lock. The engine itself is built lazily and
  /// rebuilt when the store epoch moves (its VideoTree pointer and caches
  /// are only valid for the epoch it was built at).
  struct VideoEngine {
    Mutex mu;
    std::unique_ptr<DirectEngine> engine HTL_GUARDED_BY(mu);
    uint64_t built_epoch HTL_GUARDED_BY(mu) = 0;
  };

  /// The cached per-video engine slot (created on first use).
  /// `engines_mu_` guards the map; the returned entry's own mutex guards
  /// evaluation. Map nodes are stable, so the reference survives later
  /// insertions.
  VideoEngine& EngineFor(MetadataStore::VideoId video);

  /// The slot's engine, (re)built for `epoch` if absent or stale. Requires
  /// the slot's `mu` to be held; attaches the list cache when enabled.
  DirectEngine& EngineLocked(VideoEngine& slot, MetadataStore::VideoId video,
                             uint64_t epoch) HTL_REQUIRES(slot.mu);

  /// One cached per-video statistics slot (bound-based pruning). Stats are
  /// immutable once built; the shared_ptr is copied out under the slot lock
  /// and used lock-free. Rebuilt lazily when the store epoch moves, like
  /// VideoEngine.
  struct VideoStatsSlot {
    Mutex mu;
    std::shared_ptr<const VideoStats> stats HTL_GUARDED_BY(mu);
    uint64_t built_epoch HTL_GUARDED_BY(mu) = 0;
  };

  /// The per-video stats, (re)built at `epoch` if absent or stale.
  std::shared_ptr<const VideoStats> StatsFor(MetadataStore::VideoId video,
                                             const VideoTree& tree, uint64_t epoch);

  /// Upper bound on the fractional similarity `query` can reach anywhere in
  /// `video` at `level` (htl/bound.h over cached VideoStats). Carries the
  /// "engine.bound_compute" fault point: an injected error returns non-ok
  /// and the caller falls back to full evaluation — pruning degrades, never
  /// the result.
  Result<double> BoundForVideo(const Formula& query, MetadataStore::VideoId video,
                               const VideoTree& tree, int level, uint64_t epoch);

  /// Worker count this query should use: options_.parallelism, with 0
  /// meaning ThreadPool::DefaultParallelism(), capped at the video count.
  int EffectiveWorkers() const;

  /// The shared per-video evaluation loop behind the segment entry points.
  /// `resolve_level` maps a video to the level to query (negative: skip the
  /// video silently, the named-level contract). `level_tag` is a callable
  /// producing the level-spec part of the result cache key ("lvl<i>" /
  /// "name:<s>"); it is a thunk, not a string, so the cache_mode=off path
  /// never pays the key formatting.
  template <typename LevelTag, typename ResolveLevel>
  Result<SegmentRetrieval> RunSegmentQuery(const Formula& query, int64_t k,
                                           ExecContext* ctx,
                                           const LevelTag& level_tag,
                                           const ResolveLevel& resolve_level);

  /// The uncached body of RunSegmentQuery (the cold path the result cache
  /// falls back to and differential tests compare against).
  template <typename ResolveLevel>
  Result<SegmentRetrieval> RunSegmentQueryCold(const Formula& query, int64_t k,
                                               ExecContext* ctx,
                                               const ResolveLevel& resolve_level);

  /// The uncached body of TopVideosWithReport.
  Result<VideoRetrieval> RunVideoQueryCold(const Formula& query, int64_t k,
                                           ExecContext* ctx);

  const MetadataStore* store_;
  QueryOptions options_;
  Mutex engines_mu_;  // Guards engines_ (map shape only; slots guard themselves).
  std::map<MetadataStore::VideoId, std::unique_ptr<VideoEngine>> engines_
      HTL_GUARDED_BY(engines_mu_);
  Mutex stats_mu_;  // Guards stats_ (map shape only; slots guard themselves).
  std::map<MetadataStore::VideoId, std::unique_ptr<VideoStatsSlot>> stats_
      HTL_GUARDED_BY(stats_mu_);
  std::unique_ptr<QueryCaches> caches_;  // Null when cache_mode == kOff.
  std::string options_fp_;               // Cached OptionsFingerprint(options_).
};

}  // namespace htl

#endif  // HTL_ENGINE_RETRIEVAL_H_
