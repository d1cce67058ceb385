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
#include "obs/profile.h"
#include "sim/topk.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace htl {

class ResultCache;

/// One retrieved video segment across the whole database.
struct SegmentHit {
  MetadataStore::VideoId video = 0;
  SegmentId segment = kInvalidSegmentId;
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

  int64_t videos_evaluated = 0;  // Contributed results (incl. degraded).
  int64_t videos_failed = 0;     // Skipped with an error (see failures).
  int64_t videos_degraded = 0;   // Fell back from DirectEngine to ReferenceEngine.
  int64_t videos_pruned = 0;     // Skipped by the top-k bound, unevaluated.
  std::vector<VideoFailure> failures;  // First error per failed video, in id order.

  /// Every video skipped by bound-based pruning (QueryOptions::prune), in
  /// id order per chunk. Pruning is proven not to perturb the ranked
  /// output, so pruned ∩ top-k is always empty — the differential battery
  /// asserts it from this list. Sized by the corpus, not the result; only
  /// populated when pruning is on.
  std::vector<MetadataStore::VideoId> pruned_videos;

  /// Stage/operator/per-video profile with the fault points that fired —
  /// filled by the Retriever's *Profiled entry points, empty otherwise.
  obs::QueryProfile profile;

  /// True when every video contributed or was provably irrelevant (pruned):
  /// the result is exact, not partial.
  bool complete() const { return videos_failed == 0; }

  /// The all-or-nothing reading of a run: OK when complete(), otherwise the
  /// first failed video's status (in id order). Deadline expiry and
  /// cancellation never get here; they fail the call itself.
  Status FirstFailure() const;

  /// Human-readable one-line summary for logs (names tripped fault points).
  std::string ToString() const;
};

/// Partial-tolerant retrieval result: ranked hits over the healthy videos
/// plus the report saying exactly which videos are missing and why.
struct SegmentRetrieval {
  std::vector<SegmentHit> hits;
  RetrievalReport report;
};

/// The end-to-end retrieval façade of figure 1: parse → bind → classify →
/// evaluate per video → rank globally → return the top k. Prepare parses a
/// text once; TopSegmentsWithReport(formula, level, k) is the one retrieval
/// operation, TopSegmentsProfiled the same call under a trace, and
/// EvaluateList its single-video step. Conjunctive and extended conjunctive
/// queries run on the optimized DirectEngine; constructs it reports
/// Unimplemented for transparently fall back to the ReferenceEngine.
///
/// Execution resilience: every entry point accepts an optional ExecContext
/// carrying a deadline, a cooperative cancellation flag, and per-video
/// resource budgets. Deadline expiry and cancellation abort the whole call
/// with Status::DeadlineExceeded / Cancelled; any *other* per-video error
/// (an injected fault, a blown budget, corrupt meta-data) is isolated — the
/// video is skipped, recorded in the RetrievalReport, and ranked results
/// over the healthy videos are still returned. A caller that wants all or
/// nothing checks RetrievalReport::FirstFailure().
///
/// Parallel execution: QueryOptions::parallelism splits the per-video loop
/// into contiguous chunks evaluated on a ThreadPool, each worker under a
/// child ExecContext sharing the caller's deadline and budgets. The ranked
/// output, the report, and every per-video decision are identical to the
/// serial run (`parallelism = 1`) — see DESIGN.md "Parallel execution" for
/// the determinism contract and the cancellation fan-out.
///
/// Whole-video (browsing) queries are level-1 queries: a video satisfies a
/// formula when the formula holds at its root (section 2.3), and level 1
/// holds exactly the root, so TopSegmentsWithReport(query, 1, k) ranks whole
/// videos (every hit's segment is the root).
///
/// Each chunk of the per-video loop keeps at most k hits, in one heap
/// ordered like the final ranking, so a query holds at most chunks x k hits
/// however many videos it evaluates; the chunks' heaps merge into the top k.
///
/// Pruning (QueryOptions::prune) derives a cheap per-video upper bound on
/// the attainable similarity and skips videos that provably cannot enter
/// the current top k; once a chunk's heap is full, its worst hit's fraction
/// is a floor the chunks share through a monotonic atomic. It is proven
/// bit-identical to the plain path by
/// tests/property/prune_differential_test.cc — see DESIGN.md "Scale-out
/// retrieval".
///
/// The retriever keeps one DirectEngine per video, built on the video's
/// first evaluation, so atomic picture queries and value tables are cached
/// *across* queries. The store is append-only (MetadataStore), so an engine
/// never goes stale; appends must still be serialized against in-flight
/// queries by the caller. Concurrent queries against one Retriever are
/// safe: the engine cache is mutex-guarded per video (distinct videos never
/// contend, so one query's parallel chunks run lock-free).
///
/// Caching (QueryOptions::cache_mode, default off): with kReadWrite the
/// retriever owns one ResultCache of whole-query answers, keyed by the
/// level, k and the canonical query fingerprint (the options need no key
/// part: the cache belongs to one retriever, whose options never change).
/// Each entry is stamped with the store's video count, so entries computed
/// before an append are lazily evicted; hits are bit-identical to cold
/// recomputation over the same store, and concurrent identical queries
/// single-flight. See DESIGN.md "Result caching".
class Retriever {
 public:
  /// `store` must outlive the retriever.
  explicit Retriever(const MetadataStore* store, QueryOptions options = {});
  ~Retriever();

  /// Parses and validates a query, returning the bound formula.
  Result<FormulaPtr> Prepare(std::string_view query_text) const;

  /// Top-k segments at `level` over all videos, ranked by fractional
  /// similarity (ties: lower video id, then lower segment id). Faulting
  /// videos are skipped and recorded; the ranked partial result covers every
  /// healthy video. Only deadline expiry / cancellation and a `level` or `k`
  /// below 1 (InvalidArgument) fail the call itself.
  Result<SegmentRetrieval> TopSegmentsWithReport(const Formula& query, int level,
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
  /// unlimited context. A call that fails as a whole has no report: its
  /// profile is adopted into the trace the caller's context carried, if any.
  Result<SegmentRetrieval> TopSegmentsProfiled(const Formula& query, int level,
                                               int64_t k, ExecContext* ctx = nullptr);
  Result<SegmentRetrieval> TopSegmentsProfiled(std::string_view query_text, int level,
                                               int64_t k, ExecContext* ctx = nullptr);

  /// The similarity list of `query` for one video's `level` — the
  /// single-video operation the paper's experiments report (Tables 3-6).
  /// Sets `degraded` (when non-null) to true if the direct engine declined
  /// and the reference engine produced the list.
  Result<SimilarityList> EvaluateList(MetadataStore::VideoId video, int level,
                                      const Formula& query, ExecContext* ctx = nullptr,
                                      bool* degraded = nullptr);

  /// The retriever's result cache — null when cache_mode == kOff. Exposed
  /// for resident-state checks and Clear() in tests and benches.
  ResultCache* cache() { return cache_.get(); }

 private:
  /// One cached per-video engine slot. `mu` serializes queries touching
  /// the same video (the engine's exec-context slot is per-evaluation
  /// state); distinct videos never share an entry, so one parallel query's
  /// chunks take no contended lock. The engine is built on first use.
  struct VideoEngine {
    Mutex mu;
    std::unique_ptr<DirectEngine> engine HTL_GUARDED_BY(mu);
  };

  /// The cached per-video engine slot (created on first use).
  /// `engines_mu_` guards the map; the returned entry's own mutex guards
  /// evaluation. Map nodes are stable, so the reference survives later
  /// insertions.
  VideoEngine& EngineFor(MetadataStore::VideoId video);

  /// Upper bound on the fractional similarity `query` can reach anywhere in
  /// `video` at `level` (htl/bound.h over the store's VideoStats). Carries
  /// the "engine.bound_compute" fault point: an injected error returns
  /// non-ok and the caller falls back to full evaluation — pruning
  /// degrades, never the result.
  Result<double> BoundForVideo(const Formula& query, MetadataStore::VideoId video,
                               int level);

  /// Worker count this query should use: options_.parallelism, with 0
  /// meaning ThreadPool::DefaultParallelism(), capped at the video count.
  int EffectiveWorkers() const;

  /// The uncached per-video loop behind TopSegmentsWithReport (the cold path
  /// the result cache falls back to and differential tests compare against).
  Result<SegmentRetrieval> RunCold(const Formula& query, int level, int64_t k,
                                   ExecContext* ctx);

  const MetadataStore* store_;
  QueryOptions options_;
  Mutex engines_mu_;  // Guards engines_ (map shape only; slots guard themselves).
  std::map<MetadataStore::VideoId, std::unique_ptr<VideoEngine>> engines_
      HTL_GUARDED_BY(engines_mu_);
  std::unique_ptr<ResultCache> cache_;  // Null when cache_mode == kOff.
};

}  // namespace htl

#endif  // HTL_ENGINE_RETRIEVAL_H_
