#include "engine/retrieval.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "cache/sim_list_cache.h"
#include "engine/direct_engine.h"
#include "engine/query_cache.h"
#include "engine/reference_engine.h"
#include "htl/binder.h"
#include "htl/bound.h"
#include "htl/classifier.h"
#include "htl/fingerprint.h"
#include "htl/parser.h"
#include "htl/rewriter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_point.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace htl {

std::string RetrievalReport::ToString() const {
  std::string out = StrCat("evaluated ", videos_evaluated, ", failed ", videos_failed,
                           ", degraded-to-reference ", videos_degraded, ", pruned ",
                           videos_pruned);
  for (const ShardFailure& sf : shard_failures) {
    out += StrCat("; shard ", sf.shard, " lost videos [", sf.first_video, ", ",
                  sf.last_video, "]: ", sf.status.ToString());
  }
  for (const VideoFailure& f : failures) {
    out += StrCat("; video ", f.video, ": ", f.status.ToString());
  }
  for (const obs::QueryProfile::FaultTrip& trip : profile.fault_trips) {
    out += StrCat("; fault trip ", trip.point);
  }
  return out;
}

Retriever::Retriever(const MetadataStore* store, QueryOptions options)
    : store_(store), options_(options) {
  HTL_CHECK(store != nullptr);
  if (options_.cache_mode != CacheMode::kOff) {
    caches_ = std::make_unique<QueryCaches>(options_);
    options_fp_ = OptionsFingerprint(options_);
  }
}

Retriever::~Retriever() = default;

Result<FormulaPtr> Retriever::Prepare(std::string_view query_text) const {
  HTL_ASSIGN_OR_RETURN(FormulaPtr f, ParseFormula(query_text));
  HTL_RETURN_IF_ERROR(Bind(f.get()));
  return Rewrite(std::move(f));
}

Retriever::VideoEngine& Retriever::EngineFor(MetadataStore::VideoId video) {
  MutexLock lock(&engines_mu_);
  auto it = engines_.find(video);
  if (it == engines_.end()) {
    it = engines_.emplace(video, std::make_unique<VideoEngine>()).first;
  }
  return *it->second;
}

DirectEngine& Retriever::EngineLocked(VideoEngine& slot, MetadataStore::VideoId video,
                                      uint64_t epoch) {
  if (slot.engine == nullptr || slot.built_epoch != epoch) {
    // Absent, or built against an older store generation: its VideoTree
    // pointer and per-formula caches may both be invalid. Rebuild.
    slot.engine = std::make_unique<DirectEngine>(&store_->Video(video), options_);
    slot.built_epoch = epoch;
    if (caches_ != nullptr) slot.engine->set_list_cache(&caches_->lists(), video);
  }
  slot.engine->set_cache_epoch(epoch);
  return *slot.engine;
}

int Retriever::EffectiveWorkers() const {
  int workers = options_.parallelism > 0 ? options_.parallelism
                                         : ThreadPool::DefaultParallelism();
  const int64_t num_videos = store_->num_videos();
  if (workers > num_videos) workers = static_cast<int>(num_videos);
  return workers < 1 ? 1 : workers;
}

std::shared_ptr<const VideoStats> Retriever::StatsFor(MetadataStore::VideoId video,
                                                      const VideoTree& tree,
                                                      uint64_t epoch) {
  VideoStatsSlot* slot;
  {
    MutexLock lock(&stats_mu_);
    auto it = stats_.find(video);
    if (it == stats_.end()) {
      it = stats_.emplace(video, std::make_unique<VideoStatsSlot>()).first;
    }
    slot = it->second.get();  // Map nodes are stable across later insertions.
  }
  MutexLock lock(&slot->mu);
  if (slot->stats == nullptr || slot->built_epoch != epoch) {
    slot->stats = std::make_shared<const VideoStats>(VideoStats::Build(tree));
    slot->built_epoch = epoch;
  }
  return slot->stats;
}

Result<double> Retriever::BoundForVideo(const Formula& query,
                                        MetadataStore::VideoId video,
                                        const VideoTree& tree, int level,
                                        uint64_t epoch) {
  // An injected failure (any code, even an abort-shaped one) degrades to
  // full evaluation at the caller: the bound is advisory, never load-bearing.
  HTL_FAULT_POINT("engine.bound_compute");
  HTL_OBS_COUNT("engine.prune.bound_checks", 1);
  // A level past this video's hierarchy evaluates to an empty list; return
  // the trivial bound so the video still evaluates and per-video counts
  // stay aligned with the unpruned run.
  if (level > tree.num_levels()) return 1.0;
  std::shared_ptr<const VideoStats> stats = StatsFor(video, tree, epoch);
  BoundOptions bound_options;
  bound_options.fuzzy_and = options_.and_semantics == AndSemantics::kFuzzyMin;
  const double ub = UpperBoundFraction(query, tree, *stats, level, bound_options);
  if (obs::MetricsRegistry::Enabled()) {
    static obs::Histogram* bound_hist =
        obs::MetricsRegistry::Instance().GetHistogram(
            "engine.prune.bound_permille", {0, 100, 250, 500, 750, 900, 1000});
    bound_hist->Observe(static_cast<int64_t>(ub * 1000.0));
  }
  return ub;
}

Result<SimilarityList> Retriever::EvaluateList(MetadataStore::VideoId video_id, int level,
                                               const Formula& query, ExecContext* ctx,
                                               bool* degraded) {
  if (degraded != nullptr) *degraded = false;
  const VideoTree& video = store_->Video(video_id);
  if (level > video.num_levels()) {
    return SimilarityList(MaxSimilarity(query));  // No such level: no hits.
  }
  // The direct engine covers the extended conjunctive class plus the
  // disjunction and closed-negation extensions; only the constructs it
  // reports Unimplemented for (negation over free variables, two-variable
  // comparisons) drop to the exponential reference evaluator.
  {
    VideoEngine& slot = EngineFor(video_id);
    MutexLock lock(&slot.mu);
    DirectEngine& engine = EngineLocked(slot, video_id, store_->epoch());
    engine.set_exec_context(ctx);
    Result<SimilarityList> direct = engine.EvaluateList(level, query);
    engine.set_exec_context(nullptr);
    if (direct.ok() || direct.status().code() != StatusCode::kUnimplemented) {
      return direct;
    }
  }
  if (degraded != nullptr) *degraded = true;
  ReferenceEngine reference(&video, options_);
  reference.set_exec_context(ctx);
  return reference.EvaluateList(level, query);
}

namespace {

// Global ranking: descending fraction, ties by video then segment id.
void RankAndTrim(std::vector<SegmentHit>& all, int64_t k) {
  std::stable_sort(all.begin(), all.end(), [](const SegmentHit& a, const SegmentHit& b) {
    if (a.sim.fraction() != b.sim.fraction()) return a.sim.fraction() > b.sim.fraction();
    if (a.video != b.video) return a.video < b.video;
    return a.segment < b.segment;
  });
  if (static_cast<int64_t>(all.size()) > k) all.resize(static_cast<size_t>(k));
}

// Strict wrapper semantics: an incomplete run surfaces its first per-video
// error, or its first lost shard's when no video failed; deadline/cancel
// already propagated as the call's own status.
Status FirstFailure(const RetrievalReport& report) {
  if (report.complete()) return Status::OK();
  if (!report.failures.empty()) return report.failures.front().status;
  return report.shard_failures.front().status;
}

// Shared plumbing behind the *Profiled entry points: attach a fresh trace
// to the effective context (a local unlimited one when the caller passed
// null), make it the thread's current trace so fault points report into it,
// run `body(ctx, trace)`, and move the finished profile into the result's
// report. The context's previous trace is restored on every path.
template <typename Body>
auto RunProfiled(ExecContext* ctx, const Body& body)
    -> decltype(body(ctx, static_cast<obs::QueryTrace*>(nullptr))) {
  ExecContext local;
  ExecContext* use = ctx != nullptr ? ctx : &local;
  obs::QueryTrace trace;
  obs::QueryTrace* saved = use->trace();
  use->set_trace(&trace);
  obs::ScopedTraceAttach attach(&trace);
  auto result = body(use, &trace);
  use->set_trace(saved);
  if (!result.ok()) return result.status();
  auto out = std::move(result).value();
  out.report.profile = trace.Finish();
  return out;
}

// Folds one chunk's partial result into `out`. Chunks cover contiguous
// ascending video ranges and merge in chunk order, so the concatenated hit
// and failure sequences match the serial loop exactly.
template <typename Part>
void MergeChunk(Part& out, Part&& part) {
  out.report.videos_evaluated += part.report.videos_evaluated;
  out.report.videos_failed += part.report.videos_failed;
  out.report.videos_degraded += part.report.videos_degraded;
  out.report.videos_pruned += part.report.videos_pruned;
  for (RetrievalReport::VideoFailure& f : part.report.failures) {
    out.report.failures.push_back(std::move(f));
  }
  for (MetadataStore::VideoId v : part.report.pruned_videos) {
    out.report.pruned_videos.push_back(v);
  }
  for (RetrievalReport::ShardFailure& sf : part.report.shard_failures) {
    out.report.shard_failures.push_back(std::move(sf));
  }
  for (auto& hit : part.hits) out.hits.push_back(std::move(hit));
}

// Part types for ForEachVideo with pruning: the retrieval result plus the
// chunk/shard-local scratch — a min-heap of the best k hit fractions seen
// by this part. Once the heap is full its root is the part's k-th best,
// which is a valid lower bound on the global k-th best (the k-th largest of
// a subset never exceeds the k-th largest of the whole), so it can be
// published to the shared floor.
struct SegmentPart : SegmentRetrieval {
  std::vector<double> best;
};
struct VideoPart : VideoRetrieval {
  std::vector<double> best;
};

// Push one retained hit fraction into the local top-k min-heap.
void PushBest(std::vector<double>& best, int64_t k, double fraction) {
  if (static_cast<int64_t>(best.size()) < k) {
    best.push_back(fraction);
    std::push_heap(best.begin(), best.end(), std::greater<>());
    return;
  }
  if (fraction <= best.front()) return;
  std::pop_heap(best.begin(), best.end(), std::greater<>());
  best.back() = fraction;
  std::push_heap(best.begin(), best.end(), std::greater<>());
}

// The monotonically-rising top-k floor one query's chunks and shards share
// (CAS-max). Relaxed ordering is sound: a stale read only weakens pruning —
// a video evaluates that could have been skipped — never strengthens it,
// because published values are true lower bounds on the final k-th-best
// fraction regardless of when they are observed.
class PruneFloor {
 public:
  double Get() const { return floor_.load(std::memory_order_relaxed); }
  void Publish(double fraction) {
    double cur = floor_.load(std::memory_order_relaxed);
    while (cur < fraction &&
           !floor_.compare_exchange_weak(cur, fraction, std::memory_order_relaxed)) {
    }
    HTL_DCHECK(Get() >= fraction) << "prune floor moved backwards";
  }

 private:
  std::atomic<double> floor_{0.0};
};

// The store-wide per-video driver shared by the segment and whole-video
// entry points. `eval_one(v, ctx, trace, part)` evaluates video `v` into
// `part` and returns only query-abort errors; per-video failures are
// recorded in the part's report.
//
// Unsharded (`shards <= 1`), `workers <= 1` (or a 0/1-video store) runs the
// historical serial loop on the calling thread — bit for bit, including a
// possibly-null `ctx`. Otherwise the video range splits into contiguous
// pieces — corpus shards when `shards > 1`, else `workers` parallel chunks —
// scattered through ParallelFor (the caller participates; a sharded serial
// run keeps the pool null, so ParallelFor degrades to an in-order loop on
// the caller). Each piece runs under a child ExecContext chained to a
// per-call group context: children copy the caller's deadline and budgets,
// and the first aborting worker records its status and cancels the group,
// draining the other pieces at their next poll without touching the
// caller's own context. A sharded piece whose scatter dispatch faults
// ("engine.shard_dispatch") degrades to a truthful ShardFailure — its range
// goes unevaluated, the other shards are unaffected. Piece parts merge in
// piece order, so the gathered output is identical to the serial loop's;
// per-piece traces (when profiling) are stitched under the caller's
// innermost open span, also in piece order.
template <typename Part, typename EvalOne>
Status ForEachVideo(int64_t num_videos, ExecContext* ctx, int workers, int shards,
                    ThreadPool* pool, const EvalOne& eval_one, Part& out) {
  obs::QueryTrace* tr = ctx != nullptr ? ctx->trace() : nullptr;
  const bool sharded = shards > 1 && num_videos > 0;
  if (!sharded && (workers <= 1 || num_videos <= 1)) {
    for (MetadataStore::VideoId v = 1; v <= num_videos; ++v) {
      HTL_CHECK_EXEC(ctx);  // Deadline/cancel abort the whole call.
      HTL_RETURN_IF_ERROR(eval_one(v, ctx, tr, out));
    }
    return Status::OK();
  }
  // Resolved here, not by the caller, so a serial query (the parallelism=1
  // contract, and every query on a 1-CPU host) never instantiates the
  // shared pool's worker threads.
  if (workers > 1) {
    if (pool == nullptr) pool = ThreadPool::Shared();
  } else {
    pool = nullptr;  // Sharded serial: in-order shard loop on the caller.
  }

  const int64_t pieces = sharded ? std::min<int64_t>(shards, num_videos)
                                 : std::min<int64_t>(workers, num_videos);
  // Even contiguous partition: piece c covers [PieceBegin(c), PieceBegin(c+1)).
  const auto piece_begin = [num_videos, pieces](int64_t c) {
    return 1 + c * num_videos / pieces;
  };

  // The group context fans cancellation out to every worker child without
  // touching the caller's context (whose cancel flag stays the caller's to
  // set); children observe the group through the parent chain.
  ExecContext group(ctx);
  std::vector<Part> parts(static_cast<size_t>(pieces));
  // QueryTrace is neither copyable nor movable, hence the indirection.
  std::vector<std::unique_ptr<obs::QueryTrace>> worker_traces;
  if (tr != nullptr) {
    for (int64_t c = 0; c < pieces; ++c) {
      worker_traces.push_back(std::make_unique<obs::QueryTrace>());
    }
  }

  Mutex abort_mu;
  Status first_abort;  // Root-cause abort; guarded by abort_mu.
  std::atomic<bool> aborted{false};

  const Status loop_status = ParallelFor(
      pool, pieces, [&](int64_t c) -> Status {
        ExecContext child(&group);
        obs::QueryTrace* wtr =
            tr != nullptr ? worker_traces[static_cast<size_t>(c)].get() : nullptr;
        child.set_trace(wtr);
        // Fault trips under this worker land in its own trace (or nowhere
        // when unprofiled) — never in another thread's.
        obs::ScopedTraceAttach attach(wtr);
        HTL_OBS_SPAN(wspan, wtr, sharded ? "shard" : "worker");
        wspan.SetUnit(c);
        Part& part = parts[static_cast<size_t>(c)];
        if (sharded && FaultRegistry::Armed()) {
          // By hand rather than HTL_FAULT_POINT: a failed scatter degrades
          // to a truthful partial report (this shard's whole range skipped,
          // named in shard_failures), never a query failure.
          Status dispatch = FaultRegistry::Instance().Hit("engine.shard_dispatch");
          if (!dispatch.ok()) {
            wspan.SetNote(StrCat("shard dispatch failed: ", dispatch.ToString()));
            part.report.shard_failures.push_back(RetrievalReport::ShardFailure{
                static_cast<int>(c), piece_begin(c), piece_begin(c + 1) - 1,
                std::move(dispatch)});
            return Status::OK();
          }
        }
        for (int64_t v = piece_begin(c); v < piece_begin(c + 1); ++v) {
          // Drain once any worker aborted: the merged result is discarded,
          // so finishing the piece would be wasted work.
          if (aborted.load(std::memory_order_relaxed)) return Status::OK();
          Status s = child.Check();
          if (s.ok()) s = eval_one(v, &child, wtr, part);
          if (!s.ok()) {
            {
              MutexLock lock(&abort_mu);
              // Keep the root cause: workers drained by the fan-out fail
              // with the induced Cancelled, which must not mask e.g. the
              // DeadlineExceeded that started the abort.
              if (first_abort.ok()) first_abort = s;
            }
            aborted.store(true, std::memory_order_relaxed);
            group.Cancel();
            return s;
          }
        }
        return Status::OK();
      });

  {
    MutexLock lock(&abort_mu);
    if (!first_abort.ok()) return first_abort;
  }
  HTL_RETURN_IF_ERROR(loop_status);

  if (tr != nullptr) {
    for (std::unique_ptr<obs::QueryTrace>& wt : worker_traces) {
      tr->Adopt(wt->Finish());
    }
  }
  for (Part& part : parts) MergeChunk(out, std::move(part));
  return Status::OK();
}

}  // namespace

template <typename LevelTag, typename ResolveLevel>
Result<SegmentRetrieval> Retriever::RunSegmentQuery(const Formula& query, int64_t k,
                                                    ExecContext* ctx,
                                                    const LevelTag& level_tag,
                                                    const ResolveLevel& resolve_level) {
  if (caches_ == nullptr) return RunSegmentQueryCold(query, k, ctx, resolve_level);
  // One epoch sample governs the whole query: lookups validate against it
  // and the fill is stamped with it, so a mutation slipping in mid-query
  // (a contract violation) can only leave entries a later lookup evicts.
  const uint64_t epoch = store_->epoch();
  const std::string key = StrCat("seg|", level_tag(), "|k", k, "|", options_fp_, "|",
                                 CanonicalFormulaKey(query));
  obs::QueryTrace* tr = ctx != nullptr ? ctx->trace() : nullptr;
  HTL_ASSIGN_OR_RETURN(
      QueryCaches::ResultPtr cached,
      caches_->GetOrRun(key, epoch, ctx, tr, [&]() -> Result<CachedQueryResult> {
        HTL_ASSIGN_OR_RETURN(SegmentRetrieval r,
                             RunSegmentQueryCold(query, k, ctx, resolve_level));
        CachedQueryResult c;
        c.segment_hits = std::move(r.hits);
        c.report = std::move(r.report);
        return c;
      }));
  SegmentRetrieval out;
  out.hits = cached->segment_hits;
  out.report = cached->report;
  return out;
}

template <typename ResolveLevel>
Result<SegmentRetrieval> Retriever::RunSegmentQueryCold(
    const Formula& query, int64_t k, ExecContext* ctx,
    const ResolveLevel& resolve_level) {
  const bool prune = options_.prune && k > 0;
  PruneFloor floor;  // Shared by every chunk/shard of this query.
  SegmentPart out;
  const auto eval_one = [&](MetadataStore::VideoId v, ExecContext* ectx,
                            obs::QueryTrace* etr, SegmentPart& part) -> Status {
    const int level = resolve_level(v);
    if (level < 0) return Status::OK();  // Named level absent: silently skipped.
    if (prune && floor.Get() > 0.0) {
      // Before any budget or span: a pruned video is skipped outright. A
      // bound failure (e.g. the injected engine.bound_compute fault) falls
      // through to full evaluation — pruning only ever gets weaker.
      Result<double> ub =
          BoundForVideo(query, v, store_->Video(v), level, store_->epoch());
      if (ub.ok() && ub.value() < floor.Get() - kBoundSlack) {
        ++part.report.videos_pruned;
        part.report.pruned_videos.push_back(v);
        HTL_OBS_COUNT("engine.prune.videos_pruned", 1);
        return Status::OK();
      }
    }
    if (ectx != nullptr) ectx->BeginUnit();  // Budgets bound each video alone.
    // One span per video; the unit carries the video id (span names stay
    // static so the unprofiled path never allocates).
    HTL_OBS_SPAN(vspan, etr, "video");
    vspan.SetUnit(v);
    bool degraded = false;
    Result<SimilarityList> list = EvaluateList(v, level, query, ectx, &degraded);
    if (vspan.active() && ectx != nullptr) {
      vspan.AddRows(ectx->rows_used());
      vspan.AddTables(ectx->tables_used());
    }
    if (!list.ok()) {
      // A query-wide abort is not a per-video fault: propagate it.
      if (list.status().IsQueryAbort()) return list.status();
      vspan.SetNote(StrCat("failed: ", list.status().ToString()));
      ++part.report.videos_failed;
      part.report.failures.push_back(RetrievalReport::VideoFailure{v, list.status()});
      return Status::OK();
    }
    if (degraded) vspan.SetNote("degraded");
    ++part.report.videos_evaluated;
    if (degraded) ++part.report.videos_degraded;
    // Keep at most k per video before the global merge.
    for (const RankedSegment& rs : TopKSegments(list.value(), k)) {
      part.hits.push_back(SegmentHit{v, rs.id, rs.sim});
      if (prune) PushBest(part.best, k, rs.sim.fraction());
    }
    if (prune && static_cast<int64_t>(part.best.size()) >= k) {
      floor.Publish(part.best.front());
    }
    return Status::OK();
  };
  HTL_RETURN_IF_ERROR(ForEachVideo(store_->num_videos(), ctx, EffectiveWorkers(),
                                   options_.num_shards, options_.thread_pool,
                                   eval_one, out));
  RankAndTrim(out.hits, k);
  SegmentRetrieval result;
  result.hits = std::move(out.hits);
  result.report = std::move(out.report);
  return result;
}

Result<SegmentRetrieval> Retriever::TopSegmentsWithReport(const Formula& query,
                                                          int level, int64_t k,
                                                          ExecContext* ctx) {
  // Checked once here: the per-video loop reads a negative level as "named
  // level absent" and would skip every video, and level 0 would fail each
  // video separately.
  if (level < 1) {
    return Status::InvalidArgument(
        StrCat("level ", level, " is not a level (levels start at 1)"));
  }
  return RunSegmentQuery(query, k, ctx,
                         [level] { return StrCat("lvl", level); },
                         [level](MetadataStore::VideoId) { return level; });
}

Result<SegmentRetrieval> Retriever::TopSegmentsWithReport(std::string_view query_text,
                                                          int level, int64_t k,
                                                          ExecContext* ctx) {
  HTL_ASSIGN_OR_RETURN(FormulaPtr f, Prepare(query_text));
  return TopSegmentsWithReport(*f, level, k, ctx);
}

Result<SegmentRetrieval> Retriever::TopSegmentsProfiled(const Formula& query, int level,
                                                        int64_t k, ExecContext* ctx) {
  return RunProfiled(ctx, [&](ExecContext* use, obs::QueryTrace* trace)
                              -> Result<SegmentRetrieval> {
    {
      HTL_OBS_SPAN(span, trace, "stage.classify");
      span.SetNote(std::string(FormulaClassName(Classify(query))));
    }
    HTL_OBS_SPAN(span, trace, "stage.execute");
    return TopSegmentsWithReport(query, level, k, use);
  });
}

Result<SegmentRetrieval> Retriever::TopSegmentsProfiled(std::string_view query_text,
                                                        int level, int64_t k,
                                                        ExecContext* ctx) {
  return RunProfiled(ctx, [&](ExecContext* use, obs::QueryTrace* trace)
                              -> Result<SegmentRetrieval> {
    FormulaPtr f;
    {
      HTL_OBS_SPAN(span, trace, "stage.parse");
      HTL_ASSIGN_OR_RETURN(f, ParseFormula(query_text));
    }
    {
      HTL_OBS_SPAN(span, trace, "stage.bind");
      HTL_RETURN_IF_ERROR(Bind(f.get()));
    }
    {
      HTL_OBS_SPAN(span, trace, "stage.rewrite");
      f = Rewrite(std::move(f));
    }
    {
      HTL_OBS_SPAN(span, trace, "stage.classify");
      span.SetNote(std::string(FormulaClassName(Classify(*f))));
    }
    HTL_OBS_SPAN(span, trace, "stage.execute");
    return TopSegmentsWithReport(*f, level, k, use);
  });
}

Result<std::vector<SegmentHit>> Retriever::TopSegments(const Formula& query, int level,
                                                       int64_t k, ExecContext* ctx) {
  HTL_ASSIGN_OR_RETURN(SegmentRetrieval r, TopSegmentsWithReport(query, level, k, ctx));
  HTL_RETURN_IF_ERROR(FirstFailure(r.report));
  return std::move(r.hits);
}

Result<std::vector<SegmentHit>> Retriever::TopSegments(std::string_view query_text,
                                                       int level, int64_t k,
                                                       ExecContext* ctx) {
  HTL_ASSIGN_OR_RETURN(FormulaPtr f, Prepare(query_text));
  return TopSegments(*f, level, k, ctx);
}

Result<SegmentRetrieval> Retriever::TopSegmentsAtNamedLevelWithReport(
    const Formula& query, const std::string& level_name, int64_t k, ExecContext* ctx) {
  return RunSegmentQuery(query, k, ctx,
                         [&level_name] { return StrCat("name:", level_name); },
                         [this, &level_name](MetadataStore::VideoId v) {
                           Result<int> level = store_->Video(v).LevelByName(level_name);
                           return level.ok() ? level.value() : -1;
                         });
}

Result<std::vector<SegmentHit>> Retriever::TopSegmentsAtNamedLevel(
    const Formula& query, const std::string& level_name, int64_t k, ExecContext* ctx) {
  HTL_ASSIGN_OR_RETURN(SegmentRetrieval r,
                       TopSegmentsAtNamedLevelWithReport(query, level_name, k, ctx));
  HTL_RETURN_IF_ERROR(FirstFailure(r.report));
  return std::move(r.hits);
}

Result<std::vector<SegmentHit>> Retriever::TopSegmentsAtNamedLevel(
    std::string_view query_text, const std::string& level_name, int64_t k,
    ExecContext* ctx) {
  HTL_ASSIGN_OR_RETURN(FormulaPtr f, Prepare(query_text));
  return TopSegmentsAtNamedLevel(*f, level_name, k, ctx);
}

Result<VideoRetrieval> Retriever::TopVideosWithReport(const Formula& query, int64_t k,
                                                      ExecContext* ctx) {
  if (caches_ == nullptr) return RunVideoQueryCold(query, k, ctx);
  const uint64_t epoch = store_->epoch();
  const std::string key =
      StrCat("vid|k", k, "|", options_fp_, "|", CanonicalFormulaKey(query));
  obs::QueryTrace* tr = ctx != nullptr ? ctx->trace() : nullptr;
  HTL_ASSIGN_OR_RETURN(
      QueryCaches::ResultPtr cached,
      caches_->GetOrRun(key, epoch, ctx, tr, [&]() -> Result<CachedQueryResult> {
        HTL_ASSIGN_OR_RETURN(VideoRetrieval r, RunVideoQueryCold(query, k, ctx));
        CachedQueryResult c;
        c.video_hits = std::move(r.hits);
        c.report = std::move(r.report);
        return c;
      }));
  VideoRetrieval out;
  out.hits = cached->video_hits;
  out.report = cached->report;
  return out;
}

Result<VideoRetrieval> Retriever::RunVideoQueryCold(const Formula& query, int64_t k,
                                                    ExecContext* ctx) {
  const bool prune = options_.prune && k > 0;
  PruneFloor floor;  // Shared by every chunk/shard of this query.
  VideoPart out;
  const auto eval_one = [&](MetadataStore::VideoId v, ExecContext* ectx,
                            obs::QueryTrace* etr, VideoPart& part) -> Status {
    if (prune && floor.Get() > 0.0) {
      // Whole-video queries score the root, so the bound is taken at the
      // top level; a bound failure degrades to full evaluation.
      Result<double> ub = BoundForVideo(query, v, store_->Video(v), 1, store_->epoch());
      if (ub.ok() && ub.value() < floor.Get() - kBoundSlack) {
        ++part.report.videos_pruned;
        part.report.pruned_videos.push_back(v);
        HTL_OBS_COUNT("engine.prune.videos_pruned", 1);
        return Status::OK();
      }
    }
    if (ectx != nullptr) ectx->BeginUnit();
    HTL_OBS_SPAN(vspan, etr, "video");
    vspan.SetUnit(v);
    const VideoTree& video = store_->Video(v);
    Sim sim;
    bool degraded = false;
    Status video_error = Status::OK();
    {
      VideoEngine& slot = EngineFor(v);
      MutexLock lock(&slot.mu);
      DirectEngine& engine = EngineLocked(slot, v, store_->epoch());
      engine.set_exec_context(ectx);
      Result<Sim> direct = engine.EvaluateVideo(query);
      engine.set_exec_context(nullptr);
      if (direct.ok()) {
        sim = direct.value();
      } else if (direct.status().code() == StatusCode::kUnimplemented) {
        degraded = true;
      } else {
        video_error = direct.status();
      }
    }
    if (degraded) {
      ReferenceEngine reference(&video, options_);
      reference.set_exec_context(ectx);
      Result<Sim> ref = reference.EvaluateVideo(query);
      if (ref.ok()) {
        sim = ref.value();
      } else {
        video_error = ref.status();
      }
    }
    if (vspan.active() && ectx != nullptr) {
      vspan.AddRows(ectx->rows_used());
      vspan.AddTables(ectx->tables_used());
    }
    if (!video_error.ok()) {
      if (video_error.IsQueryAbort()) return video_error;
      vspan.SetNote(StrCat("failed: ", video_error.ToString()));
      ++part.report.videos_failed;
      part.report.failures.push_back(RetrievalReport::VideoFailure{v, video_error});
      return Status::OK();
    }
    if (degraded) vspan.SetNote("degraded");
    ++part.report.videos_evaluated;
    if (degraded) ++part.report.videos_degraded;
    if (sim.actual > 0) {
      part.hits.push_back(VideoHit{v, sim});
      if (prune) {
        PushBest(part.best, k, sim.fraction());
        if (static_cast<int64_t>(part.best.size()) >= k) {
          floor.Publish(part.best.front());
        }
      }
    }
    return Status::OK();
  };
  HTL_RETURN_IF_ERROR(ForEachVideo(store_->num_videos(), ctx, EffectiveWorkers(),
                                   options_.num_shards, options_.thread_pool,
                                   eval_one, out));
  std::stable_sort(out.hits.begin(), out.hits.end(),
                   [](const VideoHit& a, const VideoHit& b) {
                     if (a.sim.fraction() != b.sim.fraction()) {
                       return a.sim.fraction() > b.sim.fraction();
                     }
                     return a.video < b.video;
                   });
  if (static_cast<int64_t>(out.hits.size()) > k) {
    out.hits.resize(static_cast<size_t>(k));
  }
  VideoRetrieval result;
  result.hits = std::move(out.hits);
  result.report = std::move(out.report);
  return result;
}

Result<VideoRetrieval> Retriever::TopVideosProfiled(const Formula& query, int64_t k,
                                                    ExecContext* ctx) {
  return RunProfiled(ctx, [&](ExecContext* use, obs::QueryTrace* trace)
                              -> Result<VideoRetrieval> {
    {
      HTL_OBS_SPAN(span, trace, "stage.classify");
      span.SetNote(std::string(FormulaClassName(Classify(query))));
    }
    HTL_OBS_SPAN(span, trace, "stage.execute");
    return TopVideosWithReport(query, k, use);
  });
}

Result<std::vector<VideoHit>> Retriever::TopVideos(const Formula& query, int64_t k,
                                                   ExecContext* ctx) {
  HTL_ASSIGN_OR_RETURN(VideoRetrieval r, TopVideosWithReport(query, k, ctx));
  HTL_RETURN_IF_ERROR(FirstFailure(r.report));
  return std::move(r.hits);
}

Result<std::vector<VideoHit>> Retriever::TopVideos(std::string_view query_text,
                                                   int64_t k, ExecContext* ctx) {
  HTL_ASSIGN_OR_RETURN(FormulaPtr f, Prepare(query_text));
  return TopVideos(*f, k, ctx);
}

}  // namespace htl
