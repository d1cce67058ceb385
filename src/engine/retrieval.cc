#include "engine/retrieval.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "engine/direct_engine.h"
#include "engine/reference_engine.h"
#include "engine/result_cache.h"
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
  for (const VideoFailure& f : failures) {
    out += StrCat("; video ", f.video, ": ", f.status.ToString());
  }
  for (const obs::QueryProfile::FaultTrip& trip : profile.fault_trips) {
    out += StrCat("; fault trip ", trip.point);
  }
  return out;
}

Status RetrievalReport::FirstFailure() const {
  if (complete()) return Status::OK();
  return failures.front().status;
}

Retriever::Retriever(const MetadataStore* store, QueryOptions options)
    : store_(store), options_(options) {
  HTL_CHECK(store != nullptr);
  if (options_.cache_mode != CacheMode::kOff) {
    cache_ = std::make_unique<ResultCache>(options_.result_cache_bytes);
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

int Retriever::EffectiveWorkers() const {
  int workers = options_.parallelism > 0 ? options_.parallelism
                                         : ThreadPool::DefaultParallelism();
  const int64_t num_videos = store_->num_videos();
  if (workers > num_videos) workers = static_cast<int>(num_videos);
  return workers < 1 ? 1 : workers;
}

Result<double> Retriever::BoundForVideo(const Formula& query,
                                        MetadataStore::VideoId video, int level) {
  // An injected failure (any code, even an abort-shaped one) degrades to
  // full evaluation at the caller: the bound is advisory, never load-bearing.
  HTL_FAULT_POINT("engine.bound_compute");
  HTL_OBS_COUNT("engine.prune.bound_checks", 1);
  const VideoTree& tree = store_->Video(video);
  // A level past this video's hierarchy evaluates to an empty list; return
  // the trivial bound so the video still evaluates and per-video counts
  // stay aligned with the unpruned run.
  if (level > tree.num_levels()) return 1.0;
  BoundOptions bound_options;
  bound_options.fuzzy_and = options_.and_semantics == AndSemantics::kFuzzyMin;
  const double ub =
      UpperBoundFraction(query, tree, store_->Stats(video), level, bound_options);
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
    if (slot.engine == nullptr) {
      slot.engine =
          std::make_unique<DirectEngine>(&video, options_, &store_->Stats(video_id));
    }
    slot.engine->set_exec_context(ctx);
    Result<SimilarityList> direct = slot.engine->EvaluateList(level, query);
    slot.engine->set_exec_context(nullptr);
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

// The global ranking, a total order: descending fraction, ties by video then
// segment id.
bool RanksBefore(const SegmentHit& a, const SegmentHit& b) {
  if (a.sim.fraction() != b.sim.fraction()) return a.sim.fraction() > b.sim.fraction();
  if (a.video != b.video) return a.video < b.video;
  return a.segment < b.segment;
}

// Offers `hit` to a chunk's top k: a heap whose front is its worst hit.
void KeepTopK(std::vector<SegmentHit>& top, int64_t k, const SegmentHit& hit) {
  if (static_cast<int64_t>(top.size()) < k) {
    top.push_back(hit);
    std::push_heap(top.begin(), top.end(), RanksBefore);
    return;
  }
  if (!RanksBefore(hit, top.front())) return;
  std::pop_heap(top.begin(), top.end(), RanksBefore);
  top.back() = hit;
  std::push_heap(top.begin(), top.end(), RanksBefore);
}

// Ranks the merged chunk heaps (at most chunks x k hits) and keeps the top k.
void RankAndTrim(std::vector<SegmentHit>& all, int64_t k) {
  std::sort(all.begin(), all.end(), RanksBefore);
  if (static_cast<int64_t>(all.size()) > k) all.resize(static_cast<size_t>(k));
}

// Shared plumbing behind the *Profiled entry points: attach a fresh trace
// to the effective context (a local unlimited one when the caller passed
// null), make it the thread's current trace so fault points report into it,
// run `body(ctx, trace)`, and finish the trace on every path. The profile
// goes into the result's report; when the call fails as a whole, it is
// adopted into the trace the caller's context carried, if any, so a failed
// request can still explain itself. The context's previous trace is
// restored on every path.
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
  obs::QueryProfile profile = trace.Finish();
  if (!result.ok()) {
    if (saved != nullptr) saved->Adopt(std::move(profile));
    return result.status();
  }
  auto out = std::move(result).value();
  out.report.profile = std::move(profile);
  return out;
}

// Folds one chunk's partial result into `out`. Chunks cover contiguous
// ascending video ranges and merge in chunk order, so the failure and
// pruned sequences match the serial loop exactly; the hits are each chunk's
// top k, which RankAndTrim ranks.
void MergeChunk(SegmentRetrieval& out, SegmentRetrieval&& part) {
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
  for (auto& hit : part.hits) out.hits.push_back(std::move(hit));
}

// The monotonically-rising top-k floor one query's chunks share (CAS-max).
// Relaxed ordering is sound: a stale read only weakens pruning —
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

// The store-wide per-video driver. `eval_one(v, ctx, trace, part)`
// evaluates video `v` into `part` and returns only query-abort errors;
// per-video failures are recorded in the part's report.
//
// `workers <= 1` (or a 0/1-video store) runs the historical serial loop on
// the calling thread — bit for bit, including a possibly-null `ctx`.
// Otherwise the video range splits into `workers` contiguous chunks
// scattered through ParallelFor (the caller participates). Each chunk runs
// under a child ExecContext chained to a per-call group context: children
// copy the caller's deadline and budgets, and the first aborting worker
// records its status and cancels the group, draining the other chunks at
// their next poll without touching the caller's own context. Chunk parts
// merge in chunk order, so the merged output is identical to the serial
// loop's; per-chunk traces (when profiling) are stitched under the caller's
// innermost open span, also in chunk order.
template <typename EvalOne>
Status ForEachVideo(int64_t num_videos, ExecContext* ctx, int workers,
                    ThreadPool* pool, const EvalOne& eval_one, SegmentRetrieval& out) {
  obs::QueryTrace* tr = ctx != nullptr ? ctx->trace() : nullptr;
  if (workers <= 1 || num_videos <= 1) {
    for (MetadataStore::VideoId v = 1; v <= num_videos; ++v) {
      HTL_CHECK_EXEC(ctx);  // Deadline/cancel abort the whole call.
      HTL_RETURN_IF_ERROR(eval_one(v, ctx, tr, out));
    }
    return Status::OK();
  }
  // Resolved here, not by the caller, so a serial query (the parallelism=1
  // contract, and every query on a 1-CPU host) never instantiates the
  // shared pool's worker threads.
  if (pool == nullptr) pool = ThreadPool::Shared();

  const int64_t chunks = std::min<int64_t>(workers, num_videos);
  // Even contiguous partition: chunk c covers [chunk_begin(c), chunk_begin(c+1)).
  const auto chunk_begin = [num_videos, chunks](int64_t c) {
    return 1 + c * num_videos / chunks;
  };

  // The group context fans cancellation out to every worker child without
  // touching the caller's context (whose cancel flag stays the caller's to
  // set); children observe the group through the parent chain.
  ExecContext group(ctx);
  std::vector<SegmentRetrieval> parts(static_cast<size_t>(chunks));
  // QueryTrace is neither copyable nor movable, hence the indirection.
  std::vector<std::unique_ptr<obs::QueryTrace>> worker_traces;
  if (tr != nullptr) {
    for (int64_t c = 0; c < chunks; ++c) {
      worker_traces.push_back(std::make_unique<obs::QueryTrace>());
    }
  }

  Mutex abort_mu;
  Status first_abort;  // Root-cause abort; guarded by abort_mu.
  std::atomic<bool> aborted{false};

  const Status loop_status = ParallelFor(
      pool, chunks, [&](int64_t c) -> Status {
        ExecContext child(&group);
        obs::QueryTrace* wtr =
            tr != nullptr ? worker_traces[static_cast<size_t>(c)].get() : nullptr;
        child.set_trace(wtr);
        // Fault trips under this worker land in its own trace (or nowhere
        // when unprofiled) — never in another thread's.
        obs::ScopedTraceAttach attach(wtr);
        HTL_OBS_SPAN(wspan, wtr, "worker");
        wspan.SetUnit(c);
        SegmentRetrieval& part = parts[static_cast<size_t>(c)];
        for (int64_t v = chunk_begin(c); v < chunk_begin(c + 1); ++v) {
          // Drain once any worker aborted: the merged result is discarded,
          // so finishing the chunk would be wasted work.
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
  for (SegmentRetrieval& part : parts) MergeChunk(out, std::move(part));
  return Status::OK();
}

}  // namespace

Result<SegmentRetrieval> Retriever::TopSegmentsWithReport(const Formula& query,
                                                          int level, int64_t k,
                                                          ExecContext* ctx) {
  // Both checked once here, before the cache key and the loop exist: level
  // 0 would fail each video separately, RankAndTrim cannot size a negative
  // k, and k = 0 would evaluate every video to return nothing.
  if (level < 1) {
    return Status::InvalidArgument(
        StrCat("level ", level, " is not a level (levels start at 1)"));
  }
  if (k < 1) {
    return Status::InvalidArgument(StrCat("k ", k, " is not a hit count (k starts at 1)"));
  }
  if (cache_ == nullptr) return RunCold(query, level, k, ctx);
  // The store is append-only, so its video count identifies its contents.
  // One sample governs the whole query: the lookup validates against it and
  // the fill is stamped with it, so an append slipping in mid-query (a
  // contract violation) can only leave entries a later lookup evicts.
  const auto stamp = static_cast<uint64_t>(store_->num_videos());
  const std::string key = StrCat("lvl", level, "|k", k, "|", CanonicalFormulaKey(query));
  return cache_->GetOrRun(key, stamp, ctx, [&] { return RunCold(query, level, k, ctx); });
}

Result<SegmentRetrieval> Retriever::RunCold(const Formula& query, int level, int64_t k,
                                            ExecContext* ctx) {
  const bool prune = options_.prune;
  PruneFloor floor;  // Shared by every chunk of this query.
  SegmentRetrieval out;
  const auto eval_one = [&](MetadataStore::VideoId v, ExecContext* ectx,
                            obs::QueryTrace* etr, SegmentRetrieval& part) -> Status {
    if (prune && floor.Get() > 0.0) {
      // Before any budget or span: a pruned video is skipped outright. A
      // bound failure (e.g. the injected engine.bound_compute fault) falls
      // through to full evaluation — pruning only ever gets weaker.
      Result<double> ub = BoundForVideo(query, v, level);
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
    for (const RankedSegment& rs : TopKSegments(list.value(), k)) {
      KeepTopK(part.hits, k, SegmentHit{v, rs.id, rs.sim});
    }
    // A full heap's worst fraction is the chunk's k-th best, a lower bound
    // on the global k-th best (the k-th largest of a subset never exceeds
    // the k-th largest of the whole), so it can be shared as the floor.
    if (prune && static_cast<int64_t>(part.hits.size()) >= k) {
      floor.Publish(part.hits.front().sim.fraction());
    }
    return Status::OK();
  };
  HTL_RETURN_IF_ERROR(ForEachVideo(store_->num_videos(), ctx, EffectiveWorkers(),
                                   options_.thread_pool, eval_one, out));
  RankAndTrim(out.hits, k);
  return out;
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

}  // namespace htl
