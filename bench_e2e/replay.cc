// Traced run: replays a fixed prefix of a workload's seeded request
// sequence on one thread. Each request goes to the server through
// QueryClient, then runs again on an in-process Retriever with the server's
// QueryOptions through TopSegmentsProfiled: its QueryProfile gives the
// stage times (parse, bind, rewrite, classify, execute) and one span per
// evaluated video. What the profile lacks (the codecs, vm::Compile,
// VideoStats::Build, UpperBoundFraction, TopKSegments) is timed from
// outside. Work counts are deltas of the registry counters the admin plane
// exports; waiting inside the server comes from its net.request.* and
// pool.task_wait_us histograms.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_e2e.h"
#include "engine/retrieval.h"
#include "htl/bound.h"
#include "htl/parser.h"
#include "model/video_stats.h"
#include "net/client.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "sim/topk.h"
#include "spans.h"
#include "sql/sql_system.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "vm/compiler.h"

namespace e2e {

using htl::MetadataStore;
using htl::Status;
using htl::net::QueryKind;
using htl::net::QueryRequest;
using htl::net::QueryResponse;
using htl::net::WireHit;
using htl::obs::QueryProfile;
using Scope = SpanLog::Scope;

namespace {

/// Per-layer metrics carried by the final JSON line (BENCHMARK.json
/// "per_layer"): the ones every workload exercises. The workload-specific
/// layers (picture, cache, sql, degraded fallback) are printed as extras.
const char* const kLayerJson[] = {
    "net.request_codec_us",        "net.response_codec_us",
    "net.request.decode_us.p50",
    "net.request.execute_us.p50",  "net.request.encode_us.p50",
    "net.overhead_us",             "pool.task_wait_us.p50",
    "obs.profile_overhead_pct",    "htl.parse_us",
    "htl.bind_us",                 "htl.rewrite_us",
    "htl.classify_us",             "htl.bound_us_per_query",
    "htl.bound_calls_per_query",   "htl.bound_slack_mean",
    "vm.compile_us",               "model.stats_build_us",
    "engine.retrieve_us",          "engine.eval_us_per_query",
    "engine.eval_us_per_video",    "engine.unattributed_us",
    "engine.videos_evaluated_per_query", "engine.prune_ratio",
    "engine.useful_eval_ratio",    "engine.engine_build_us",
    "sim.merge_entries_per_query", "sim.topk_us",
};

/// The Chrome trace holds this many spans; the self-time table covers all.
constexpr size_t kMaxTraceEvents = 100'000;

/// Registry counters read around the in-process retrieval.
enum CounterId {
  kBoundChecks,
  kPictureQueries,
  kAtomicQueries,
  kAtomicHits,
  kResultHits,
  kResultMisses,
  kResultStale,
  kResultEvictions,
  kListHits,
  kListMisses,
  kListStale,
  kSqlRows,
  kMergeEntries,  // Sum of the sim.* kernel input counters.
  kNumCounters,
};

class Counters {
 public:
  Counters() {
    auto& reg = htl::obs::MetricsRegistry::Instance();
    const char* const names[kMergeEntries] = {
        "engine.prune.bound_checks", "picture.queries",      "engine.atomic_queries",
        "engine.atomic_cache_hits",  "cache.result.hits",    "cache.result.misses",
        "cache.result.stale",        "cache.result.evictions", "cache.simlist.hits",
        "cache.simlist.misses",      "cache.simlist.stale",  "sql.rows_materialized"};
    for (int i = 0; i < kMergeEntries; ++i) single_[i] = reg.GetCounter(names[i]);
    for (const char* name :
         {"sim.and_merge.entries_in", "sim.fuzzy_and_merge.entries_in",
          "sim.or_merge.entries_in", "sim.until_merge.entries_in", "sim.eventually.entries_in",
          "sim.table_join.rows_in", "sim.exists_collapse.rows_in", "sim.freeze_join.rows_in"}) {
      merge_.push_back(reg.GetCounter(name));
    }
  }

  struct Values {
    int64_t v[kNumCounters] = {};
    int64_t operator[](CounterId id) const { return v[id]; }
  };

  Values Read() const {
    Values out;
    for (int i = 0; i < kMergeEntries; ++i) out.v[i] = single_[i]->Value();
    for (const htl::obs::Counter* c : merge_) out.v[kMergeEntries] += c->Value();
    return out;
  }

  static Values Delta(const Values& after, const Values& before) {
    Values out;
    for (int i = 0; i < kNumCounters; ++i) out.v[i] = after.v[i] - before.v[i];
    return out;
  }

 private:
  htl::obs::Counter* single_[kMergeEntries] = {};
  std::vector<htl::obs::Counter*> merge_;
};

/// Sums over the measured (post-warm-up) requests. `first_eval_*` counts
/// the warm-up too: that is where set-up pays it.
struct Totals {
  int64_t requests = 0, failed = 0, wrong = 0, htl = 0, executed = 0, sql = 0;
  double overhead_us = 0, response_bytes = 0;
  double parse_us = 0, bind_us = 0, rewrite_us = 0, classify_us = 0, compile_us = 0;
  double retrieve_us = 0, eval_us = 0, bound_us = 0, topk_us = 0;
  double plain_us = 0, profiled_us = 0;
  int64_t video_spans = 0, evaluated = 0, pruned = 0, degraded = 0, useful = 0;
  double stats_us = 0, bound_call_us = 0;
  int64_t stats_builds = 0, bound_calls_timed = 0;
  double slack_sum = 0;
  int64_t slack_n = 0;
  int64_t mutations = 0;
  Counters::Values work;  // Counter deltas over executed (and cached) calls.
  double first_eval_us = 0;
  int64_t first_evals = 0;
};

double Div(double a, double b) { return b > 0 ? a / b : 0.0; }

double Us(int64_t nanos) { return static_cast<double>(nanos) / 1000.0; }

const htl::obs::Histogram::Snapshot* FindHistogram(const htl::obs::MetricsSnapshot& snap,
                                                   std::string_view name) {
  for (const auto& row : snap.histograms) {
    if (row.name == name) return &row.hist;
  }
  return nullptr;
}

/// Median of the observations a histogram gained between two snapshots,
/// interpolated linearly inside its bucket.
double P50Delta(const htl::obs::MetricsSnapshot& before,
                const htl::obs::MetricsSnapshot& after, std::string_view name) {
  const htl::obs::Histogram::Snapshot* a = FindHistogram(after, name);
  if (a == nullptr || a->bounds.empty()) return 0.0;
  const htl::obs::Histogram::Snapshot* b = FindHistogram(before, name);
  std::vector<double> counts(a->buckets.size());
  double total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<double>(a->buckets[i] - (b != nullptr ? b->buckets[i] : 0));
    total += counts[i];
  }
  if (total <= 0) return 0.0;
  const double target = 0.5 * total;
  double cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0 && cum + counts[i] >= target) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(a->bounds[i - 1]);
      const double hi = i < a->bounds.size() ? static_cast<double>(a->bounds[i])
                                             : 2.0 * static_cast<double>(a->bounds.back());
      return lo + (target - cum) / counts[i] * (hi - lo);
    }
    cum += counts[i];
  }
  return 0.0;
}

/// Adds a QueryProfile's spans to `log` under `parent`, which started at
/// `start_ns`. The profile keeps durations only, so starts are laid out as
/// obs::ProfileToChromeTrace lays them: each span begins where its earlier
/// siblings ended.
void Graft(SpanLog* log, const std::vector<QueryProfile::Node>& nodes, int32_t parent,
           int64_t start_ns, int64_t request) {
  int64_t at = start_ns;
  for (const QueryProfile::Node& node : nodes) {
    const int32_t id = log->Add(node.name, request, parent, at, at + node.nanos);
    Graft(log, node.children, id, at, request);
    at += node.nanos;
  }
}

/// Wall time of the profile's spans named `name`.
int64_t ProfileNanos(const std::vector<QueryProfile::Node>& nodes, std::string_view name) {
  int64_t total = 0;
  for (const QueryProfile::Node& node : nodes) {
    total += node.name == name ? node.nanos : ProfileNanos(node.children, name);
  }
  return total;
}

/// The profile's per-video evaluation spans, in evaluation order.
void VideoSpans(const std::vector<QueryProfile::Node>& nodes,
                std::vector<const QueryProfile::Node*>* out) {
  for (const QueryProfile::Node& node : nodes) {
    if (node.name == "video") {
      out->push_back(&node);
    } else {
      VideoSpans(node.children, out);
    }
  }
}

class Replayer {
 public:
  Replayer(Workload& w, htl::net::QueryServer* server)
      : w_(w),
        server_(server),
        client_(ClientOptionsFor(server->port())),
        options_(ServerOptionsFor(w).query_options) {
    // The server's QueryOptions on one thread, so the profile's per-video
    // spans add up to the retrieval they decompose.
    options_.parallelism = 1;
    htl::QueryOptions replay = options_;
    replay.cache_mode = w.use_cache ? htl::CacheMode::kReadWrite : htl::CacheMode::kOff;
    replay_ = std::make_unique<htl::Retriever>(&w.store, replay);
    // The profiling-overhead pair must not be served by the result cache.
    if (w.use_cache) probe_owner_ = std::make_unique<htl::Retriever>(&w.store, options_);
    probe_ = probe_owner_ != nullptr ? probe_owner_.get() : replay_.get();
  }

  /// Sends every distinct query once: the same warm-up the server got, so
  /// the measured prefix runs against warm engines, stats and programs.
  Status WarmUp() {
    for (size_t q = 0; q < w_.queries.size(); ++q) {
      HTL_RETURN_IF_ERROR(One(static_cast<int>(q), -1 - static_cast<int64_t>(q)));
    }
    return Status::OK();
  }

  /// Replays `prefix` requests of client 0's seeded sequence, appending
  /// the workload's batches at its mutation points. Stops early (and says
  /// so) past `cap_s`.
  Status Run(int64_t prefix, double cap_s, bool* truncated) {
    htl::Rng rng(SubSeed(w_.seed, 100));
    const htl::WallTimer clock;
    for (int64_t i = 0; i < prefix; ++i) {
      if (clock.ElapsedSeconds() > cap_s) {
        *truncated = true;
        break;
      }
      const int query = w_.Sample(rng);
      if (w_.mutate_every > 0 && i > 0 && i % w_.mutate_every == 0) {
        while (server_->in_flight() > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        w_.Append(static_cast<int>(++t_.mutations), &w_.store);
        warm_.clear();  // The epoch moved: every engine rebuilds on first use.
      }
      HTL_RETURN_IF_ERROR(One(query, i));
    }
    return Status::OK();
  }

  const Totals& totals() const { return t_; }
  const SpanLog& spans() const { return spans_; }

 private:
  Status One(int q, int64_t rid) {
    const bool measured = rid >= 0;
    const QuerySpec& spec = w_.queries[static_cast<size_t>(q)];
    const QueryRequest request = RequestFor(w_, q);
    Scope root(&spans_, "request", rid);
    {
      Scope s(&spans_, "net.request_codec", rid);
      HTL_ASSIGN_OR_RETURN(const QueryRequest decoded,
                           htl::net::DecodeRequest(htl::net::EncodeRequest(request)));
      if (decoded.query_text != request.query_text) return Status::Internal("request codec");
    }
    const uint64_t recorded = server_->query_log().total_recorded();
    Scope trip(&spans_, "net.round_trip", rid);
    htl::Result<QueryResponse> response = client_.QueryOnce(request);
    const double rtt_us = trip.Stop();
    if (measured) ++t_.requests;
    if (!response.ok() || !response->ok() || response->degraded() || response->partial()) {
      std::fprintf(stderr, "replay request failed: %s\n",
                   response.ok() ? response->message.c_str()
                                 : response.status().ToString().c_str());
      if (measured) ++t_.failed;
      return Status::OK();
    }
    const double execute_us = ServerExecuteUs(recorded);
    {
      Scope s(&spans_, "net.response_codec", rid);
      const std::string body = htl::net::EncodeResponse(*response);
      HTL_ASSIGN_OR_RETURN(const QueryResponse decoded, htl::net::DecodeResponse(body));
      if (decoded.hits.size() != response->hits.size()) return Status::Internal("response codec");
      if (measured) t_.response_bytes += static_cast<double>(body.size());
    }
    if (measured) t_.overhead_us += rtt_us - execute_us;
    if (spec.kind == QueryKind::kSql) return Sql(spec, *response, rid);
    return Htl(q, spec, *response, rid);
  }

  /// The server's execute stage for the request just answered, from its
  /// wide-event record (which lands after the response is written).
  double ServerExecuteUs(uint64_t recorded) const {
    const htl::WallTimer wait;
    while (server_->query_log().total_recorded() <= recorded && wait.ElapsedSeconds() < 2.0) {
      std::this_thread::yield();
    }
    const auto tail = server_->query_log().Tail(1);
    return tail.empty() ? 0.0 : static_cast<double>(tail.front().record.execute_us);
  }

  Status Sql(const QuerySpec& spec, const QueryResponse& response, int64_t rid) {
    const bool measured = rid >= 0;
    htl::FormulaPtr f;
    {
      Scope s(&spans_, "sql.parse", rid);
      HTL_ASSIGN_OR_RETURN(f, htl::ParseFormula(spec.text));
    }
    const Counters::Values before = counters_.Read();
    htl::Result<htl::SimilarityList> list = [&] {
      Scope s(&spans_, "sql.evaluate", rid);
      htl::sql::SqlSystem system;
      return system.Evaluate(*f, w_.sql_inputs, w_.sql_n);
    }();
    if (!list.ok()) return list.status();
    const Counters::Values delta = Counters::Delta(counters_.Read(), before);
    std::vector<WireHit> want;
    for (const htl::RankedSegment& seg : htl::TopKSegments(*list, w_.k)) {
      want.push_back(WireHit{0, seg.id, seg.sim.actual, seg.sim.max});
    }
    if (measured) {
      ++t_.sql;
      t_.work.v[kSqlRows] += delta[kSqlRows];
      if (!SameHits(response.hits, want)) ++t_.wrong;
    }
    return Status::OK();
  }

  Status Htl(int q, const QuerySpec& spec, const QueryResponse& response, int64_t rid) {
    const bool measured = rid >= 0;
    // The bound formula for the calls the profile does not cover; the
    // profiled call below parses the text again and times it.
    HTL_ASSIGN_OR_RETURN(const htl::FormulaPtr f, replay_->Prepare(spec.text));
    double compile_us = 0;
    {
      Scope s(&spans_, "vm.compile", rid);
      HTL_ASSIGN_OR_RETURN(const htl::vm::Program program, htl::vm::Compile(*f, options_));
      s.SetCount(static_cast<int64_t>(program.code.size()));
      compile_us = s.Stop();
    }

    const Counters::Values before = counters_.Read();
    htl::Result<htl::SegmentRetrieval> out = [&] {
      Scope s(&spans_, "engine.retrieve", rid);
      htl::Result<htl::SegmentRetrieval> r =
          replay_->TopSegmentsProfiled(spec.text, spec.level, w_.k);
      s.Stop();
      if (r.ok()) Graft(&spans_, r->report.profile.roots, s.id(), s.start_ns(), rid);
      return r;
    }();
    if (!out.ok()) return out.status();
    const Counters::Values delta = Counters::Delta(counters_.Read(), before);
    const std::vector<QueryProfile::Node>& profile = out->report.profile.roots;
    std::vector<const QueryProfile::Node*> videos;
    VideoSpans(profile, &videos);
    for (const QueryProfile::Node* v : videos) {
      if (warm_.insert({v->unit, q}).second) {
        // This video's first evaluation of this query in the epoch: engine
        // construction and the query's lazily built tables.
        t_.first_eval_us += Us(v->nanos);
        ++t_.first_evals;
      }
    }
    const bool cache_hit = delta[kResultHits] > 0;
    if (measured) {
      ++t_.htl;
      if (!SameHits(response.hits, ToWire(out->hits))) ++t_.wrong;
      t_.parse_us += Us(ProfileNanos(profile, "stage.parse"));
      t_.bind_us += Us(ProfileNanos(profile, "stage.bind"));
      t_.rewrite_us += Us(ProfileNanos(profile, "stage.rewrite"));
      t_.classify_us += Us(ProfileNanos(profile, "stage.classify"));
      t_.compile_us += compile_us;
      for (CounterId id : {kResultHits, kResultMisses, kResultStale, kResultEvictions,
                           kListHits, kListMisses, kListStale}) {
        t_.work.v[id] += delta[id];
      }
    }
    if (cache_hit || !measured) return Status::OK();  // No engine layer ran, or warm-up.

    HTL_RETURN_IF_ERROR(ProfilePair(*f, spec.level, rid));
    ++t_.executed;
    const double retrieve_us = Us(ProfileNanos(profile, "stage.execute"));
    double eval_us = 0;
    for (const QueryProfile::Node* v : videos) eval_us += Us(v->nanos);
    t_.retrieve_us += retrieve_us;
    t_.eval_us += eval_us;
    t_.video_spans += static_cast<int64_t>(videos.size());
    for (CounterId id : {kBoundChecks, kPictureQueries, kAtomicQueries, kAtomicHits,
                         kMergeEntries}) {
      t_.work.v[id] += delta[id];
    }
    t_.evaluated += out->report.videos_evaluated;
    t_.pruned += out->report.videos_pruned;
    t_.degraded += out->report.videos_degraded;
    return OutsideProfile(*f, spec.level, *out, videos, delta[kBoundChecks], rid);
  }

  /// TopSegmentsProfiled (what the server runs, with request tracing on)
  /// against TopSegmentsWithReport on the same warm query, order alternated,
  /// for requests that ran the engine.
  Status ProfilePair(const htl::Formula& f, int level, int64_t rid) {
    if (probe_owner_ != nullptr) {
      // The separate probe may be cold after an append; warm it first so
      // the pair compares like with like.
      HTL_RETURN_IF_ERROR(probe_->TopSegmentsWithReport(f, level, w_.k).status());
    }
    for (int i = 0; i < 2; ++i) {
      const bool profiled = (i == 0) == (rid % 2 != 0);
      Scope s(&spans_, profiled ? "obs.profiled" : "obs.plain", rid);
      htl::Result<htl::SegmentRetrieval> r =
          profiled ? probe_->TopSegmentsProfiled(f, level, w_.k)
                   : probe_->TopSegmentsWithReport(f, level, w_.k);
      const double us = s.Stop();
      if (!r.ok()) return r.status();
      (profiled ? t_.profiled_us : t_.plain_us) += us;
    }
    return Status::OK();
  }

  /// The per-video calls the Retriever makes outside its profile's spans,
  /// timed over the same store: VideoStats::Build and UpperBoundFraction
  /// for every video (the query paid `bound_checks` bound calls), and
  /// TopKSegments over the lists of the videos it evaluated.
  Status OutsideProfile(const htl::Formula& f, int level, const htl::SegmentRetrieval& out,
                        const std::vector<const QueryProfile::Node*>& videos,
                        int64_t bound_checks, int64_t rid) {
    const MetadataStore& store = w_.store;
    const int64_t n = store.num_videos();
    std::vector<MetadataStore::VideoId> in_level;
    for (MetadataStore::VideoId v = 1; v <= n; ++v) {
      if (level <= store.Video(v).num_levels()) in_level.push_back(v);
    }
    std::vector<htl::VideoStats> stats;
    stats.reserve(in_level.size());
    {
      Scope s(&spans_, "model.stats_build", rid);
      for (MetadataStore::VideoId v : in_level) {
        stats.push_back(htl::VideoStats::Build(store.Video(v)));
      }
      s.SetCount(static_cast<int64_t>(stats.size()));
      t_.stats_us += s.Stop();
      t_.stats_builds += static_cast<int64_t>(stats.size());
    }
    std::vector<double> bound(static_cast<size_t>(n + 1), 1.0);
    double bound_us = 0;
    {
      Scope s(&spans_, "htl.bound", rid);
      htl::BoundOptions bound_options;
      bound_options.fuzzy_and = options_.and_semantics == htl::AndSemantics::kFuzzyMin;
      for (size_t i = 0; i < in_level.size(); ++i) {
        bound[static_cast<size_t>(in_level[i])] =
            htl::UpperBoundFraction(f, store.Video(in_level[i]), stats[i], level, bound_options);
      }
      s.SetCount(static_cast<int64_t>(in_level.size()));
      bound_us = s.Stop();
    }
    t_.bound_call_us += bound_us;
    t_.bound_calls_timed += static_cast<int64_t>(in_level.size());
    t_.bound_us += Div(bound_us, static_cast<double>(in_level.size())) *
                   static_cast<double>(bound_checks);

    std::vector<htl::SimilarityList> lists;
    for (const QueryProfile::Node* v : videos) {
      HTL_ASSIGN_OR_RETURN(htl::SimilarityList list, replay_->EvaluateList(v->unit, level, f));
      lists.push_back(std::move(list));
    }
    {
      Scope s(&spans_, "sim.topk", rid);
      int64_t kept = 0;
      for (const htl::SimilarityList& list : lists) {
        kept += static_cast<int64_t>(htl::TopKSegments(list, w_.k).size());
      }
      s.SetCount(kept);
      t_.topk_us += s.Stop();
    }
    std::set<MetadataStore::VideoId> in_top;
    for (const htl::SegmentHit& h : out.hits) in_top.insert(h.video);
    for (size_t i = 0; i < videos.size(); ++i) {
      const MetadataStore::VideoId v = videos[i]->unit;
      if (in_top.count(v) != 0) ++t_.useful;
      // Bound slack: how far the bound sat above the best fraction the
      // video actually reached.
      double best = 0;
      for (const htl::SimEntry& e : lists[i].entries()) {
        best = std::max(best, Div(e.actual, lists[i].max()));
      }
      t_.slack_sum += bound[static_cast<size_t>(v)] - best;
      ++t_.slack_n;
    }
    return Status::OK();
  }

  Workload& w_;
  htl::net::QueryServer* server_;
  const htl::net::QueryClient client_;
  htl::QueryOptions options_;
  std::unique_ptr<htl::Retriever> replay_;
  std::unique_ptr<htl::Retriever> probe_owner_;
  htl::Retriever* probe_ = nullptr;
  /// (video, query) pairs evaluated since the last append.
  std::set<std::pair<int64_t, int>> warm_;
  Counters counters_;
  SpanLog spans_;
  Totals t_;
};

}  // namespace

htl::Result<RunResult> RunTrace(Workload& w, double seconds) {
  htl::obs::MetricsRegistry::Instance().SetEnabled(true);
  HTL_ASSIGN_OR_RETURN(std::unique_ptr<htl::net::QueryServer> server, StartWarmServer(w));
  Replayer replayer(w, server.get());
  HTL_RETURN_IF_ERROR(replayer.WarmUp());

  const htl::obs::MetricsSnapshot before = htl::obs::MetricsRegistry::Instance().Snapshot();
  bool truncated = false;
  const htl::WallTimer clock;
  // The prefix is fixed so runs compare; the cap only keeps a slow host
  // inside the run's time limit.
  HTL_RETURN_IF_ERROR(replayer.Run(w.replay_prefix, std::max(2.0 * seconds, 20.0), &truncated));
  const double replay_s = clock.ElapsedSeconds();
  const htl::obs::MetricsSnapshot after = htl::obs::MetricsRegistry::Instance().Snapshot();
  HTL_RETURN_IF_ERROR(server->Shutdown());

  const Totals& t = replayer.totals();
  const SpanLog& spans = replayer.spans();
  const double htl_requests = static_cast<double>(t.htl);
  const double exec = static_cast<double>(t.executed);
  const double answered = static_cast<double>(t.requests - t.failed);
  const auto lookups = [&](CounterId hits, CounterId misses, CounterId stale) {
    return static_cast<double>(t.work[hits] + t.work[misses] + t.work[stale]);
  };
  const std::vector<Metric> all = {
      {"net.request_codec_us", Div(spans.TotalUs("net.request_codec", true), answered), "us"},
      {"net.response_codec_us", Div(spans.TotalUs("net.response_codec", true), answered), "us"},
      {"net.response_bytes", Div(t.response_bytes, answered), "bytes"},
      {"net.request.decode_us.p50", P50Delta(before, after, "net.request.decode_us"), "us"},
      {"net.request.execute_us.p50", P50Delta(before, after, "net.request.execute_us"), "us"},
      {"net.request.encode_us.p50", P50Delta(before, after, "net.request.encode_us"), "us"},
      {"net.overhead_us", Div(t.overhead_us, answered), "us"},
      {"pool.task_wait_us.p50", P50Delta(before, after, "pool.task_wait_us"), "us"},
      {"obs.profile_overhead_pct", 100.0 * (Div(t.profiled_us, t.plain_us) - 1.0), "%"},
      {"htl.parse_us", Div(t.parse_us, htl_requests), "us"},
      {"htl.bind_us", Div(t.bind_us, htl_requests), "us"},
      {"htl.rewrite_us", Div(t.rewrite_us, htl_requests), "us"},
      {"htl.classify_us", Div(t.classify_us, htl_requests), "us"},
      {"htl.bound_us_per_query", Div(t.bound_us, exec), "us"},
      {"htl.bound_calls_per_query", Div(static_cast<double>(t.work[kBoundChecks]), exec),
       "count"},
      {"htl.bound_slack_mean", Div(t.slack_sum, static_cast<double>(t.slack_n)), "fraction"},
      {"vm.compile_us", Div(t.compile_us, htl_requests), "us"},
      {"model.stats_build_us", Div(t.stats_us, static_cast<double>(t.stats_builds)), "us"},
      {"engine.retrieve_us", Div(t.retrieve_us, exec), "us"},
      {"engine.eval_us_per_query", Div(t.eval_us, exec), "us"},
      {"engine.eval_us_per_video", Div(t.eval_us, static_cast<double>(t.video_spans)), "us"},
      {"engine.unattributed_us", Div(t.retrieve_us - t.eval_us - t.bound_us, exec), "us"},
      {"engine.videos_evaluated_per_query", Div(static_cast<double>(t.evaluated), exec),
       "count"},
      {"engine.prune_ratio",
       Div(static_cast<double>(t.pruned), static_cast<double>(t.pruned + t.evaluated)),
       "ratio"},
      {"engine.useful_eval_ratio",
       Div(static_cast<double>(t.useful), static_cast<double>(t.video_spans)), "ratio"},
      {"engine.degraded_ratio",
       Div(static_cast<double>(t.degraded), static_cast<double>(t.evaluated)), "ratio"},
      {"engine.engine_build_us", Div(t.first_eval_us, static_cast<double>(t.first_evals)),
       "us"},
      {"picture.queries_per_query", Div(static_cast<double>(t.work[kPictureQueries]), exec),
       "count"},
      {"picture.atomic_cache_hit_ratio",
       Div(static_cast<double>(t.work[kAtomicHits]),
           static_cast<double>(t.work[kAtomicHits] + t.work[kAtomicQueries])),
       "ratio"},
      {"sim.merge_entries_per_query", Div(static_cast<double>(t.work[kMergeEntries]), exec),
       "count"},
      {"sim.topk_us", Div(t.topk_us, exec), "us"},
      {"cache.result.hit_ratio",
       Div(static_cast<double>(t.work[kResultHits]),
           lookups(kResultHits, kResultMisses, kResultStale)),
       "ratio"},
      {"cache.simlist.hit_ratio",
       Div(static_cast<double>(t.work[kListHits]), lookups(kListHits, kListMisses, kListStale)),
       "ratio"},
      {"cache.result.evictions", static_cast<double>(t.work[kResultEvictions]), "count"},
      {"cache.result.stale_per_mutation",
       Div(static_cast<double>(t.work[kResultStale]), static_cast<double>(t.mutations)),
       "count"},
      {"sql.evaluate_us", Div(spans.TotalUs("sql.evaluate", true), static_cast<double>(t.sql)),
       "us"},
      {"sql.rows_materialized_per_query",
       Div(static_cast<double>(t.work[kSqlRows]), static_cast<double>(t.sql)), "count"},
  };

  RunResult result;
  result.attempted = t.requests;
  result.failed = t.failed + t.wrong;
  result.correct = result.failed == 0;
  for (const Metric& m : all) {
    const bool in_json = std::find_if(std::begin(kLayerJson), std::end(kLayerJson),
                                      [&](const char* name) { return m.name == name; }) !=
                         std::end(kLayerJson);
    (in_json ? result.metrics : result.extra).push_back(m);
  }
  result.extra.push_back({"htl.bound_call_us", Div(t.bound_call_us,
                                                    static_cast<double>(t.bound_calls_timed)),
                          "us"});
  result.extra.push_back({"replay_requests", static_cast<double>(t.requests), "count"});
  result.extra.push_back({"replay_htl_executed", exec, "count"});
  result.extra.push_back({"replay_sql", static_cast<double>(t.sql), "count"});
  result.extra.push_back({"replay_mutations", static_cast<double>(t.mutations), "count"});
  result.extra.push_back({"replay_s", replay_s, "s"});
  result.extra.push_back({"replay_truncated", truncated ? 1.0 : 0.0, "count"});

  std::printf("# self time by layer (measured replay, %lld requests)\n%s",
              static_cast<long long>(t.requests), spans.SelfTimeTable().c_str());
  const std::string path = htl::StrCat("BENCH_e2e_trace_", w.name, ".json");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::Internal(htl::StrCat("cannot write ", path));
  const std::string trace = spans.ToChromeTrace(kMaxTraceEvents);
  std::fwrite(trace.data(), 1, trace.size(), file);
  std::fclose(file);
  std::printf("# chrome trace: %s (%zu of %zu spans)\n", path.c_str(),
              std::min(spans.size(), kMaxTraceEvents), spans.size());
  return result;
}

}  // namespace e2e
