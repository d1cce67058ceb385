// Measures the Retriever's result cache: what a warm hit saves, what a
// cold miss costs, and what cache_mode=off pays for the cache code now
// being on the retrieval path. Arms, per query:
//
//   handroll   per-video EvaluateList + TopKSegments + global rank on a
//              cache-off retriever — the hand-rolled retrieval loop with no
//              result-cache wrapper at all (the pre-cache code shape);
//   off        TopSegmentsWithReport with cache_mode=kOff — the default
//              cache configuration;
//   miss       cache_mode=kReadWrite with the cache cleared before every
//              query — lookup miss + recompute + fill (the worst case);
//   warm       cache_mode=kReadWrite, warmed once — every query a hit.
//
// Every arm runs serially: the retrievers are built with parallelism = 1,
// as the handroll loop evaluates one video after another, so the off arm
// differs from handroll only by the code around the loop.
//
// Gates (binary exits non-zero on failure, so CI runs it directly):
//   * warm speedup: off / warm >= 5x   (HTL_CACHE_SPEEDUP_MIN overrides)
//   * off overhead: off vs handroll < 2% (HTL_CACHE_OFF_LIMIT overrides)
// Per-arm times are best-of-rounds, arms interleaved per round, to fight
// scheduler noise. The off-overhead gate is stricter still: handroll and
// off alternate per *rep*, and the gate takes the median of the per-rep
// off/handroll ratios. Adjacent reps are microseconds apart, so frequency
// drift, a throttled window, or a preemption slows both halves of a pair
// alike and cancels in the ratio, where it would skew independently-timed
// blocks; the median then discards the pairs a preemption split anyway.
// The registry is on for the whole run, so every arm pays the same counter
// increments; the warm arm's hit count is read from it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "engine/result_cache.h"
#include "engine/retrieval.h"
#include "obs/metrics.h"
#include "perf_common.h"
#include "sim/topk.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/video_gen.h"

int main() {
  using namespace htl;

  double speedup_min = 5.0;
  if (const char* env = std::getenv("HTL_CACHE_SPEEDUP_MIN"); env != nullptr) {
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end != env && parsed > 0) speedup_min = parsed;
  }
  double off_limit = 0.02;
  if (const char* env = std::getenv("HTL_CACHE_OFF_LIMIT"); env != nullptr) {
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end != env && parsed > 0) off_limit = parsed;
  }

  bench::BenchJson json("cache");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  registry.SetEnabled(true);
  const obs::Counter* hits = registry.GetCounter("cache.result.hits");
  const int64_t hits_before = hits->Value();
  MetadataStore store;
  Rng rng(20260806);
  VideoGenOptions opts;
  opts.levels = 2;
  opts.min_branching = 30;
  opts.max_branching = 50;
  for (int i = 0; i < 16; ++i) store.AddVideo(GenerateVideo(rng, opts));

  QueryOptions off_options;  // cache_mode defaults to kOff.
  off_options.parallelism = 1;
  Retriever r_off(&store, off_options);
  QueryOptions rw_options;
  rw_options.cache_mode = CacheMode::kReadWrite;
  rw_options.parallelism = 1;
  Retriever r_miss(&store, rw_options);
  Retriever r_warm(&store, rw_options);

  const char* queries[] = {
      "exists x (type(x) = 'person') until exists y (type(y) = 'train')",
      "exists x (present(x) and moving(x) and eventually armed(x))",
      "exists z (present(z) and [h <- height(z)] eventually (height(z) > h))",
  };

  constexpr int64_t kTopK = 10;
  constexpr int kReps = 20;
  constexpr int kRounds = 25;
  double total_handroll = 0, total_off = 0, total_miss = 0, total_warm = 0;
  // One off/handroll ratio per (query, round, rep) pair, for the paired gate.
  std::vector<double> off_ratios;

  std::printf("result cache (16 videos, best of %d rounds)\n", kRounds);
  std::printf("%-56s %-12s %-12s %-12s %-12s %s\n", "query", "handroll ms",
              "off ms", "miss ms", "warm ms", "off ovh");

  for (const char* q : queries) {
    auto prepared = r_off.Prepare(q);
    if (!prepared.ok()) {
      std::printf("query error: %s\n", prepared.status().ToString().c_str());
      return 1;
    }
    const Formula& f = *prepared.value();

    // Warm-up: pays each retriever's per-video atomic indexing once, and
    // leaves r_warm's result cache holding this query.
    for (Retriever* r : {&r_off, &r_miss, &r_warm}) {
      auto warm = r->TopSegmentsWithReport(f, 2, kTopK);
      HTL_CHECK(warm.ok()) << warm.status().ToString();
      HTL_CHECK(warm.value().report.complete());
    }

    // The pre-cache body of TopSegmentsWithReport, hand-inlined: per-video
    // list evaluation with report bookkeeping, per-video top-k, then the
    // global fractional-similarity ranking — everything the entry point did
    // before the cache dispatch existed, with no cache wrapper on the path.
    // Returns seconds for a single rep.
    auto one_handroll = [&]() -> double {
      WallTimer timer;
      SegmentRetrieval out;
      for (MetadataStore::VideoId v = 1; v <= store.num_videos(); ++v) {
        bool degraded = false;
        auto list = r_off.EvaluateList(v, 2, f, nullptr, &degraded);
        if (!list.ok()) {
          ++out.report.videos_failed;
          out.report.failures.push_back(
              RetrievalReport::VideoFailure{v, list.status()});
          continue;
        }
        ++out.report.videos_evaluated;
        if (degraded) ++out.report.videos_degraded;
        for (const RankedSegment& s : TopKSegments(list.value(), kTopK)) {
          out.hits.push_back(SegmentHit{v, s.id, s.sim});
        }
      }
      std::stable_sort(out.hits.begin(), out.hits.end(),
                       [](const SegmentHit& a, const SegmentHit& b) {
                         return a.sim.fraction() > b.sim.fraction();
                       });
      if (out.hits.size() > static_cast<size_t>(kTopK)) out.hits.resize(kTopK);
      HTL_CHECK(!out.hits.empty());
      HTL_CHECK(out.report.complete());
      return timer.ElapsedSeconds();
    };

    auto one_retriever = [&](Retriever& r, bool clear_first) -> double {
      if (clear_first) r.cache()->Clear();
      WallTimer timer;
      auto result = r.TopSegmentsWithReport(f, 2, kTopK);
      HTL_CHECK(result.ok()) << result.status().ToString();
      return timer.ElapsedSeconds();
    };

    double handroll_ms = 1e99, off_ms = 1e99, miss_ms = 1e99, warm_ms = 1e99;
    std::vector<double> query_ratios;
    for (int round = 0; round < kRounds; ++round) {
      double h_sum = 0, o_sum = 0, m_sum = 0, w_sum = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        // Alternate which arm of the pair runs first: whatever the previous
        // rep leaves behind (allocator state, predictors, cache residency)
        // lands on each arm equally often and cancels in the median ratio.
        double h, o;
        if (rep % 2 == 0) {
          h = one_handroll();
          o = one_retriever(r_off, false);
        } else {
          o = one_retriever(r_off, false);
          h = one_handroll();
        }
        h_sum += h;
        o_sum += o;
        if (h > 0) query_ratios.push_back(o / h);
        m_sum += one_retriever(r_miss, true);
        w_sum += one_retriever(r_warm, false);
      }
      handroll_ms = std::min(handroll_ms, 1e3 * h_sum / kReps);
      off_ms = std::min(off_ms, 1e3 * o_sum / kReps);
      miss_ms = std::min(miss_ms, 1e3 * m_sum / kReps);
      warm_ms = std::min(warm_ms, 1e3 * w_sum / kReps);
    }
    std::nth_element(query_ratios.begin(),
                     query_ratios.begin() + static_cast<long>(query_ratios.size() / 2),
                     query_ratios.end());
    const double query_off_overhead = query_ratios[query_ratios.size() / 2] - 1.0;
    off_ratios.insert(off_ratios.end(), query_ratios.begin(), query_ratios.end());

    total_handroll += handroll_ms;
    total_off += off_ms;
    total_miss += miss_ms;
    total_warm += warm_ms;
    std::printf("%-56s %-12.3f %-12.3f %-12.3f %-12.4f %+.2f%%\n", q, handroll_ms,
                off_ms, miss_ms, warm_ms, 1e2 * query_off_overhead);
    json.Add(q, {{"handroll_ms", handroll_ms},
                 {"off_ms", off_ms},
                 {"miss_ms", miss_ms},
                 {"warm_ms", warm_ms},
                 {"off_overhead", query_off_overhead},
                 {"warm_speedup", warm_ms > 0 ? off_ms / warm_ms : 0.0}});
  }

  const double speedup = total_warm > 0 ? total_off / total_warm : 0.0;
  // Median of the paired per-round ratios: robust to throttled windows that
  // a min over independently-timed blocks would attribute to one arm only.
  HTL_CHECK(!off_ratios.empty());
  std::nth_element(off_ratios.begin(),
                   off_ratios.begin() + static_cast<long>(off_ratios.size() / 2),
                   off_ratios.end());
  const double off_overhead = off_ratios[off_ratios.size() / 2] - 1.0;
  const double miss_overhead =
      total_off > 0 ? total_miss / total_off - 1.0 : 0.0;
  // Only the warm arm hits: the miss arm clears its cache before every query.
  const int64_t warm_hits = hits->Value() - hits_before;
  json.Add("aggregate", {{"handroll_ms", total_handroll},
                         {"off_ms", total_off},
                         {"miss_ms", total_miss},
                         {"warm_ms", total_warm},
                         {"warm_speedup", speedup},
                         {"off_overhead", off_overhead},
                         {"miss_overhead", miss_overhead},
                         {"warm_hits", static_cast<double>(warm_hits)},
                         {"speedup_min", speedup_min},
                         {"off_limit", off_limit}});
  std::printf(
      "\naggregate: warm hit %.1fx faster than cache-off (gate >= %.0fx);\n"
      "cache_mode=off %+.2f%% vs hand-rolled loop (paired-round median, "
      "limit %.0f%%); miss %+.2f%% vs off (informational)\n",
      speedup, speedup_min, 1e2 * off_overhead, 1e2 * off_limit,
      1e2 * miss_overhead);

  bool ok = true;
  if (speedup < speedup_min) {
    std::printf("FAIL: warm-hit speedup %.1fx below the %.0fx gate\n", speedup,
                speedup_min);
    ok = false;
  }
  if (off_overhead > off_limit) {
    std::printf("FAIL: cache_mode=off overhead %.2f%% exceeds limit %.0f%%\n",
                1e2 * off_overhead, 1e2 * off_limit);
    ok = false;
  }
  if (ok) std::printf("PASS: cache gates met\n");
  return ok ? 0 : 1;
}
