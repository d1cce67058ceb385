// Million-video scale sweep: parallel retrieval with bound-based top-k
// pruning over synthetic corpora (workload/video_gen GenerateCorpus). For
// each corpus size the same top-k queries run as paired arms — pruning off
// vs on, serial vs parallel — reporting qps and the pruned fraction, and
// verifying that every arm returns the unpruned serial arm's ranked output
// bit for bit.
//
// Gates (CI runs this binary directly; non-zero exit on failure):
//   - every arm's hits equal the unpruned serial baseline exactly;
//   - at the largest corpus of at least 10^5 videos, the selective query's
//     pruned fraction is >= 0.30 (override with HTL_SCALE_PRUNED_LIMIT);
//   - pruned videos never intersect the top-k result.
//
// Corpus sizes default to {10^4, 10^5}; set HTL_BENCH_SCALE_MAX_VIDEOS
// (e.g. 1000000) to append a larger sweep point.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "engine/retrieval.h"
#include "model/video.h"
#include "perf_common.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "workload/video_gen.h"

namespace {

using namespace htl;

int64_t EnvInt(const char* name, int64_t fallback) {
  if (const char* env = std::getenv(name); env != nullptr) {
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end != env && parsed > 0) return parsed;
  }
  return fallback;
}

double EnvDouble(const char* name, double fallback) {
  if (const char* env = std::getenv(name); env != nullptr) {
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end != env && parsed > 0) return parsed;
  }
  return fallback;
}

bool SameHits(const std::vector<SegmentHit>& got, const std::vector<SegmentHit>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].video != want[i].video || got[i].segment != want[i].segment ||
        got[i].sim.actual != want[i].sim.actual || got[i].sim.max != want[i].sim.max) {
      return false;
    }
  }
  return true;
}

struct Arm {
  const char* label;
  bool prune;
  int parallelism;  // 1 = serial; 0 = default hardware parallelism.
};

}  // namespace

int main() {
  obs::MetricsRegistry::Instance().SetEnabled(true);
  bench::BenchJson json("scale");

  constexpr int64_t kTopK = 10;
  constexpr int kRounds = 3;
  const double pruned_limit = EnvDouble("HTL_SCALE_PRUNED_LIMIT", 0.30);

  std::vector<int64_t> sizes = {10'000, 100'000};
  const int64_t max_videos = EnvInt("HTL_BENCH_SCALE_MAX_VIDEOS", 0);
  if (max_videos > sizes.back()) sizes.push_back(max_videos);

  struct Query {
    const char* label;
    const char* text;
    bool selective;  // Counts toward the pruned-fraction gate.
  };
  const Query queries[] = {
      // Matches only the rare markers GenerateCorpus plants in ~5% of the
      // corpus: every unmarked video has a provable zero bound, the shape
      // pruning is built for.
      {"selective", "exists x (type(x) = 'zeppelin' and rare_event(x))", true},
      // Matches a dense predicate: bounds stay high, pruning stays honest
      // (bit-identical) but cannot skip much — the no-free-lunch arm.
      {"broad", "exists x (moving(x))", false},
  };
  const Arm arms[] = {
      {"serial", false, 1},
      {"serial+prune", true, 1},
      {"parallel", false, 0},
      {"parallel+prune", true, 0},
  };

  bool failed = false;
  for (const int64_t size : sizes) {
    CorpusGenOptions corpus;
    corpus.num_videos = size;
    corpus.video.levels = 2;
    corpus.video.min_branching = 2;
    corpus.video.max_branching = 4;
    corpus.video.num_objects = 3;
    corpus.video.object_density = 0.3;
    corpus.selective_fraction = 0.05;
    corpus.seed = 0xBEEF + static_cast<uint64_t>(size);
    MetadataStore store;
    WallTimer gen_timer;
    const std::vector<MetadataStore::VideoId> selective_ids =
        GenerateCorpus(corpus, &store);
    std::printf("corpus %lld videos (%zu selective) generated in %.2fs\n",
                static_cast<long long>(size), selective_ids.size(),
                gen_timer.ElapsedSeconds());

    for (const Query& q : queries) {
      // The unpruned serial arm is the baseline every other arm must match.
      std::vector<SegmentHit> baseline;
      for (const Arm& arm : arms) {
        QueryOptions options;
        options.prune = arm.prune;
        options.parallelism = arm.parallelism;
        Retriever r(&store, options);
        Result<FormulaPtr> f = r.Prepare(q.text);
        HTL_CHECK(f.ok()) << f.status().ToString();

        // Warm once (per-video engines and stats build lazily), then time.
        Result<SegmentRetrieval> warm =
            r.TopSegmentsWithReport(*f.value(), 2, kTopK);
        HTL_CHECK(warm.ok()) << warm.status().ToString();
        double best_s = 1e99;
        SegmentRetrieval out;
        for (int round = 0; round < kRounds; ++round) {
          WallTimer timer;
          Result<SegmentRetrieval> run =
              r.TopSegmentsWithReport(*f.value(), 2, kTopK);
          const double s = timer.ElapsedSeconds();
          HTL_CHECK(run.ok()) << run.status().ToString();
          best_s = std::min(best_s, s);
          out = std::move(run).value();
        }
        HTL_CHECK(out.report.complete()) << out.report.ToString();

        if (arm.label == std::string_view("serial")) baseline = out.hits;
        const bool match = SameHits(out.hits, baseline);
        if (!match) {
          std::printf("FAIL: %s / %s / %lld diverges from the serial baseline\n",
                      q.label, arm.label, static_cast<long long>(size));
          failed = true;
        }
        // Pruned videos must be disjoint from the result — the pruning
        // soundness spot check the differential battery proves in depth.
        std::set<MetadataStore::VideoId> pruned(out.report.pruned_videos.begin(),
                                                out.report.pruned_videos.end());
        for (const SegmentHit& hit : out.hits) {
          if (pruned.count(hit.video) != 0) {
            std::printf("FAIL: pruned video %lld appears in the top-k\n",
                        static_cast<long long>(hit.video));
            failed = true;
          }
        }

        const double qps = best_s > 0 ? 1.0 / best_s : 0.0;
        const double pruned_fraction =
            static_cast<double>(out.report.videos_pruned) / static_cast<double>(size);
        std::printf(
            "%-10s %-14s size %-8lld  %8.3f ms/query  %8.2f qps  pruned %5.1f%%%s\n",
            q.label, arm.label, static_cast<long long>(size), 1e3 * best_s, qps,
            1e2 * pruned_fraction, match ? "" : "   RESULTS DIFFER!");
        json.Add(StrCat(q.label, " / ", arm.label, " / ", size),
                 {{"size", static_cast<double>(size)},
                  {"prune", arm.prune ? 1.0 : 0.0},
                  {"seconds_per_query", best_s},
                  {"qps", qps},
                  {"videos_pruned", static_cast<double>(out.report.videos_pruned)},
                  {"pruned_fraction", pruned_fraction},
                  {"hits_match_baseline", match ? 1.0 : 0.0}});

        // The headline gate: at the largest corpus of >= 10^5 videos the
        // selective query must prune at least the limit fraction.
        if (q.selective && arm.prune && arm.parallelism == 1 && size >= 100'000 &&
            size == sizes.back()) {
          if (pruned_fraction < pruned_limit) {
            std::printf(
                "FAIL: selective pruned fraction %.3f below the %.2f gate at "
                "%lld videos\n",
                pruned_fraction, pruned_limit, static_cast<long long>(size));
            failed = true;
          }
        }
      }
    }
  }

  if (failed) return 1;
  std::printf(
      "PASS: all arms bit-identical to the serial baseline; selective pruning "
      "above the %.2f gate\n",
      pruned_limit);
  return 0;
}
