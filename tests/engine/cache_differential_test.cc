// The caching determinism contract: with cache_mode on, every hit is
// *bit-identical* to what a cold (cache-off) retriever computes on the same
// store — across all four formula classes of section 3, repeated queries,
// interleaved appends, worker counts, and eviction pressure from tiny byte
// budgets. The cache may only change latency, never a single output bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/direct_engine.h"
#include "engine/query_cache.h"
#include "engine/retrieval.h"
#include "htl/classifier.h"
#include "htl/fingerprint.h"
#include "model/video.h"
#include "obs/metrics.h"
#include "testing/helpers.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/video_gen.h"

namespace htl {
namespace {

// The four sub-general classes of section 3 over the generated-video
// vocabulary (same fixed set the parallel determinism suite pins down).
struct ClassedQuery {
  const char* text;
  FormulaClass expected_class;
};

const ClassedQuery kQueries[] = {
    {"exists x (type(x) = 'person') until exists y (type(y) = 'train')",
     FormulaClass::kType1},
    {"exists x (present(x) and moving(x) and eventually armed(x))",
     FormulaClass::kType2},
    {"exists z (present(z) and [h <- height(z)] eventually (height(z) > h))",
     FormulaClass::kConjunctive},
    {"exists x (type(x) = 'horse') and at-next-level(exists y (moving(y)))",
     FormulaClass::kExtendedConjunctive},
};

struct ScopedMetrics {
  ScopedMetrics() { obs::MetricsRegistry::Instance().SetEnabled(true); }
  ~ScopedMetrics() { obs::MetricsRegistry::Instance().SetEnabled(false); }
};

void ExpectSameSegmentResults(const SegmentRetrieval& want,
                              const SegmentRetrieval& got,
                              const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(want.hits.size(), got.hits.size());
  for (size_t i = 0; i < want.hits.size(); ++i) {
    EXPECT_EQ(want.hits[i].video, got.hits[i].video) << "hit " << i;
    EXPECT_EQ(want.hits[i].segment, got.hits[i].segment) << "hit " << i;
    // operator== compares doubles exactly: bit-identical, not near.
    EXPECT_EQ(want.hits[i].sim, got.hits[i].sim) << "hit " << i;
  }
  EXPECT_EQ(want.report.videos_evaluated, got.report.videos_evaluated);
  EXPECT_EQ(want.report.videos_failed, got.report.videos_failed);
  EXPECT_EQ(want.report.videos_degraded, got.report.videos_degraded);
}

class CacheDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Same heterogeneous corpus as the parallel determinism suite: six
    // 3-level videos and three 2-level ones.
    Rng rng(20260806);
    for (int i = 0; i < 9; ++i) {
      VideoGenOptions vopts;
      vopts.levels = i % 3 == 2 ? 2 : 3;
      vopts.min_branching = 2;
      vopts.max_branching = 4;
      store_.AddVideo(GenerateVideo(rng, vopts));
    }
  }

  Retriever MakeCold() { return Retriever(&store_, QueryOptions{}); }

  Retriever MakeCached(int parallelism = 1) {
    QueryOptions options;
    options.cache_mode = CacheMode::kReadWrite;
    options.parallelism = parallelism;
    options.thread_pool = parallelism > 1 ? &pool_ : nullptr;
    return Retriever(&store_, options);
  }

  // The cold reference answer, recomputed from scratch on a throwaway
  // cache-off retriever (the historical code path, bit for bit).
  SegmentRetrieval ColdAnswer(const Formula& f, int level) {
    Retriever cold = MakeCold();
    Result<SegmentRetrieval> r = cold.TopSegmentsWithReport(f, level, 10);
    EXPECT_OK(r.status());
    return std::move(r).value();
  }

  MetadataStore store_;
  ThreadPool pool_{ThreadPool::Options{4, 0}};
};

// Repeated queries through one caching retriever: first run misses and
// fills, later runs hit — every run bit-identical to cold recomputation,
// for every formula class and level.
TEST_F(CacheDifferentialTest, WarmHitsMatchColdAcrossAllClasses) {
  Retriever cached = MakeCached();
  int64_t expected_hits = 0;
  int64_t expected_fills = 0;
  for (const ClassedQuery& q : kQueries) {
    ASSERT_OK_AND_ASSIGN(FormulaPtr f, cached.Prepare(q.text));
    ASSERT_EQ(Classify(*f), q.expected_class) << q.text;
    for (int level : {2, 3}) {
      SegmentRetrieval want = ColdAnswer(*f, level);
      // Complete answers fill once then hit; partial answers (some videos
      // lack the level or the next level) are never cached, so every run
      // recomputes.
      if (want.report.complete()) {
        expected_fills += 1;
        expected_hits += 2;
      }
      for (int run = 0; run < 3; ++run) {
        ASSERT_OK_AND_ASSIGN(SegmentRetrieval got,
                             cached.TopSegmentsWithReport(*f, level, 10));
        ExpectSameSegmentResults(want, got,
                                 std::string(q.text) + " level " +
                                     std::to_string(level) + " run " +
                                     std::to_string(run));
      }
    }
  }
  ASSERT_GT(expected_hits, 0) << "corpus produced no complete answers";
  const cache::CacheStats stats = cached.caches()->result_stats();
  EXPECT_EQ(stats.hits, expected_hits) << stats.ToString();
  EXPECT_EQ(stats.fills, expected_fills) << stats.ToString();
  EXPECT_EQ(stats.hits + stats.misses, 24) << stats.ToString();  // 4 x 2 x 3.
}

// Whole-video retrieval is the level-1 query: level 1 holds exactly the root.
TEST_F(CacheDifferentialTest, LevelOneWarmHitsMatchCold) {
  Retriever cached = MakeCached();
  for (const ClassedQuery& q : kQueries) {
    ASSERT_OK_AND_ASSIGN(FormulaPtr f, cached.Prepare(q.text));
    Retriever cold = MakeCold();
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval want, cold.TopSegmentsWithReport(*f, 1, 5));
    for (int run = 0; run < 2; ++run) {
      ASSERT_OK_AND_ASSIGN(SegmentRetrieval got, cached.TopSegmentsWithReport(*f, 1, 5));
      ExpectSameSegmentResults(want, got,
                               std::string(q.text) + " run " + std::to_string(run));
    }
  }
  EXPECT_GT(cached.caches()->result_stats().hits, 0);
}

// Appends interleaved with queries: every append changes the store's
// video count, which stamps the result cache's entries, so the warm cache
// must never serve a pre-append answer — each post-append query matches a
// from-scratch cold retriever on the grown store.
TEST_F(CacheDifferentialTest, MutationsInvalidateWarmEntries) {
  Retriever cached = MakeCached();
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, cached.Prepare(kQueries[1].text));
  Rng rng(7);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    // Warm (twice: the second run is a genuine hit on the current store).
    SegmentRetrieval want = ColdAnswer(*f, 2);
    for (int run = 0; run < 2; ++run) {
      ASSERT_OK_AND_ASSIGN(SegmentRetrieval got,
                           cached.TopSegmentsWithReport(*f, 2, 10));
      ExpectSameSegmentResults(want, got, "pre-append run " + std::to_string(run));
    }
    VideoGenOptions vopts;
    vopts.levels = 3;
    vopts.min_branching = 2;
    vopts.max_branching = 4;
    store_.AddVideo(GenerateVideo(rng, vopts));
    SegmentRetrieval after = ColdAnswer(*f, 2);
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval got,
                         cached.TopSegmentsWithReport(*f, 2, 10));
    ExpectSameSegmentResults(after, got, "post-append");
  }
  // The post-append lookups found the warm-but-stale entries and evicted
  // them instead of serving them.
  EXPECT_GT(cached.caches()->result_stats().stale, 0)
      << cached.caches()->result_stats().ToString();
}

// An append changes no earlier video, so it invalidates only the result
// cache: the re-run evicts the stale entry and recomputes over the warm
// engines, which issue picture queries for the appended video alone.
TEST_F(CacheDifferentialTest, AppendQueriesPicturesOfTheAppendedVideoOnly) {
  ScopedMetrics metrics;
  obs::Counter* atomic_queries =
      obs::MetricsRegistry::Instance().GetCounter("engine.atomic_queries");
  Retriever cached = MakeCached();
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, cached.Prepare(kQueries[1].text));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval warm, cached.TopSegmentsWithReport(*f, 2, 10));
  ASSERT_TRUE(warm.report.complete()) << warm.report.ToString();

  Rng rng(11);
  VideoGenOptions vopts;
  vopts.levels = 3;
  vopts.min_branching = 2;
  vopts.max_branching = 4;
  const MetadataStore::VideoId appended = store_.AddVideo(GenerateVideo(rng, vopts));
  // The appended video's atoms, counted on an engine of its own.
  int64_t before = atomic_queries->Value();
  DirectEngine own(&store_.Video(appended));
  ASSERT_OK(own.EvaluateList(2, *f).status());
  const int64_t appended_atoms = atomic_queries->Value() - before;
  ASSERT_GT(appended_atoms, 0);

  const int64_t stale_before = cached.caches()->result_stats().stale;
  before = atomic_queries->Value();
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval got, cached.TopSegmentsWithReport(*f, 2, 10));
  EXPECT_EQ(atomic_queries->Value() - before, appended_atoms);
  EXPECT_EQ(cached.caches()->result_stats().stale, stale_before + 1)
      << cached.caches()->result_stats().ToString();
  ExpectSameSegmentResults(ColdAnswer(*f, 2), got, "after append");
}

// The caching layers compose with parallel execution: for worker counts 1,
// 2 and 4, cold fills and warm hits both reproduce the serial cold answer.
TEST_F(CacheDifferentialTest, ParallelismSweepMatchesSerialCold) {
  for (const ClassedQuery& q : kQueries) {
    Retriever cold = MakeCold();
    ASSERT_OK_AND_ASSIGN(FormulaPtr f, cold.Prepare(q.text));
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval want, cold.TopSegmentsWithReport(*f, 2, 10));
    for (int workers : {1, 2, 4}) {
      Retriever cached = MakeCached(workers);
      for (int run = 0; run < 2; ++run) {
        ASSERT_OK_AND_ASSIGN(SegmentRetrieval got,
                             cached.TopSegmentsWithReport(*f, 2, 10));
        ExpectSameSegmentResults(want, got,
                                 std::string(q.text) + " workers " +
                                     std::to_string(workers) + " run " +
                                     std::to_string(run));
      }
      // A complete answer fills on run 0 and hits on run 1; a partial one
      // is never cached and recomputes both times.
      EXPECT_EQ(cached.caches()->result_stats().hits,
                want.report.complete() ? 1 : 0);
    }
  }
}

// Eviction pressure: byte budgets far too small for the working set force
// constant eviction; every answer still matches cold recomputation.
TEST_F(CacheDifferentialTest, TinyBudgetsEvictButNeverCorrupt) {
  QueryOptions options;
  options.cache_mode = CacheMode::kReadWrite;
  options.result_cache_bytes = 512;  // A couple of entries store-wide.
  Retriever cached(&store_, options);
  std::vector<FormulaPtr> formulas;
  std::vector<SegmentRetrieval> want;
  for (const ClassedQuery& q : kQueries) {
    ASSERT_OK_AND_ASSIGN(FormulaPtr f, cached.Prepare(q.text));
    want.push_back(ColdAnswer(*f, 2));
    formulas.push_back(std::move(f));
  }
  // Round-robin so every fill evicts someone else's entry.
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < formulas.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(SegmentRetrieval got,
                           cached.TopSegmentsWithReport(*formulas[i], 2, 10));
      ExpectSameSegmentResults(want[i], got,
                               "round " + std::to_string(round) + " query " +
                                   std::to_string(i));
    }
  }
  const cache::CacheStats stats = cached.caches()->result_stats();
  EXPECT_GT(stats.evictions, 0) << stats.ToString();
  EXPECT_LE(stats.bytes, options.result_cache_bytes) << stats.ToString();
}

// One budget for the whole cache: answers whose total size fits
// result_cache_bytes all stay resident, however their keys hash. 4 queries
// x levels {1, 2} x k {1, 10} make 16 keys; a second cache sized to exactly
// the first one's resident bytes must hold all 16 without an eviction.
TEST_F(CacheDifferentialTest, AnswersThatFitTheBudgetAllStayResident) {
  Retriever roomy = MakeCached();
  std::vector<FormulaPtr> formulas;
  for (const ClassedQuery& q : kQueries) {
    ASSERT_OK_AND_ASSIGN(FormulaPtr f, roomy.Prepare(q.text));
    formulas.push_back(std::move(f));
  }
  const auto run_all = [&formulas](Retriever& r) {
    for (const FormulaPtr& f : formulas) {
      for (int level : {1, 2}) {
        for (int64_t k : {1, 10}) {
          ASSERT_OK_AND_ASSIGN(SegmentRetrieval got,
                               r.TopSegmentsWithReport(*f, level, k));
          ASSERT_TRUE(got.report.complete()) << got.report.ToString();
        }
      }
    }
  };
  ASSERT_NO_FATAL_FAILURE(run_all(roomy));
  const cache::CacheStats roomy_stats = roomy.caches()->result_stats();
  ASSERT_EQ(roomy_stats.entries, 16) << roomy_stats.ToString();

  QueryOptions options;
  options.cache_mode = CacheMode::kReadWrite;
  options.parallelism = 1;
  options.result_cache_bytes = roomy_stats.bytes;
  Retriever exact(&store_, options);
  ASSERT_NO_FATAL_FAILURE(run_all(exact));
  const cache::CacheStats stats = exact.caches()->result_stats();
  EXPECT_EQ(stats.entries, 16) << stats.ToString();
  EXPECT_EQ(stats.evictions, 0) << stats.ToString();
}

// Commutative operand order canonicalizes into one cache key: `a and b`
// asked after `b and a` is a warm hit, and the answers are bit-identical
// (the canonical serializer proves why: IEEE min/+ at a single node are
// symmetric in their operands).
TEST_F(CacheDifferentialTest, CommutativeOperandOrderSharesOneEntry) {
  constexpr const char* kAB =
      "exists x (moving(x)) and exists y (type(y) = 'train')";
  constexpr const char* kBA =
      "exists y (type(y) = 'train') and exists x (moving(x))";
  Retriever cached = MakeCached();
  ASSERT_OK_AND_ASSIGN(FormulaPtr ab, cached.Prepare(kAB));
  ASSERT_OK_AND_ASSIGN(FormulaPtr ba, cached.Prepare(kBA));
  EXPECT_EQ(CanonicalFormulaKey(*ab), CanonicalFormulaKey(*ba));

  ASSERT_OK_AND_ASSIGN(SegmentRetrieval first,
                       cached.TopSegmentsWithReport(*ab, 2, 10));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval second,
                       cached.TopSegmentsWithReport(*ba, 2, 10));
  ExpectSameSegmentResults(first, second, "swapped operands");
  const cache::CacheStats stats = cached.caches()->result_stats();
  EXPECT_EQ(stats.hits, 1) << stats.ToString();
  EXPECT_EQ(stats.entries, 1) << stats.ToString();
  // And the shared entry serves the cold answer, not merely *an* answer.
  ExpectSameSegmentResults(ColdAnswer(*ab, 2), second, "vs cold");
}

// The result cache's hit/miss/stale/fill/eviction counters reach the
// process metrics registry one for one: an operator scraping
// `cache.result.*` sees exactly what result_stats() counts.
TEST_F(CacheDifferentialTest, ResultCacheCountersReachTheRegistry) {
  ScopedMetrics metrics;
  const char* kOutcomes[] = {"hits", "misses", "stale", "fills", "evictions"};
  std::vector<obs::Counter*> counters;
  std::vector<int64_t> before;
  for (const char* outcome : kOutcomes) {
    counters.push_back(obs::MetricsRegistry::Instance().GetCounter(
        StrCat("cache.result.", outcome)));
    before.push_back(counters.back()->Value());
  }

  // k = 1 keeps every answer within one hit of the same size, so a budget
  // of the largest answer holds any one of them but never two: each fill
  // of a new key evicts the resident one.
  std::vector<FormulaPtr> formulas;
  int64_t largest = 0;
  for (const ClassedQuery& q : kQueries) {
    Retriever cold = MakeCold();
    ASSERT_OK_AND_ASSIGN(FormulaPtr f, cold.Prepare(q.text));
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval want, cold.TopSegmentsWithReport(*f, 2, 1));
    ASSERT_TRUE(want.report.complete()) << q.text;
    largest = std::max(largest, CachedQueryResult{std::move(want)}.ByteSize());
    formulas.push_back(std::move(f));
  }
  QueryOptions options;
  options.cache_mode = CacheMode::kReadWrite;
  options.result_cache_bytes = largest;
  Retriever cached(&store_, options);

  ASSERT_OK(cached.TopSegmentsWithReport(*formulas[0], 2, 1).status());  // Miss, fill.
  ASSERT_OK(cached.TopSegmentsWithReport(*formulas[0], 2, 1).status());  // Hit.
  store_.AddVideo(VideoTree::Flat(1));
  ASSERT_OK(cached.TopSegmentsWithReport(*formulas[0], 2, 1).status());  // Stale, fill.
  for (size_t i = 1; i < formulas.size(); ++i) {  // Miss, fill, evict.
    ASSERT_OK(cached.TopSegmentsWithReport(*formulas[i], 2, 1).status());
  }

  const cache::CacheStats stats = cached.caches()->result_stats();
  const int64_t want[] = {stats.hits, stats.misses, stats.stale, stats.fills,
                          stats.evictions};
  for (size_t i = 0; i < counters.size(); ++i) {
    SCOPED_TRACE(kOutcomes[i]);
    EXPECT_GT(want[i], 0) << stats.ToString();
    EXPECT_EQ(counters[i]->Value() - before[i], want[i]) << stats.ToString();
  }
}

}  // namespace
}  // namespace htl
