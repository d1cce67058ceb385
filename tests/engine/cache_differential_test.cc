// The caching determinism contract: with cache_mode on, every hit is
// *bit-identical* to what a cold (cache-off) retriever computes on the same
// store — across all four formula classes of section 3, repeated queries,
// interleaved appends, worker counts, and eviction pressure from tiny byte
// budgets. The cache may only change latency, never a single output bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "engine/direct_engine.h"
#include "engine/result_cache.h"
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

// The cache counts only in the registry's cache.result.* counters, so tests
// that count enable the registry and read deltas.
using testing::CounterDelta;
using testing::ResultCacheCounts;
using testing::ScopedMetrics;

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
  ScopedMetrics metrics;
  ResultCacheCounts counts;
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
  EXPECT_EQ(counts.hits.value(), expected_hits) << counts.ToString();
  EXPECT_EQ(counts.fills.value(), expected_fills) << counts.ToString();
  EXPECT_EQ(counts.hits.value() + counts.misses.value(), 24)  // 4 x 2 x 3.
      << counts.ToString();
}

// Whole-video retrieval is the level-1 query: level 1 holds exactly the root.
TEST_F(CacheDifferentialTest, LevelOneWarmHitsMatchCold) {
  ScopedMetrics metrics;
  CounterDelta hits("cache.result.hits");
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
  EXPECT_GT(hits.value(), 0);
}

// Appends interleaved with queries: every append changes the store's
// video count, which stamps the result cache's entries, so the warm cache
// must never serve a pre-append answer — each post-append query matches a
// from-scratch cold retriever on the grown store.
TEST_F(CacheDifferentialTest, MutationsInvalidateWarmEntries) {
  ScopedMetrics metrics;
  CounterDelta stale("cache.result.stale");
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
  EXPECT_GT(stale.value(), 0);
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

  CounterDelta stale("cache.result.stale");
  before = atomic_queries->Value();
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval got, cached.TopSegmentsWithReport(*f, 2, 10));
  EXPECT_EQ(atomic_queries->Value() - before, appended_atoms);
  EXPECT_EQ(stale.value(), 1);
  ExpectSameSegmentResults(ColdAnswer(*f, 2), got, "after append");
}

// The caching layers compose with parallel execution: for worker counts 1,
// 2 and 4, cold fills and warm hits both reproduce the serial cold answer.
TEST_F(CacheDifferentialTest, ParallelismSweepMatchesSerialCold) {
  ScopedMetrics metrics;
  for (const ClassedQuery& q : kQueries) {
    Retriever cold = MakeCold();
    ASSERT_OK_AND_ASSIGN(FormulaPtr f, cold.Prepare(q.text));
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval want, cold.TopSegmentsWithReport(*f, 2, 10));
    for (int workers : {1, 2, 4}) {
      CounterDelta hits("cache.result.hits");
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
      EXPECT_EQ(hits.value(), want.report.complete() ? 1 : 0);
    }
  }
}

// Eviction pressure: byte budgets far too small for the working set force
// constant eviction; every answer still matches cold recomputation.
TEST_F(CacheDifferentialTest, TinyBudgetsEvictButNeverCorrupt) {
  ScopedMetrics metrics;
  CounterDelta evictions("cache.result.evictions");
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
  EXPECT_GT(evictions.value(), 0);
  EXPECT_LE(cached.cache()->bytes(), options.result_cache_bytes);
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
  ASSERT_EQ(roomy.cache()->entries(), 16);

  ScopedMetrics metrics;
  CounterDelta evictions("cache.result.evictions");
  QueryOptions options;
  options.cache_mode = CacheMode::kReadWrite;
  options.parallelism = 1;
  options.result_cache_bytes = roomy.cache()->bytes();
  Retriever exact(&store_, options);
  ASSERT_NO_FATAL_FAILURE(run_all(exact));
  EXPECT_EQ(exact.cache()->entries(), 16);
  EXPECT_EQ(evictions.value(), 0);
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
  ScopedMetrics metrics;
  CounterDelta hits("cache.result.hits");
  Retriever cached = MakeCached();
  ASSERT_OK_AND_ASSIGN(FormulaPtr ab, cached.Prepare(kAB));
  ASSERT_OK_AND_ASSIGN(FormulaPtr ba, cached.Prepare(kBA));
  EXPECT_EQ(CanonicalFormulaKey(*ab), CanonicalFormulaKey(*ba));

  ASSERT_OK_AND_ASSIGN(SegmentRetrieval first,
                       cached.TopSegmentsWithReport(*ab, 2, 10));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval second,
                       cached.TopSegmentsWithReport(*ba, 2, 10));
  ExpectSameSegmentResults(first, second, "swapped operands");
  EXPECT_EQ(hits.value(), 1);
  EXPECT_EQ(cached.cache()->entries(), 1);
  // And the shared entry serves the cold answer, not merely *an* answer.
  ExpectSameSegmentResults(ColdAnswer(*ab, 2), second, "vs cold");
}

// The result cache counts only in the registry: each event moves its
// cache.result.* counter by exactly one and leaves the others alone.
TEST_F(CacheDifferentialTest, ResultCacheCountersReachTheRegistry) {
  ScopedMetrics metrics;
  // k = 1 keeps every answer within one hit of the same size, so a budget
  // of the largest answer holds any one of them but never two: each fill
  // of a new key evicts the resident one.
  std::vector<FormulaPtr> formulas;
  int64_t largest = 0;
  for (const ClassedQuery& q : kQueries) {
    Retriever roomy = MakeCached();
    ASSERT_OK_AND_ASSIGN(FormulaPtr f, roomy.Prepare(q.text));
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval want, roomy.TopSegmentsWithReport(*f, 2, 1));
    ASSERT_TRUE(want.report.complete()) << q.text;
    largest = std::max(largest, roomy.cache()->bytes());
    formulas.push_back(std::move(f));
  }
  QueryOptions options;
  options.cache_mode = CacheMode::kReadWrite;
  options.result_cache_bytes = largest;
  Retriever cached(&store_, options);
  const auto expect_event = [&](const char* event, const Formula& f, const char* want) {
    SCOPED_TRACE(event);
    ResultCacheCounts counts;
    ASSERT_OK(cached.TopSegmentsWithReport(f, 2, 1).status());
    EXPECT_EQ(counts.ToString(), want);
  };
  expect_event("miss", *formulas[0],
               "hits 0, misses 1, stale 0, fills 1, evictions 0, shared_waits 0");
  expect_event("hit", *formulas[0],
               "hits 1, misses 0, stale 0, fills 0, evictions 0, shared_waits 0");
  store_.AddVideo(VideoTree::Flat(1));
  expect_event("stale", *formulas[0],
               "hits 0, misses 1, stale 1, fills 1, evictions 0, shared_waits 0");
  expect_event("eviction", *formulas[1],
               "hits 0, misses 1, stale 0, fills 1, evictions 1, shared_waits 0");
  EXPECT_EQ(cached.cache()->entries(), 1);

  // A shared wait: two callers of one key, either of which may lead. The
  // leader holds its cold run until both probes have missed, and a little
  // longer so that the other caller joins the flight; a caller that arrives
  // too late hits instead, so retry.
  bool shared = false;
  for (int attempt = 0; attempt < 20 && !shared; ++attempt) {
    ResultCache cache(1 << 20);
    ResultCacheCounts counts;
    const ResultCache::Cold cold = [&]() -> Result<SegmentRetrieval> {
      while (counts.misses.value() < 2) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return SegmentRetrieval{};
    };
    std::thread other([&] { EXPECT_OK(cache.GetOrRun("key", 1, nullptr, cold).status()); });
    EXPECT_OK(cache.GetOrRun("key", 1, nullptr, cold).status());
    other.join();
    const std::string got = counts.ToString();
    shared = counts.shared_waits.value() == 1;
    EXPECT_TRUE(got == "hits 0, misses 2, stale 0, fills 1, evictions 0, shared_waits 1" ||
                got == "hits 1, misses 2, stale 0, fills 1, evictions 0, shared_waits 0")
        << got;
  }
  EXPECT_TRUE(shared) << "no attempt produced a shared wait";
}

}  // namespace
}  // namespace htl
