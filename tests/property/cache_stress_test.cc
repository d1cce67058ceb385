// Randomized concurrent stress over one shared caching Retriever: query
// threads hammer a deliberately tiny cache (constant eviction) while a
// mutator thread appends to the store and siblings race cancellations.
// Appends hold a writer lock — the store's documented contract is that
// appends are serialized against in-flight queries; the video-count stamp
// protects cached answers *across* that point, not racing writes. The
// oracle is twofold: TSan (this suite runs under the tsan CI
// preset) and cold-cache recomputation spot-checks — a sampled query's
// answer is recomputed on a throwaway cache-off retriever under the same
// reader lock and must match bit for bit.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/exec_context.h"
#include "engine/result_cache.h"
#include "engine/retrieval.h"
#include "model/video.h"
#include "testing/helpers.h"
#include "util/fault_point.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/video_gen.h"

namespace htl {
namespace {

// The cache counts only in the registry, so the tests that count enable it.
using testing::ResultCacheCounts;
using testing::ScopedMetrics;

bool IsSanctioned(const Status& s) {
  return s.ok() || s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kCancelled;
}

// Bit-exact comparison, tallied into a counter (threads must not ASSERT).
bool SameResults(const SegmentRetrieval& a, const SegmentRetrieval& b) {
  if (a.hits.size() != b.hits.size()) return false;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].video != b.hits[i].video ||
        a.hits[i].segment != b.hits[i].segment ||
        !(a.hits[i].sim == b.hits[i].sim)) {
      return false;
    }
  }
  return a.report.videos_evaluated == b.report.videos_evaluated &&
         a.report.videos_failed == b.report.videos_failed;
}

const char* const kStressQueries[] = {
    "exists x (type(x) = 'person') until exists y (type(y) = 'train')",
    "exists x (present(x) and moving(x) and eventually armed(x))",
    "exists z (present(z) and [h <- height(z)] eventually (height(z) > h))",
    "exists x (type(x) = 'horse') and at-next-level(exists y (moving(y)))",
};

TEST(CacheStressTest, RandomizedQueriesMutationsAndCancels) {
  FaultRegistry::Instance().DisableAll();
  ScopedMetrics metrics;
  ResultCacheCounts counts;
  MetadataStore store;
  Rng corpus_rng(515253);
  VideoGenOptions vopts;
  vopts.levels = 3;
  vopts.min_branching = 2;
  vopts.max_branching = 3;
  for (int i = 0; i < 8; ++i) store.AddVideo(GenerateVideo(corpus_rng, vopts));

  ThreadPool pool(ThreadPool::Options{4, 0});
  QueryOptions options;
  options.parallelism = 2;
  options.thread_pool = &pool;
  options.cache_mode = CacheMode::kReadWrite;
  options.result_cache_bytes = 4096;  // Tiny: eviction fires constantly.
  Retriever shared(&store, options);  // ONE caching retriever for all threads.

  std::vector<FormulaPtr> queries;
  for (const char* text : kStressQueries) {
    auto q = shared.Prepare(text);
    ASSERT_OK(q.status());
    queries.push_back(std::move(q).value());
  }

  // Readers = queries, writer = appends (the store's serialization
  // contract); the grown video count then invalidates warm entries.
  std::shared_mutex store_mu;
  std::atomic<bool> stop_mutator{false};
  std::atomic<int> unsanctioned{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> spot_checks{0};

  std::thread mutator([&] {
    Rng rng(86420);
    while (!stop_mutator.load(std::memory_order_relaxed)) {
      {
        std::unique_lock<std::shared_mutex> lock(store_mu);
        if (store.num_videos() < 16) store.AddVideo(GenerateVideo(rng, vopts));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kQueryThreads = 4;
  constexpr int kRoundsPerThread = 12;
  std::vector<std::thread> workers;
  for (int t = 0; t < kQueryThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 104729 + 7);
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const Formula& q = *queries[rng.UniformInt(0, 3)];
        const int64_t pick = rng.UniformInt(0, 3);
        if (pick == 3) {
          // Raced cancel: sanctioned failure or a valid answer, never a
          // poisoned cache (later rounds re-verify against cold).
          ExecContext ctx;
          std::thread canceller([&ctx] { ctx.Cancel(); });
          std::shared_lock<std::shared_mutex> lock(store_mu);
          auto r = shared.TopSegmentsWithReport(q, 2, 6, &ctx);
          lock.unlock();
          canceller.join();
          if (!IsSanctioned(r.status())) unsanctioned.fetch_add(1);
        } else if (pick == 2) {
          ExecContext ctx;
          ctx.SetTimeout(std::chrono::microseconds(rng.UniformInt(0, 500)));
          std::shared_lock<std::shared_mutex> lock(store_mu);
          auto r = shared.TopSegmentsWithReport(q, 2, 6, &ctx);
          if (!IsSanctioned(r.status())) unsanctioned.fetch_add(1);
        } else {
          // Plain query; every other one is spot-checked against a cold
          // cache-off recomputation under the same reader lock (the store
          // cannot move, so the answers must be bit-identical).
          std::shared_lock<std::shared_mutex> lock(store_mu);
          auto r = shared.TopSegmentsWithReport(q, 2, 6);
          if (!IsSanctioned(r.status())) unsanctioned.fetch_add(1);
          if (r.ok() && pick == 0) {
            Retriever cold(&store, QueryOptions{});
            auto want = cold.TopSegmentsWithReport(q, 2, 6);
            if (!want.ok() || !SameResults(want.value(), r.value())) {
              mismatches.fetch_add(1);
            }
            spot_checks.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop_mutator.store(true, std::memory_order_relaxed);
  mutator.join();

  EXPECT_EQ(unsanctioned.load(), 0) << "a query returned an unsanctioned status";
  EXPECT_EQ(mismatches.load(), 0) << "a cached answer diverged from cold recompute";
  EXPECT_GT(spot_checks.load(), 0) << "stress mix never exercised the oracle";

  // The storm is over: the cache still serves exact answers.
  for (const FormulaPtr& q : queries) {
    Retriever cold(&store, QueryOptions{});
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval want, cold.TopSegmentsWithReport(*q, 2, 6));
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval got, shared.TopSegmentsWithReport(*q, 2, 6));
    EXPECT_TRUE(SameResults(want, got));
  }
  EXPECT_GT(counts.hits.value() + counts.misses.value(), 0) << counts.ToString();
}

// The single-flight stampede: N threads fire the identical query at a cold
// cache simultaneously. Exactly one fill happens; every other thread is
// accounted for as either a waiter served by the leader's flight or a plain
// hit (it arrived after the fill) — and all N answers are bit-identical.
TEST(CacheStressTest, SingleFlightStampedeComputesOnce) {
  FaultRegistry::Instance().DisableAll();
  MetadataStore store;
  Rng corpus_rng(31337);
  VideoGenOptions vopts;
  vopts.levels = 3;
  vopts.min_branching = 3;
  vopts.max_branching = 5;
  for (int i = 0; i < 6; ++i) store.AddVideo(GenerateVideo(corpus_rng, vopts));

  Retriever cold(&store, QueryOptions{});
  ASSERT_OK_AND_ASSIGN(FormulaPtr query, cold.Prepare(kStressQueries[1]));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval want, cold.TopSegmentsWithReport(*query, 2, 6));
  ASSERT_TRUE(want.report.complete());

  QueryOptions options;
  options.cache_mode = CacheMode::kReadWrite;
  options.parallelism = 1;
  Retriever shared(&store, options);

  ScopedMetrics metrics;
  ResultCacheCounts counts;
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load(std::memory_order_relaxed) < kThreads) std::this_thread::yield();
      auto r = shared.TopSegmentsWithReport(*query, 2, 6);
      if (!r.ok() || !SameResults(want, r.value())) mismatches.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(counts.fills.value(), 1) << counts.ToString();
  // Leader aside, each thread is either a flight waiter or a post-fill hit.
  EXPECT_EQ(counts.hits.value() + counts.shared_waits.value(), kThreads - 1)
      << counts.ToString();
  EXPECT_EQ(shared.cache()->entries(), 1);
}

// A leader whose own deadline kills the compute must not poison the cache
// or fail its waiters: healthy threads retry the flight, one of them
// becomes the new leader, and everyone healthy gets the exact answer.
TEST(CacheStressTest, FailedLeaderDoesNotPoisonWaiters) {
  FaultRegistry::Instance().DisableAll();
  MetadataStore store;
  Rng corpus_rng(8642);
  VideoGenOptions vopts;
  vopts.levels = 3;
  vopts.min_branching = 2;
  vopts.max_branching = 4;
  for (int i = 0; i < 6; ++i) store.AddVideo(GenerateVideo(corpus_rng, vopts));

  Retriever cold(&store, QueryOptions{});
  ASSERT_OK_AND_ASSIGN(FormulaPtr query, cold.Prepare(kStressQueries[0]));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval want, cold.TopSegmentsWithReport(*query, 2, 6));

  QueryOptions options;
  options.cache_mode = CacheMode::kReadWrite;
  options.parallelism = 1;
  Retriever shared(&store, options);

  constexpr int kDoomed = 2;   // Expired deadlines: may grab leadership and fail.
  constexpr int kHealthy = 4;
  std::atomic<int> ready{0};
  std::atomic<int> unsanctioned{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kDoomed + kHealthy; ++t) {
    const bool doomed = t < kDoomed;
    threads.emplace_back([&, doomed] {
      ready.fetch_add(1);
      while (ready.load(std::memory_order_relaxed) < kDoomed + kHealthy) {
        std::this_thread::yield();
      }
      ExecContext ctx;
      if (doomed) ctx.SetTimeout(std::chrono::milliseconds(0));
      auto r = shared.TopSegmentsWithReport(*query, 2, 6, &ctx);
      if (doomed) {
        // Either it lost the race to a healthy fill (a valid hit) or its
        // deadline fired; both are sanctioned, wrong answers are not.
        if (!IsSanctioned(r.status())) unsanctioned.fetch_add(1);
        if (r.ok() && !SameResults(want, r.value())) mismatches.fetch_add(1);
      } else if (!r.ok() || !SameResults(want, r.value())) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(unsanctioned.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Whatever the leadership interleaving, the cache holds at most the one
  // correct entry — never a doomed leader's residue.
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval after, shared.TopSegmentsWithReport(*query, 2, 6));
  EXPECT_TRUE(SameResults(want, after));
  EXPECT_LE(shared.cache()->entries(), 1);
}

}  // namespace
}  // namespace htl
