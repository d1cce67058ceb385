// Randomized concurrent stress over one shared Retriever: query threads
// issue a mix of strict, report-carrying, and profiled retrievals (some
// under deadlines or mid-flight cancellation) while a churn thread hammers
// the metrics registry with Snapshot()/ResetAll(). The assertions are
// weak on purpose — no crash, no hang, every Status a sanctioned one, every
// report internally consistent — because the real oracle is TSan: this test
// runs under the tsan preset (CI job `tsan`) where any data race in the
// pool, the retriever's engine cache, or the obs layer is a hard failure.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "engine/exec_context.h"
#include "engine/retrieval.h"
#include "model/video.h"
#include "obs/metrics.h"
#include "testing/helpers.h"
#include "util/fault_point.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/video_gen.h"

namespace htl {
namespace {

bool IsSanctioned(const Status& s) {
  return s.ok() || s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kCancelled;
}

void ExpectConsistent(const RetrievalReport& report, int64_t num_videos) {
  EXPECT_LE(report.videos_evaluated + report.videos_failed, num_videos);
  EXPECT_EQ(report.failures.size(), static_cast<size_t>(report.videos_failed));
  EXPECT_LE(report.videos_degraded, report.videos_evaluated);
}

TEST(ConcurrentStressTest, MixedQueriesAgainstOneRetrieverWithMetricsChurn) {
  FaultRegistry::Instance().DisableAll();
  MetadataStore store;
  Rng corpus_rng(424242);
  for (int i = 0; i < 8; ++i) {
    VideoGenOptions vopts;
    vopts.levels = 3;
    vopts.min_branching = 2;
    vopts.max_branching = 3;
    store.AddVideo(GenerateVideo(corpus_rng, vopts));
  }

  ThreadPool pool(ThreadPool::Options{4, 0});
  QueryOptions options;
  options.parallelism = 4;
  options.thread_pool = &pool;
  Retriever retriever(&store, options);  // ONE retriever, shared by all threads.

  ASSERT_OK_AND_ASSIGN(
      FormulaPtr query,
      retriever.Prepare(
          "exists x (present(x) and moving(x) and eventually armed(x))"));

  constexpr int kQueryThreads = 4;
  constexpr int kRoundsPerThread = 12;
  std::atomic<bool> stop_churn{false};
  std::atomic<int> failures{0};

  std::thread churn([&] {
    while (!stop_churn.load(std::memory_order_relaxed)) {
      obs::MetricsRegistry::Instance().Snapshot();
      obs::MetricsRegistry::Instance().ResetAll();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kQueryThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 7919 + 13);
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const int64_t pick = rng.UniformInt(0, 4);
        if (pick == 0) {
          auto r = retriever.TopSegmentsWithReport(*query, 3, 5);
          if (!IsSanctioned(r.status())) failures.fetch_add(1);
          if (r.ok()) ExpectConsistent(r.value().report, store.num_videos());
        } else if (pick == 1) {
          // Whole-video retrieval: the level-1 query.
          auto r = retriever.TopSegmentsWithReport(*query, 1, 5);
          if (!IsSanctioned(r.status())) failures.fetch_add(1);
          if (r.ok()) ExpectConsistent(r.value().report, store.num_videos());
        } else if (pick == 2) {
          // Profiled: each query thread owns its trace; worker sub-traces
          // are stitched back on this thread only.
          auto r = retriever.TopSegmentsProfiled(*query, 3, 5);
          if (!IsSanctioned(r.status())) failures.fetch_add(1);
          if (r.ok()) ExpectConsistent(r.value().report, store.num_videos());
        } else if (pick == 3) {
          // A deadline that expires mid-flight on some runs.
          ExecContext ctx;
          ctx.SetTimeout(std::chrono::microseconds(rng.UniformInt(0, 200)));
          auto r = retriever.TopSegmentsWithReport(*query, 3, 5, &ctx);
          if (!IsSanctioned(r.status())) failures.fetch_add(1);
        } else {
          // Cancellation raced from a sibling thread against the run.
          ExecContext ctx;
          std::thread canceller([&ctx] { ctx.Cancel(); });
          auto r = retriever.TopSegmentsWithReport(*query, 3, 5, &ctx);
          canceller.join();
          if (!IsSanctioned(r.status())) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop_churn.store(true, std::memory_order_relaxed);
  churn.join();

  EXPECT_EQ(failures.load(), 0) << "a concurrent query returned an unsanctioned status";

  // The retriever still answers correctly after the storm.
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval after,
                       retriever.TopSegmentsWithReport(*query, 3, 5));
  EXPECT_TRUE(after.report.complete()) << after.report.ToString();
}

TEST(ConcurrentStressTest, ParallelPrunedRetrievalUnderFaultChurn) {
  // The scale-out path under fire: a parallel, pruning Retriever shared by
  // racing query threads while a churn thread arms and disarms the
  // engine.bound_compute fault point mid-flight, and a sibling thread
  // races Cancel() against some runs. TSan is the oracle for the shared
  // prune floor (the CAS-max atomic), the per-video engine slots, and the
  // fault registry; in debug builds the HTL_DCHECK inside
  // PruneFloor::Publish additionally asserts the floor never moves
  // backwards.
  FaultRegistry::Instance().DisableAll();
  MetadataStore store;
  Rng corpus_rng(515151);
  CorpusGenOptions corpus;
  corpus.num_videos = 12;
  corpus.video.levels = 2;
  corpus.video.min_branching = 3;
  corpus.video.max_branching = 5;
  corpus.selective_fraction = 0.3;
  corpus.size_skew = 0.25;
  corpus.seed = 515151;
  GenerateCorpus(corpus, &store);

  ThreadPool pool(ThreadPool::Options{4, 0});
  QueryOptions options;
  options.parallelism = 4;
  options.prune = true;
  options.thread_pool = &pool;
  Retriever retriever(&store, options);  // ONE retriever, shared by all threads.

  ASSERT_OK_AND_ASSIGN(
      FormulaPtr query,
      retriever.Prepare("exists x (type(x) = 'zeppelin' and rare_event(x))"));
  ASSERT_OK_AND_ASSIGN(FormulaPtr broad,
                       retriever.Prepare("exists x (moving(x))"));

  constexpr int kQueryThreads = 4;
  constexpr int kRoundsPerThread = 10;
  std::atomic<bool> stop_churn{false};
  std::atomic<int> failures{0};

  std::thread churn([&] {
    Rng rng(771);
    while (!stop_churn.load(std::memory_order_relaxed)) {
      FaultSpec spec;
      spec.probability = 0.3;
      FaultRegistry::Instance().Enable("engine.bound_compute", spec);
      std::this_thread::yield();
      FaultRegistry::Instance().DisableAll();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kQueryThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 104729 + 7);
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const Formula& f = rng.Bernoulli(0.5) ? *query : *broad;
        const int64_t pick = rng.UniformInt(0, 2);
        if (pick == 0) {
          auto r = retriever.TopSegmentsWithReport(f, 2, 3);
          if (!IsSanctioned(r.status())) failures.fetch_add(1);
          if (r.ok()) {
            const RetrievalReport& report = r.value().report;
            ExpectConsistent(report, store.num_videos());
            // Pruning must stay truthful even under churn: the counter
            // matches the skip list and no video is double-counted.
            EXPECT_EQ(report.videos_pruned,
                      static_cast<int64_t>(report.pruned_videos.size()));
            EXPECT_LE(report.videos_evaluated + report.videos_failed +
                          report.videos_pruned,
                      store.num_videos());
          }
        } else if (pick == 1) {
          auto r = retriever.TopSegmentsWithReport(f, 1, 3);
          if (!IsSanctioned(r.status())) failures.fetch_add(1);
          if (r.ok()) ExpectConsistent(r.value().report, store.num_videos());
        } else {
          ExecContext ctx;
          std::thread canceller([&ctx] { ctx.Cancel(); });
          auto r = retriever.TopSegmentsWithReport(f, 2, 3, &ctx);
          canceller.join();
          if (!IsSanctioned(r.status())) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop_churn.store(true, std::memory_order_relaxed);
  churn.join();
  FaultRegistry::Instance().DisableAll();

  EXPECT_EQ(failures.load(), 0) << "a concurrent query returned an unsanctioned status";

  // Fault-free, churn-free epilogue: the shared retriever still produces a
  // complete, correctly pruned answer.
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval after,
                       retriever.TopSegmentsWithReport(*query, 2, 3));
  EXPECT_TRUE(after.report.complete()) << after.report.ToString();
  QueryOptions plain;
  plain.parallelism = 1;
  Retriever reference(&store, plain);
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval want,
                       reference.TopSegmentsWithReport(*query, 2, 3));
  ASSERT_EQ(after.hits.size(), want.hits.size());
  for (size_t i = 0; i < want.hits.size(); ++i) {
    EXPECT_EQ(after.hits[i].video, want.hits[i].video);
    EXPECT_EQ(after.hits[i].segment, want.hits[i].segment);
    EXPECT_TRUE(after.hits[i].sim == want.hits[i].sim);
  }
}

TEST(ConcurrentStressTest, ConcurrentStrictQueriesShareEngineCache) {
  // Strict queries (every video must complete) racing over the same cold
  // Retriever: the per-video engine cache is created under contention and
  // every thread must see the same exact answers as a lone serial run.
  FaultRegistry::Instance().DisableAll();
  MetadataStore store;
  Rng corpus_rng(99173);
  for (int i = 0; i < 6; ++i) {
    VideoGenOptions vopts;
    vopts.levels = 2;
    vopts.min_branching = 4;
    vopts.max_branching = 8;
    store.AddVideo(GenerateVideo(corpus_rng, vopts));
  }
  QueryOptions serial_options;
  serial_options.parallelism = 1;
  Retriever reference(&store, serial_options);
  ASSERT_OK_AND_ASSIGN(
      FormulaPtr query,
      reference.Prepare("exists x (type(x) = 'person') until exists y (moving(y))"));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval reference_run,
                       reference.TopSegmentsWithReport(*query, 2, 6));
  ASSERT_TRUE(reference_run.report.complete()) << reference_run.report.ToString();
  const std::vector<SegmentHit>& want = reference_run.hits;

  ThreadPool pool(ThreadPool::Options{2, 0});
  QueryOptions options;
  options.parallelism = 2;
  options.thread_pool = &pool;
  Retriever shared(&store, options);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        auto got = shared.TopSegmentsWithReport(*query, 2, 6);
        if (!got.ok() || !got->report.complete() || got->hits.size() != want.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < want.size(); ++i) {
          if (!(got->hits[i].video == want[i].video &&
                got->hits[i].segment == want[i].segment &&
                got->hits[i].sim == want[i].sim)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace htl
