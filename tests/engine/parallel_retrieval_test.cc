// The parallel-execution determinism contract: for every entry point, every
// formula class the paper names, and every failure mode (injected faults,
// blown budgets, reference-engine degradation), a parallel run produces
// *bit-identical* hits and an identical report to the serial run — chunking
// and merge order are implementation detail, never observable output.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/exec_context.h"
#include "engine/retrieval.h"
#include "htl/classifier.h"
#include "model/video.h"
#include "obs/profile.h"
#include "testing/helpers.h"
#include "util/fault_point.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/video_gen.h"

namespace htl {
namespace {

// The four sub-general classes of section 3, as fixed queries over the
// generated-video vocabulary (types/facts from VideoGenOptions' defaults).
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

// Degrades to the reference engine: negation over a free variable is the
// construct the direct engine reports Unimplemented for.
constexpr const char* kDegradingQuery = "exists x (present(x) and not armed(x))";

void ExpectSameSegmentResults(const SegmentRetrieval& serial,
                              const SegmentRetrieval& parallel,
                              const std::string& context,
                              bool compare_failure_messages = true) {
  SCOPED_TRACE(context);
  ASSERT_EQ(serial.hits.size(), parallel.hits.size());
  for (size_t i = 0; i < serial.hits.size(); ++i) {
    EXPECT_EQ(serial.hits[i].video, parallel.hits[i].video) << "hit " << i;
    EXPECT_EQ(serial.hits[i].segment, parallel.hits[i].segment) << "hit " << i;
    // Bit-identical, not near: the parallel run executes the same per-video
    // arithmetic and only reorders the (commutative) merge.
    EXPECT_EQ(serial.hits[i].sim, parallel.hits[i].sim) << "hit " << i;
  }
  EXPECT_EQ(serial.report.videos_evaluated, parallel.report.videos_evaluated);
  EXPECT_EQ(serial.report.videos_failed, parallel.report.videos_failed);
  EXPECT_EQ(serial.report.videos_degraded, parallel.report.videos_degraded);
  ASSERT_EQ(serial.report.failures.size(), parallel.report.failures.size());
  for (size_t i = 0; i < serial.report.failures.size(); ++i) {
    EXPECT_EQ(serial.report.failures[i].video, parallel.report.failures[i].video);
    EXPECT_EQ(serial.report.failures[i].status.code(),
              parallel.report.failures[i].status.code());
    // Injected-fault messages embed the registry's global hit counter,
    // which accumulates across runs — callers comparing faulted runs skip
    // the message text and compare code + video only.
    if (compare_failure_messages) {
      EXPECT_EQ(serial.report.failures[i].status.message(),
                parallel.report.failures[i].status.message());
    }
  }
}

class ParallelRetrievalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisableAll();
    // A heterogeneous randomized corpus: six 3-level videos and three
    // 2-level ones.
    Rng rng(20260806);
    for (int i = 0; i < 9; ++i) {
      VideoGenOptions vopts;
      vopts.levels = i % 3 == 2 ? 2 : 3;
      vopts.min_branching = 2;
      vopts.max_branching = 4;
      store_.AddVideo(GenerateVideo(rng, vopts));
    }
  }
  void TearDown() override { FaultRegistry::Instance().DisableAll(); }

  // One shared 8-thread pool: QueryOptions::parallelism picks the chunk
  // count per run, so pools never need resizing between sweeps.
  Retriever MakeRetriever(int parallelism) {
    QueryOptions options;
    options.parallelism = parallelism;
    options.thread_pool = &pool_;
    return Retriever(&store_, options);
  }

  MetadataStore store_;
  ThreadPool pool_{ThreadPool::Options{8, 0}};
};

TEST_F(ParallelRetrievalTest, AllFormulaClassesMatchSerialBitForBit) {
  for (const ClassedQuery& q : kQueries) {
    Retriever serial = MakeRetriever(1);
    ASSERT_OK_AND_ASSIGN(FormulaPtr f, serial.Prepare(q.text));
    ASSERT_EQ(Classify(*f), q.expected_class) << q.text;
    for (int level : {2, 3}) {
      ASSERT_OK_AND_ASSIGN(SegmentRetrieval want,
                           serial.TopSegmentsWithReport(*f, level, 10));
      for (int workers : {2, 4, 8}) {
        Retriever parallel = MakeRetriever(workers);
        ASSERT_OK_AND_ASSIGN(SegmentRetrieval got,
                             parallel.TopSegmentsWithReport(*f, level, 10));
        ExpectSameSegmentResults(want, got,
                                 std::string(q.text) + " level " +
                                     std::to_string(level) + " workers " +
                                     std::to_string(workers));
      }
    }
  }
}

// Whole-video retrieval is the level-1 query: level 1 holds exactly the root.
TEST_F(ParallelRetrievalTest, LevelOneMatchesSerial) {
  for (const ClassedQuery& q : kQueries) {
    Retriever serial = MakeRetriever(1);
    ASSERT_OK_AND_ASSIGN(FormulaPtr f, serial.Prepare(q.text));
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval want, serial.TopSegmentsWithReport(*f, 1, 5));
    for (int workers : {2, 4, 8}) {
      Retriever parallel = MakeRetriever(workers);
      ASSERT_OK_AND_ASSIGN(SegmentRetrieval got,
                           parallel.TopSegmentsWithReport(*f, 1, 5));
      ExpectSameSegmentResults(want, got,
                               std::string(q.text) + " workers " +
                                   std::to_string(workers));
    }
  }
}

TEST_F(ParallelRetrievalTest, DegradedVideosMatchSerial) {
  // Every video degrades to the reference engine (negation over a free
  // variable); the degradation decision and results must not depend on
  // which worker made them.
  Retriever serial = MakeRetriever(1);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, serial.Prepare(kDegradingQuery));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval want,
                       serial.TopSegmentsWithReport(*f, 2, 10));
  ASSERT_GT(want.report.videos_degraded, 0) << want.report.ToString();
  for (int workers : {2, 4, 8}) {
    Retriever parallel = MakeRetriever(workers);
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval got,
                         parallel.TopSegmentsWithReport(*f, 2, 10));
    ExpectSameSegmentResults(want, got, "workers " + std::to_string(workers));
  }
}

TEST_F(ParallelRetrievalTest, EveryHitFaultProducesIdenticalDegradedRuns) {
  // An every-hit fault spec fires deterministically inside whichever video
  // reaches the seam, independent of evaluation order — exactly the class
  // of injection that is comparable across serial and parallel runs.
  Retriever serial = MakeRetriever(1);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, serial.Prepare(kQueries[1].text));
  FaultRegistry::Instance().Enable("engine.table_join", FaultSpec{});
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval want,
                       serial.TopSegmentsWithReport(*f, 2, 10));
  for (int workers : {2, 4, 8}) {
    Retriever parallel = MakeRetriever(workers);
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval got,
                         parallel.TopSegmentsWithReport(*f, 2, 10));
    ExpectSameSegmentResults(want, got, "workers " + std::to_string(workers),
                             /*compare_failure_messages=*/false);
  }
  FaultRegistry::Instance().DisableAll();
}

TEST_F(ParallelRetrievalTest, BudgetPartialTopKMatchesSerial) {
  // A tight per-video row budget fails the expensive videos and passes the
  // small ones — per-video state, so the partial top-k is deterministic and
  // must agree across worker counts.
  Retriever serial = MakeRetriever(1);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, serial.Prepare(kQueries[0].text));
  // Probe each video's row cost on a throwaway retriever (engine caches
  // change the charge sequence, so the probe must not warm the retrievers
  // under test) and budget at the median: the expensive videos blow the
  // budget and the cheap ones pass — per-video state either way, hence
  // deterministic under any worker count.
  std::vector<int64_t> rows;
  {
    Retriever prober = MakeRetriever(1);
    for (MetadataStore::VideoId v = 1; v <= store_.num_videos(); ++v) {
      ExecContext probe;
      probe.BeginUnit();
      ASSERT_OK(prober.EvaluateList(v, 2, *f, &probe).status());
      rows.push_back(probe.rows_used());
    }
  }
  std::sort(rows.begin(), rows.end());
  const int64_t budget = std::max<int64_t>(1, rows[rows.size() / 2]);
  const auto run = [&f, budget](Retriever& r) {
    ExecContext ctx;
    ctx.mutable_budgets().max_rows = budget;
    return r.TopSegmentsWithReport(*f, 2, 10, &ctx);
  };
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval want, run(serial));
  ASSERT_GT(want.report.videos_failed, 0)
      << "budget chosen to fail at least one video; " << want.report.ToString();
  ASSERT_GT(want.report.videos_evaluated, 0)
      << "budget chosen to pass at least one video; " << want.report.ToString();
  for (int workers : {2, 4, 8}) {
    Retriever parallel = MakeRetriever(workers);
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval got, run(parallel));
    ExpectSameSegmentResults(want, got, "workers " + std::to_string(workers));
  }
}

TEST_F(ParallelRetrievalTest, ProfiledRunsMatchAndStitchWorkerSpans) {
  Retriever serial = MakeRetriever(1);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, serial.Prepare(kQueries[2].text));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval want, serial.TopSegmentsProfiled(*f, 2, 10));
  for (int workers : {2, 4, 8}) {
    Retriever parallel = MakeRetriever(workers);
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval got,
                         parallel.TopSegmentsProfiled(*f, 2, 10));
    // The retrieved results and report counters agree (the profile itself
    // differs structurally: that is the point of the worker grouping).
    ASSERT_EQ(want.hits.size(), got.hits.size());
    for (size_t i = 0; i < want.hits.size(); ++i) {
      EXPECT_EQ(want.hits[i].video, got.hits[i].video);
      EXPECT_EQ(want.hits[i].segment, got.hits[i].segment);
      EXPECT_EQ(want.hits[i].sim, got.hits[i].sim);
    }
    EXPECT_EQ(want.report.videos_evaluated, got.report.videos_evaluated);

    // Worker spans sit under stage.execute, in chunk order, and the video
    // spans beneath them cover every video exactly once, ascending.
    const obs::QueryProfile::Node* execute = got.report.profile.Find("stage.execute");
    ASSERT_NE(execute, nullptr);
    std::vector<int64_t> video_units;
    int worker_spans = 0;
    for (const obs::QueryProfile::Node& child : execute->children) {
      if (child.name != "worker") continue;
      EXPECT_EQ(child.unit, worker_spans) << "worker spans stitched in chunk order";
      ++worker_spans;
      for (const obs::QueryProfile::Node& sub : child.children) {
        if (sub.name == "video") video_units.push_back(sub.unit);
      }
    }
    EXPECT_EQ(worker_spans, workers <= 9 ? workers : 9);
    ASSERT_EQ(video_units.size(), 9u);
    for (size_t i = 0; i < video_units.size(); ++i) {
      EXPECT_EQ(video_units[i], static_cast<int64_t>(i) + 1);
    }
  }
}

TEST_F(ParallelRetrievalTest, PreCancelledContextAbortsParallelRun) {
  Retriever parallel = MakeRetriever(4);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, parallel.Prepare(kQueries[0].text));
  ExecContext ctx;
  ctx.Cancel();
  // Worker children observe a parent cancel set before they were spawned.
  Status s = parallel.TopSegmentsWithReport(*f, 2, 10, &ctx).status();
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s.ToString();
}

TEST_F(ParallelRetrievalTest, ExpiredDeadlineAbortsParallelRunWithRootCause) {
  Retriever parallel = MakeRetriever(4);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, parallel.Prepare(kQueries[0].text));
  ExecContext ctx;
  ctx.SetTimeout(std::chrono::milliseconds(0));
  // The fan-out cancels the sibling workers, but the reported status must
  // stay the root cause (DeadlineExceeded), not the induced Cancelled.
  Status s = parallel.TopSegmentsWithReport(*f, 2, 10, &ctx).status();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
}

}  // namespace
}  // namespace htl
