// Fault-injection tests over the Casablanca workload: every fault point
// planted in the library is provably reached by the workload, and arming any
// of them yields a clean Status plus a truthful RetrievalReport — never a
// crash, a hang, or silently wrong top-k results.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "engine/result_cache.h"
#include "engine/retrieval.h"
#include "model/video.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "sql/sql_system.h"
#include "testing/helpers.h"
#include "util/fault_point.h"
#include "workload/casablanca.h"

namespace htl {
namespace {

// A freeze query over the Casablanca annotation (value table of type(z)):
// exercises the direct engine's value-table seam on the same video.
constexpr const char* kFreezeQuery =
    "exists z (type(z) = 'person' and [h <- type(z)] eventually (type(z) = h))";

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisableAll();
    store_.AddVideo(casablanca::MakeVideo());
    store_.AddVideo(casablanca::MakeVideo());  // Second copy: the healthy video.
  }
  void TearDown() override { FaultRegistry::Instance().DisableAll(); }

  // Runs the retrieval side of the workload: Query 1 end-to-end plus the
  // freeze query. A fresh Retriever each run (caches would otherwise mask
  // fault points on repeat runs). Pinned to serial execution: the counted
  // fault specs below (fire_on_hit = 1) trip on the globally first hit,
  // which is only a deterministic video under the serial evaluation order —
  // parallel fault coverage lives in tests/engine/parallel_retrieval_test.
  static QueryOptions SerialOptions() {
    QueryOptions options;
    options.parallelism = 1;
    return options;
  }

  static Result<SegmentRetrieval> RunRetrieval(MetadataStore* store) {
    Retriever r(store, SerialOptions());
    FormulaPtr q = casablanca::Query1Full();
    return r.TopSegmentsWithReport(*q, 2, 8);
  }

  // Serial + result/list caching on: the configuration that reaches the
  // cache.lookup / cache.fill seams.
  static QueryOptions CachedOptions() {
    QueryOptions options;
    options.parallelism = 1;
    options.cache_mode = CacheMode::kReadWrite;
    return options;
  }

  static Result<SegmentRetrieval> RunCached(Retriever& r) {
    FormulaPtr q = casablanca::Query1Full();
    return r.TopSegmentsWithReport(*q, 2, 8);
  }

  static void ExpectSameHits(const SegmentRetrieval& got,
                             const SegmentRetrieval& want) {
    ASSERT_EQ(got.hits.size(), want.hits.size());
    for (size_t i = 0; i < got.hits.size(); ++i) {
      EXPECT_EQ(got.hits[i].video, want.hits[i].video) << i;
      EXPECT_EQ(got.hits[i].segment, want.hits[i].segment) << i;
      EXPECT_EQ(got.hits[i].sim.actual, want.hits[i].sim.actual) << i;
      EXPECT_EQ(got.hits[i].sim.fraction(), want.hits[i].sim.fraction()) << i;
    }
  }

  static Result<SegmentRetrieval> RunFreeze(MetadataStore* store) {
    Retriever r(store, SerialOptions());
    HTL_ASSIGN_OR_RETURN(FormulaPtr f, r.Prepare(kFreezeQuery));
    return r.TopSegmentsWithReport(*f, 2, 8);
  }

  // Runs the SQL-translation side of the workload.
  static Result<SimilarityList> RunSql() {
    FormulaPtr q = casablanca::Query1Named();
    sql::SqlSystem sys;
    return sys.Evaluate(*q, casablanca::NamedInputs(), casablanca::kNumShots);
  }

  MetadataStore store_;
};

TEST_F(FaultInjectionTest, WorkloadReachesEveryKnownFaultPoint) {
  FaultRegistry::Instance().StartTrace();
  ASSERT_OK(RunRetrieval(&store_).status());
  ASSERT_OK(RunFreeze(&store_).status());
  ASSERT_OK(RunSql().status());
  // Twice through one caching retriever: the first run fills, the second
  // probes — together they reach cache.lookup and cache.fill.
  Retriever cached(&store_, CachedOptions());
  ASSERT_OK(RunCached(cached).status());
  ASSERT_OK(RunCached(cached).status());
  // A serial pruned top-1 run: video 1 evaluates and publishes the top-1
  // floor, so video 2's bound is derived — reaching engine.bound_compute.
  {
    QueryOptions options = SerialOptions();
    options.prune = true;
    Retriever r(&store_, options);
    FormulaPtr q = casablanca::Query1Full();
    ASSERT_OK(r.TopSegmentsWithReport(*q, 2, 1).status());
  }
  // One loopback round-trip through the query service reaches the four
  // net.* seams (accept, session, read_frame, write_frame); one admin
  // scrape reaches the three net.admin.* seams on the telemetry listener.
  {
    net::QueryServer server(&store_, net::ServerOptions{});
    ASSERT_OK(server.Start());
    net::ClientOptions copts;
    copts.port = server.port();
    net::QueryRequest request;
    request.kind = net::QueryKind::kHtlSegments;
    request.level = 2;
    request.k = 8;
    request.query_text = "exists x (moving(x))";
    ASSERT_OK_AND_ASSIGN(net::QueryResponse response,
                         net::QueryClient(copts).QueryOnce(request));
    ASSERT_EQ(response.status, net::WireStatus::kWireOk);
    net::ClientOptions aopts;
    aopts.port = server.admin_port();
    ASSERT_OK(net::AdminClient(aopts).Fetch(net::AdminVerb::kHealthz).status());
    ASSERT_OK(server.Shutdown());
  }
  std::map<std::string, int64_t> hits = FaultRegistry::Instance().TraceHits();
  for (std::string_view point : FaultRegistry::KnownPoints()) {
    auto it = hits.find(std::string(point));
    ASSERT_NE(it, hits.end()) << "workload never reached fault point " << point;
    EXPECT_GT(it->second, 0) << point;
  }
}

// The headline degradation property: a fault in one video is isolated — the
// call still returns ranked results over the healthy video, and the report
// names the failed video and the injected error.
TEST_F(FaultInjectionTest, SingleVideoFaultYieldsPartialResultsAndTruthfulReport) {
  for (std::string_view point :
       {std::string_view("picture.query"), std::string_view("engine.table_join")}) {
    SCOPED_TRACE(std::string(point));
    FaultSpec spec;
    spec.fire_on_hit = 1;
    spec.sticky = false;  // Only the very first hit (inside video 1) fires.
    FaultRegistry::Instance().Enable(point, spec);
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval out, RunRetrieval(&store_));
    FaultRegistry::Instance().DisableAll();

    EXPECT_EQ(out.report.videos_failed, 1) << out.report.ToString();
    EXPECT_EQ(out.report.videos_evaluated, 1);
    EXPECT_FALSE(out.report.complete());
    ASSERT_EQ(out.report.failures.size(), 1u);
    EXPECT_EQ(out.report.failures[0].video, 1);
    EXPECT_EQ(out.report.failures[0].status.code(), StatusCode::kInternal);
    EXPECT_NE(out.report.failures[0].status.message().find(point), std::string::npos)
        << "report must name the faulted seam: "
        << out.report.failures[0].status.ToString();

    // The partial result is the healthy video's exact answer (paper Table 4:
    // shots 1-4 lead with actual 12.382).
    ASSERT_GE(out.hits.size(), 1u);
    for (const SegmentHit& h : out.hits) EXPECT_EQ(h.video, 2);
    EXPECT_EQ(out.hits[0].segment, 1);
    EXPECT_NEAR(out.hits[0].sim.actual, 12.382, 1e-9);
  }
}

TEST_F(FaultInjectionTest, ValueTableFaultIsIsolatedPerVideo) {
  FaultSpec spec;
  spec.fire_on_hit = 1;
  spec.sticky = false;
  FaultRegistry::Instance().Enable("engine.value_table", spec);
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval out, RunFreeze(&store_));
  EXPECT_EQ(out.report.videos_failed, 1) << out.report.ToString();
  EXPECT_EQ(out.report.videos_evaluated, 1);
  ASSERT_EQ(out.report.failures.size(), 1u);
  EXPECT_EQ(out.report.failures[0].video, 1);
  for (const SegmentHit& h : out.hits) EXPECT_EQ(h.video, 2);
}

// Every point firing on every hit: the whole store fails, the call still
// returns OK with an empty-but-truthful result (no crash, no hang).
TEST_F(FaultInjectionTest, AllVideosFaultingStillReturnsCleanEmptyResult) {
  for (std::string_view point : FaultRegistry::KnownPoints()) {
    if (point == "sql.scan") continue;  // SQL path asserted separately below.
    SCOPED_TRACE(std::string(point));
    FaultRegistry::Instance().Enable(point, FaultSpec{});
    Result<SegmentRetrieval> retrieval = RunRetrieval(&store_);
    Result<SegmentRetrieval> freeze = RunFreeze(&store_);
    FaultRegistry::Instance().DisableAll();
    for (const Result<SegmentRetrieval>* r : {&retrieval, &freeze}) {
      ASSERT_OK(r->status());
      const SegmentRetrieval& out = r->value();
      // Either the point was on this query's path (both videos failed) or it
      // was not (both evaluated) — the report must never claim otherwise.
      EXPECT_EQ(out.report.videos_failed + out.report.videos_evaluated, 2);
      EXPECT_EQ(out.report.failures.size(),
                static_cast<size_t>(out.report.videos_failed));
      if (out.report.videos_failed == 2) {
        EXPECT_TRUE(out.hits.empty());
      }
    }
  }
}

TEST_F(FaultInjectionTest, SqlScanFaultSurfacesAsCleanStatus) {
  FaultRegistry::Instance().Enable("sql.scan", FaultSpec{});
  Status s = RunSql().status();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("sql.scan"), std::string::npos) << s.ToString();
  // Disarmed again, the same system works and the answer is exact.
  FaultRegistry::Instance().DisableAll();
  ASSERT_OK_AND_ASSIGN(SimilarityList out, RunSql());
  EXPECT_TRUE(out == casablanca::Query1ResultTable());
}

// The all-or-nothing reading of a report: the first injected per-video
// error is the run's FirstFailure(), with that error's code.
TEST_F(FaultInjectionTest, FirstFailureSurfacesInjectedError) {
  FaultSpec spec;
  spec.code = StatusCode::kFailedPrecondition;
  FaultRegistry::Instance().Enable("picture.query", spec);
  Retriever r(&store_);
  FormulaPtr q = casablanca::Query1Full();
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval out, r.TopSegmentsWithReport(*q, 2, 8));
  Status s = out.report.FirstFailure();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
}

// Probabilistic injection at the busiest seam: whatever subset of videos
// fails, the report stays consistent with the hits (no crash, no lie).
TEST_F(FaultInjectionTest, ProbabilisticFaultsKeepReportConsistent) {
  FaultSpec spec;
  spec.probability = 0.3;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FaultRegistry::Instance().Seed(seed);
    FaultRegistry::Instance().Enable("picture.query", spec);
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval out, RunRetrieval(&store_));
    FaultRegistry::Instance().DisableAll();
    EXPECT_EQ(out.report.videos_failed + out.report.videos_evaluated, 2);
    EXPECT_EQ(out.report.failures.size(),
              static_cast<size_t>(out.report.videos_failed));
    for (const SegmentHit& h : out.hits) {
      for (const RetrievalReport::VideoFailure& f : out.report.failures) {
        EXPECT_NE(h.video, f.video) << "hit from a video reported as failed";
      }
    }
  }
}

// A fill fault must degrade to cache-bypass recomputation: every run still
// returns the exact cold answer, reports complete, and nothing is ever
// stored (no poisoned entries to serve later).
TEST_F(FaultInjectionTest, CacheFillFaultDegradesToBypassRecompute) {
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval cold, RunRetrieval(&store_));
  FaultRegistry::Instance().Enable("cache.fill", FaultSpec{});  // Every hit.
  Retriever r(&store_, CachedOptions());
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE(run);
    ASSERT_OK_AND_ASSIGN(SegmentRetrieval out, RunCached(r));
    ExpectSameHits(out, cold);
    EXPECT_TRUE(out.report.complete()) << out.report.ToString();
  }
  FaultRegistry::Instance().DisableAll();
  EXPECT_EQ(r.cache()->entries(), 0) << "a faulted fill stored an entry";
}

// A lookup fault bypasses the cache (even a warm one) and recomputes; the
// answer stays exact either way.
TEST_F(FaultInjectionTest, CacheLookupFaultBypassesButKeepsAnswersExact) {
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval cold, RunRetrieval(&store_));
  Retriever r(&store_, CachedOptions());
  ASSERT_OK(RunCached(r).status());  // Warm the cache while disarmed.
  EXPECT_GT(r.cache()->entries(), 0);
  FaultRegistry::Instance().Enable("cache.lookup", FaultSpec{});
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval out, RunCached(r));
  FaultRegistry::Instance().DisableAll();
  ExpectSameHits(out, cold);
  EXPECT_TRUE(out.report.complete()) << out.report.ToString();
}

// A partial (faulted) evaluation must never be cached: the next healthy run
// through the same retriever recomputes and returns the complete answer —
// the cache cannot launder a degraded result into a complete-looking one.
TEST_F(FaultInjectionTest, PartialResultsAreNeverCached) {
  Retriever r(&store_, CachedOptions());
  FaultSpec spec;
  spec.fire_on_hit = 1;
  spec.sticky = false;  // Only video 1's first hit fires.
  FaultRegistry::Instance().Enable("picture.query", spec);
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval partial, RunCached(r));
  FaultRegistry::Instance().DisableAll();
  EXPECT_EQ(partial.report.videos_failed, 1) << partial.report.ToString();
  EXPECT_EQ(r.cache()->entries(), 0) << "partial result was cached";

  ASSERT_OK_AND_ASSIGN(SegmentRetrieval healed, RunCached(r));
  EXPECT_TRUE(healed.report.complete()) << healed.report.ToString();
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval cold, RunRetrieval(&store_));
  ExpectSameHits(healed, cold);
}

// A faulted bound derivation must degrade to plain unpruned evaluation:
// every video evaluates, nothing is pruned, and the answer equals the
// unpruned run bit for bit.
TEST_F(FaultInjectionTest, BoundComputeFaultFallsBackToUnprunedEvaluation) {
  Retriever plain(&store_, SerialOptions());
  FormulaPtr q = casablanca::Query1Full();
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval cold, plain.TopSegmentsWithReport(*q, 2, 1));
  FaultRegistry::Instance().Enable("engine.bound_compute", FaultSpec{});  // Every hit.
  QueryOptions options = SerialOptions();
  options.prune = true;
  Retriever r(&store_, options);
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval out, r.TopSegmentsWithReport(*q, 2, 1));
  FaultRegistry::Instance().DisableAll();

  EXPECT_TRUE(out.report.complete()) << out.report.ToString();
  EXPECT_EQ(out.report.videos_pruned, 0);
  EXPECT_TRUE(out.report.pruned_videos.empty());
  EXPECT_EQ(out.report.videos_evaluated, 2);
  ExpectSameHits(out, cold);
}

}  // namespace
}  // namespace htl
