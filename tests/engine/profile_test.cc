// EXPLAIN/profile surface tests on the Casablanca workload: the *Profiled
// entry points attach a QueryProfile whose stage spans, per-video spans and
// fault trips truthfully mirror the RetrievalReport, and profiling does not
// change the retrieved results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/exec_context.h"
#include "engine/retrieval.h"
#include "model/video.h"
#include "obs/profile.h"
#include "testing/helpers.h"
#include "util/fault_point.h"
#include "workload/casablanca.h"

namespace htl {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisableAll();
    store_.AddVideo(casablanca::MakeVideo());
    store_.AddVideo(casablanca::MakeVideo());
  }
  void TearDown() override { FaultRegistry::Instance().DisableAll(); }

  static std::vector<const obs::QueryProfile::Node*> VideoSpans(
      const obs::QueryProfile& profile) {
    std::vector<const obs::QueryProfile::Node*> out;
    const obs::QueryProfile::Node* execute = profile.Find("stage.execute");
    if (execute == nullptr) return out;
    for (const obs::QueryProfile::Node& child : execute->children) {
      if (child.name == "video") out.push_back(&child);
      // Parallel runs nest the video spans under per-worker spans, stitched
      // in chunk order — the flattened video order stays ascending.
      if (child.name == "worker") {
        for (const obs::QueryProfile::Node& sub : child.children) {
          if (sub.name == "video") out.push_back(&sub);
        }
      }
    }
    return out;
  }

  MetadataStore store_;
};

TEST_F(ProfileTest, ProfiledRunAttachesStageAndVideoSpans) {
  Retriever r(&store_);
  FormulaPtr q = casablanca::Query1Full();
  auto result = r.TopSegmentsProfiled(*q, 2, 8);
  ASSERT_OK(result.status());
  const obs::QueryProfile& profile = result.value().report.profile;
  ASSERT_FALSE(profile.empty());
  ASSERT_NE(profile.Find("stage.classify"), nullptr);
  ASSERT_NE(profile.Find("stage.execute"), nullptr);
  EXPECT_FALSE(profile.Find("stage.classify")->note.empty());
  // One per-video span per evaluated video, each carrying the video id and
  // the rows the ExecContext charged for it.
  const auto videos = VideoSpans(profile);
  ASSERT_EQ(static_cast<int64_t>(videos.size()),
            result.value().report.videos_evaluated);
  for (size_t i = 0; i < videos.size(); ++i) {
    EXPECT_EQ(videos[i]->unit, static_cast<int64_t>(i) + 1);
    EXPECT_GT(videos[i]->stats.rows, 0);
  }
  // Operator spans from the direct engine appear under the videos.
  EXPECT_NE(profile.Find("op.picture_query"), nullptr);
  // Rendered form mentions the stages.
  const std::string text = profile.ToText();
  EXPECT_NE(text.find("stage.execute"), std::string::npos);
  EXPECT_NE(text.find("video #1"), std::string::npos);
}

TEST_F(ProfileTest, TextOverloadProfilesFrontendStages) {
  Retriever r(&store_);
  auto result = r.TopSegmentsProfiled(
      "exists p (type(p) = 'person' and eventually present(p))", 2, 8);
  ASSERT_OK(result.status());
  const obs::QueryProfile& profile = result.value().report.profile;
  EXPECT_NE(profile.Find("stage.parse"), nullptr);
  EXPECT_NE(profile.Find("stage.bind"), nullptr);
  EXPECT_NE(profile.Find("stage.rewrite"), nullptr);
  EXPECT_NE(profile.Find("stage.classify"), nullptr);
  EXPECT_NE(profile.Find("stage.execute"), nullptr);
}

TEST_F(ProfileTest, ProfilingDoesNotChangeResults) {
  Retriever plain(&store_);
  Retriever profiled(&store_);
  FormulaPtr q = casablanca::Query1Full();
  auto unprofiled = plain.TopSegmentsWithReport(*q, 2, 8);
  auto with_profile = profiled.TopSegmentsProfiled(*q, 2, 8);
  ASSERT_OK(unprofiled.status());
  ASSERT_OK(with_profile.status());
  ASSERT_EQ(unprofiled.value().hits.size(), with_profile.value().hits.size());
  for (size_t i = 0; i < unprofiled.value().hits.size(); ++i) {
    EXPECT_EQ(unprofiled.value().hits[i].video, with_profile.value().hits[i].video);
    EXPECT_EQ(unprofiled.value().hits[i].segment,
              with_profile.value().hits[i].segment);
    EXPECT_EQ(unprofiled.value().hits[i].sim.actual,
              with_profile.value().hits[i].sim.actual);
  }
  EXPECT_EQ(unprofiled.value().report.videos_evaluated,
            with_profile.value().report.videos_evaluated);
}

TEST_F(ProfileTest, FaultedVideoSpansMatchReportFailures) {
  // Arm picture.query to fire on its first hit, sticky over video 1 only:
  // fresh Retriever, so video 1 faults and video 2 evaluates (its engine
  // re-queries and trips again — use non-sticky single fire instead).
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.fire_on_hit = 1;
  spec.sticky = false;
  FaultRegistry::Instance().Enable("picture.query", spec);
  // Counted fault specs trip on the globally first hit, which is only a
  // deterministic video under the serial evaluation order.
  QueryOptions serial;
  serial.parallelism = 1;
  Retriever r(&store_, serial);
  FormulaPtr q = casablanca::Query1Full();
  auto result = r.TopSegmentsProfiled(*q, 2, 8);
  ASSERT_OK(result.status());
  const SegmentRetrieval& retrieval = result.value();
  ASSERT_EQ(retrieval.report.videos_failed, 1);
  ASSERT_EQ(retrieval.report.failures.size(), 1u);
  const obs::QueryProfile& profile = retrieval.report.profile;
  // The fault trip is surfaced by point name...
  ASSERT_FALSE(profile.fault_trips.empty());
  EXPECT_EQ(profile.fault_trips[0].point, "picture.query");
  // ...the report summary names it...
  EXPECT_NE(retrieval.report.ToString().find("fault trip picture.query"),
            std::string::npos);
  // ...and exactly the failed video's span carries a failure note.
  int failed_spans = 0;
  for (const obs::QueryProfile::Node* video : VideoSpans(profile)) {
    if (video->note.find("failed:") != std::string::npos) {
      ++failed_spans;
      EXPECT_EQ(video->unit, retrieval.report.failures[0].video);
      EXPECT_NE(video->note.find("injected fault"), std::string::npos);
    }
  }
  EXPECT_EQ(failed_spans, 1);
}

TEST_F(ProfileTest, CallerContextBudgetsApplyAndTraceIsRestored) {
  ExecContext ctx;
  ctx.mutable_budgets().max_rows = 1;  // Every video blows the row budget.
  obs::QueryTrace sentinel;
  ctx.set_trace(&sentinel);
  Retriever r(&store_);
  FormulaPtr q = casablanca::Query1Full();
  auto result = r.TopSegmentsProfiled(*q, 2, 8, &ctx);
  ASSERT_OK(result.status());
  EXPECT_EQ(result.value().report.videos_evaluated, 0);
  EXPECT_EQ(result.value().report.videos_failed, 2);
  // The caller's trace pointer is restored after the profiled run.
  EXPECT_EQ(ctx.trace(), &sentinel);
  // The per-video spans carry the failure notes.
  for (const obs::QueryProfile::Node* video :
       VideoSpans(result.value().report.profile)) {
    EXPECT_NE(video->note.find("failed:"), std::string::npos);
  }
}

// Whole-video retrieval is the level-1 query: level 1 holds exactly the root.
TEST_F(ProfileTest, LevelOneProfiledAttachesProfile) {
  Retriever r(&store_);
  FormulaPtr q = casablanca::Query1Full();
  auto result = r.TopSegmentsProfiled(*q, 1, 4);
  ASSERT_OK(result.status());
  const obs::QueryProfile& profile = result.value().report.profile;
  ASSERT_NE(profile.Find("stage.execute"), nullptr);
  EXPECT_EQ(static_cast<int64_t>(VideoSpans(profile).size()),
            result.value().report.videos_evaluated);
}

}  // namespace
}  // namespace htl
