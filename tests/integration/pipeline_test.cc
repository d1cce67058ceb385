// Whole-system integration: synthetic footage -> analyzer -> persisted to
// disk -> reloaded -> indexed -> queried through the retrieval façade, with
// the SQL baseline cross-checking the temporal evaluation — every box of
// the paper's figure 1 plus the storage layer, in one flow.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "analyzer/pipeline.h"
#include "engine/direct_engine.h"
#include "engine/retrieval.h"
#include "htl/binder.h"
#include "htl/parser.h"
#include "picture/atomic.h"
#include "picture/picture_system.h"
#include "sql/sql_system.h"
#include "storage/serialization.h"
#include "testing/helpers.h"
#include "util/rng.h"
#include "workload/footage_gen.h"
#include "workload/western.h"

namespace htl {
namespace {

TEST(FullPipelineTest, FootageToRankedResultsThroughDisk) {
  // 1. Analyze raw footage.
  Rng rng(404);
  FootageOptions fopts;
  fopts.num_scenes = 5;
  fopts.min_objects = 2;
  fopts.max_objects = 3;
  Footage footage = GenerateFootage(rng, fopts);
  ASSERT_OK_AND_ASSIGN(VideoTree analyzed, AnalyzeVideo(footage.frames));

  // 2. Persist and reload.
  const std::string path = ::testing::TempDir() + "/htl_pipeline_video.txt";
  ASSERT_OK(SaveVideo(analyzed, path));
  ASSERT_OK_AND_ASSIGN(VideoTree reloaded, LoadVideo(path));
  std::remove(path.c_str());

  // 3. Retrieve through the façade (store of one reloaded video), at its
  // frame level.
  MetadataStore store;
  store.AddVideo(std::move(reloaded));
  Retriever retriever(&store);
  auto q = retriever.Prepare("exists o (present(o) and next present(o))");
  ASSERT_OK(q.status());
  ASSERT_OK_AND_ASSIGN(int frame_level, store.Video(1).LevelByName("frame"));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval top,
                       retriever.TopSegmentsWithReport(*q.value(), frame_level, 5));
  ASSERT_OK(top.report.FirstFailure());
  EXPECT_FALSE(top.hits.empty());

  // 4. Results over the reloaded video match the pre-save evaluation.
  DirectEngine original(&analyzed);
  ASSERT_OK_AND_ASSIGN(SimilarityList want,
                       original.EvaluateList(analyzed.num_levels(), *q.value()));
  DirectEngine roundtripped(&store.Video(1));
  ASSERT_OK_AND_ASSIGN(SimilarityList got,
                       roundtripped.EvaluateList(analyzed.num_levels(), *q.value()));
  EXPECT_EQ(got, want);
}

TEST(FullPipelineTest, PictureTablesThroughSqlMatchDirect) {
  // The western movie's formula (A) pieces extracted by the picture system
  // and evaluated by both the direct list algebra and the SQL baseline.
  VideoTree v = western::MakeVideo();
  PictureSystem pictures(&v);
  struct Piece {
    const char* name;
    const char* text;
  };
  const Piece pieces[] = {
      {"m1", "exists p (type(p) = 'airplane' and on_ground(p))"},
      {"m2", "exists p (type(p) = 'airplane' and in_air(p))"},
      {"m3", "exists p (type(p) = 'airplane' and shot_down(p))"},
  };
  std::map<std::string, SimilarityList> inputs;
  for (const Piece& p : pieces) {
    auto parsed = ParseFormula(p.text);
    ASSERT_OK(parsed.status());
    ASSERT_OK_AND_ASSIGN(AtomicFormula atomic, ExtractAtomic(*parsed.value()));
    ASSERT_OK_AND_ASSIGN(SimilarityList list, pictures.QueryClosed(3, atomic));
    inputs.emplace(p.name, std::move(list));
  }
  auto skeleton = ParseFormula("m1() and next (m2() until m3())");
  ASSERT_OK(skeleton.status());

  ASSERT_OK_AND_ASSIGN(SimilarityList direct,
                       EvaluateWithLists(*skeleton.value(), inputs));
  sql::SqlSystem sys;
  ASSERT_OK_AND_ASSIGN(SimilarityList via_sql,
                       sys.Evaluate(*skeleton.value(), inputs, v.NumSegments(3)));
  EXPECT_EQ(direct, via_sql);

  // And both equal the full end-to-end evaluation of formula (A).
  DirectEngine engine(&v);
  FormulaPtr a = western::FormulaA();
  ASSERT_OK(Bind(a.get()));
  ASSERT_OK_AND_ASSIGN(SimilarityList full, engine.EvaluateList(3, *a));
  EXPECT_EQ(direct, full);
}

TEST(FullPipelineTest, StoreSerializationPreservesRetrievalResults) {
  MetadataStore store;
  store.AddVideo(western::MakeVideo());
  {
    Rng rng(77);
    FootageOptions fopts;
    fopts.num_scenes = 3;
    Footage footage = GenerateFootage(rng, fopts);
    auto analyzed = AnalyzeVideo(footage.frames);
    ASSERT_OK(analyzed.status());
    store.AddVideo(std::move(analyzed).value());
  }
  std::stringstream buf;
  WriteStore(store, buf);
  ASSERT_OK_AND_ASSIGN(MetadataStore reloaded, ReadStore(buf));

  Retriever before(&store);
  Retriever after(&reloaded);
  // Level 3 exists in both videos, and the query scores in both, so the
  // comparison below has hits from each to compare.
  ASSERT_OK_AND_ASSIGN(FormulaPtr query,
                       before.Prepare("eventually exists o (present(o))"));
  const int level = 3;
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval got_before,
                       before.TopSegmentsWithReport(*query, level, 64));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval got_after,
                       after.TopSegmentsWithReport(*query, level, 64));
  ASSERT_OK(got_before.report.FirstFailure());
  ASSERT_OK(got_after.report.FirstFailure());
  const std::vector<SegmentHit>& hits_before = got_before.hits;
  const std::vector<SegmentHit>& hits_after = got_after.hits;
  for (MetadataStore::VideoId v : {1, 2}) {
    EXPECT_TRUE(std::any_of(hits_before.begin(), hits_before.end(),
                            [v](const SegmentHit& hit) { return hit.video == v; }))
        << "video " << v << " has no hit";
  }
  ASSERT_EQ(hits_before.size(), hits_after.size());
  for (size_t i = 0; i < hits_before.size(); ++i) {
    EXPECT_EQ(hits_before[i].video, hits_after[i].video);
    EXPECT_EQ(hits_before[i].segment, hits_after[i].segment);
    EXPECT_EQ(hits_before[i].sim, hits_after[i].sim);
  }
}

}  // namespace
}  // namespace htl
