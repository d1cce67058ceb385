#include "engine/retrieval.h"

#include <gtest/gtest.h>

#include "testing/helpers.h"
#include "workload/casablanca.h"

namespace htl {
namespace {

// Store with two small videos: a western with John Wayne and a war film.
MetadataStore MakeStore() {
  MetadataStore store;
  {
    VideoTree v = VideoTree::Flat(4);
    v.MutableMeta(1, 1).SetAttribute("title", AttrValue("Rio Bravo"));
    v.MutableMeta(1, 1).SetAttribute("type", AttrValue("western"));
    for (SegmentId s = 1; s <= 4; ++s) {
      ObjectAppearance jw;
      jw.id = 11;
      jw.attributes["type"] = AttrValue("person");
      jw.attributes["name"] = AttrValue("JohnWayne");
      v.MutableMeta(2, s).AddObject(std::move(jw));
    }
    v.MutableMeta(2, 3).AddFact({"holds_gun", {11}});
    store.AddVideo(std::move(v));
  }
  {
    VideoTree v = VideoTree::Flat(3);
    v.MutableMeta(1, 1).SetAttribute("title", AttrValue("Desert War"));
    v.MutableMeta(1, 1).SetAttribute("type", AttrValue("war"));
    ObjectAppearance plane;
    plane.id = 21;
    plane.attributes["type"] = AttrValue("airplane");
    v.MutableMeta(2, 2).AddObject(std::move(plane));
    store.AddVideo(std::move(v));
  }
  return store;
}

// Prepare + TopSegmentsWithReport, all or nothing: the first failed video's
// status fails the call.
Result<std::vector<SegmentHit>> Top(Retriever& r, std::string_view text, int level,
                                    int64_t k) {
  HTL_ASSIGN_OR_RETURN(FormulaPtr f, r.Prepare(text));
  HTL_ASSIGN_OR_RETURN(SegmentRetrieval got, r.TopSegmentsWithReport(*f, level, k));
  HTL_RETURN_IF_ERROR(got.report.FirstFailure());
  return std::move(got.hits);
}

// Formula texts key the engines' atomic-table cache and the result cache,
// so literals that differ only past six significant digits must print
// differently: a shared key answers the second query with the first's
// table. Checked with caching off and on.
TEST(RetrieverTest, LiteralsPastSixDigitsDoNotShareCacheEntries) {
  MetadataStore store;
  VideoTree v = VideoTree::Flat(3);
  ObjectAppearance tower;
  tower.id = 31;
  tower.attributes["height"] = AttrValue(1234567.5);
  v.MutableMeta(2, 2).AddObject(std::move(tower));
  store.AddVideo(std::move(v));
  const char* kTexts[] = {"exists x (present(x) and height(x) > 1234567.0)",
                          "exists x (present(x) and height(x) > 1234568.0)"};
  for (CacheMode mode : {CacheMode::kOff, CacheMode::kReadWrite}) {
    QueryOptions options;
    options.cache_mode = mode;
    Retriever shared(&store, options);
    for (const char* text : kTexts) {
      SCOPED_TRACE(StrCat(text, " cache_mode ", static_cast<int>(mode)));
      Retriever fresh(&store);
      ASSERT_OK_AND_ASSIGN(auto want, Top(fresh, text, 2, 10));
      ASSERT_OK_AND_ASSIGN(auto got, Top(shared, text, 2, 10));
      ASSERT_EQ(want.size(), 1u);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(got[0].segment, want[0].segment);
      EXPECT_EQ(got[0].sim, want[0].sim);
    }
  }
}

TEST(RetrieverTest, PrepareParsesAndBinds) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  EXPECT_OK(r.Prepare("exists x (present(x))").status());
  EXPECT_FALSE(r.Prepare("present(x)").ok());     // Unbound.
  EXPECT_FALSE(r.Prepare("present(x").ok());      // Syntax.
}

// A browsing query is a level-1 query: level 1 holds exactly the root, so
// each hit is a whole video (its root segment).
TEST(RetrieverTest, BrowsingQueryAtLevelOne) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(auto hits, Top(r, "type = 'western'", 1, 10));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].video, 1);
  EXPECT_EQ(hits[0].segment, 1);
  EXPECT_EQ(hits[0].sim.fraction(), 1.0);
}

TEST(RetrieverTest, LevelOneRanksVideosByFraction) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  // Two constraints: the western matches both at the root? Only type
  // matches; both videos have titles. Use a query with partial matches.
  ASSERT_OK_AND_ASSIGN(
      auto hits, Top(r, "type = 'western' and title = 'Desert War'", 1, 10));
  ASSERT_EQ(hits.size(), 2u);
  // Both score 1/2; ties break by video id.
  EXPECT_EQ(hits[0].video, 1);
  EXPECT_EQ(hits[1].video, 2);
  EXPECT_EQ(hits[0].segment, 1);
  EXPECT_EQ(hits[1].segment, 1);
}

TEST(RetrieverTest, TopSegmentsAcrossVideos) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(
      auto hits,
      Top(r, "exists p (present(p) @ 1 and holds_gun(p) @ 2)", 2, 3));
  ASSERT_GE(hits.size(), 3u);
  // Best: video 1 segment 3 (gun, 3/3). Then other segments at 1/3.
  EXPECT_EQ(hits[0].video, 1);
  EXPECT_EQ(hits[0].segment, 3);
  EXPECT_DOUBLE_EQ(hits[0].sim.fraction(), 1.0);
}

TEST(RetrieverTest, TopSegmentsHonorsK) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(auto hits, Top(r, "exists p (present(p))", 2, 2));
  EXPECT_EQ(hits.size(), 2u);
}

TEST(RetrieverTest, GeneralClassFallsBackToReference) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  // Negation: only the reference engine handles it.
  ASSERT_OK_AND_ASSIGN(auto hits,
                       Top(r, "not exists p (present(p))", 2, 10));
  // Video 2 segments 1 and 3 have no objects (score 1); video 1 none.
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].video, 2);
}

TEST(RetrieverTest, LevelBeyondVideoDepthYieldsNothing) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(auto hits, Top(r, "true", 5, 10));
  EXPECT_TRUE(hits.empty());
}

TEST(RetrieverTest, LevelBelowOneIsInvalidArgument) {
  // One call-level error, not a per-video failure for every video (level 0)
  // or a silently empty "complete" result (negative levels).
  MetadataStore store = MakeStore();
  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, r.Prepare("true"));
  for (int level : {0, -1}) {
    SCOPED_TRACE(level);
    EXPECT_EQ(r.TopSegmentsWithReport(*f, level, 10).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(RetrieverTest, KBelowOneIsInvalidArgument) {
  // One call-level error before any video is evaluated, not an exception
  // from the final trim (negative k) or a full evaluation of every video
  // that returns nothing (k = 0).
  MetadataStore store = MakeStore();
  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, r.Prepare("true"));
  for (int64_t k : {0, -1}) {
    SCOPED_TRACE(k);
    EXPECT_EQ(r.TopSegmentsWithReport(*f, 2, k).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(RetrieverTest, CasablancaTopShot) {
  MetadataStore store;
  store.AddVideo(casablanca::MakeVideo());
  Retriever r(&store);
  FormulaPtr q = casablanca::Query1Full();
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval got, r.TopSegmentsWithReport(*q, 2, 4));
  ASSERT_OK(got.report.FirstFailure());
  const std::vector<SegmentHit>& hits = got.hits;
  ASSERT_EQ(hits.size(), 4u);
  // Paper Table 4: shots 1-4 score highest (12.382).
  EXPECT_EQ(hits[0].segment, 1);
  EXPECT_EQ(hits[1].segment, 2);
  EXPECT_EQ(hits[2].segment, 3);
  EXPECT_EQ(hits[3].segment, 4);
  EXPECT_NEAR(hits[0].sim.actual, 12.382, 1e-9);
}

}  // namespace
}  // namespace htl
