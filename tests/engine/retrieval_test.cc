#include "engine/retrieval.h"

#include <gtest/gtest.h>

#include "model/video_builder.h"
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

TEST(RetrieverTest, PrepareParsesAndBinds) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  EXPECT_OK(r.Prepare("exists x (present(x))").status());
  EXPECT_FALSE(r.Prepare("present(x)").ok());     // Unbound.
  EXPECT_FALSE(r.Prepare("present(x").ok());      // Syntax.
}

TEST(RetrieverTest, TopVideosBrowsingQuery) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(auto hits, r.TopVideos("type = 'western'", 10));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].video, 1);
  EXPECT_EQ(hits[0].sim.fraction(), 1.0);
}

TEST(RetrieverTest, TopVideosRanksByFraction) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  // Two constraints: the western matches both at the root? Only type
  // matches; both videos have titles. Use a query with partial matches.
  ASSERT_OK_AND_ASSIGN(auto hits,
                       r.TopVideos("type = 'western' and title = 'Desert War'", 10));
  ASSERT_EQ(hits.size(), 2u);
  // Both score 1/2; ties break by video id.
  EXPECT_EQ(hits[0].video, 1);
  EXPECT_EQ(hits[1].video, 2);
}

TEST(RetrieverTest, TopSegmentsAcrossVideos) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(
      auto hits,
      r.TopSegments("exists p (present(p) @ 1 and holds_gun(p) @ 2)", 2, 3));
  ASSERT_GE(hits.size(), 3u);
  // Best: video 1 segment 3 (gun, 3/3). Then other segments at 1/3.
  EXPECT_EQ(hits[0].video, 1);
  EXPECT_EQ(hits[0].segment, 3);
  EXPECT_DOUBLE_EQ(hits[0].sim.fraction(), 1.0);
}

TEST(RetrieverTest, TopSegmentsHonorsK) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(auto hits, r.TopSegments("exists p (present(p))", 2, 2));
  EXPECT_EQ(hits.size(), 2u);
}

TEST(RetrieverTest, GeneralClassFallsBackToReference) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  // Negation: only the reference engine handles it.
  ASSERT_OK_AND_ASSIGN(auto hits,
                       r.TopSegments("not exists p (present(p))", 2, 10));
  // Video 2 segments 1 and 3 have no objects (score 1); video 1 none.
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].video, 2);
}

TEST(RetrieverTest, LevelBeyondVideoDepthYieldsNothing) {
  MetadataStore store = MakeStore();
  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(auto hits, r.TopSegments("true", 5, 10));
  EXPECT_TRUE(hits.empty());
}

TEST(RetrieverTest, LevelBelowOneIsInvalidArgument) {
  // One call-level error, not a per-video failure for every video (level 0)
  // or a silently empty "complete" result (negative levels).
  MetadataStore store = MakeStore();
  Retriever r(&store);
  for (int level : {0, -1}) {
    SCOPED_TRACE(level);
    EXPECT_EQ(r.TopSegmentsWithReport("true", level, 10).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(r.TopSegments("true", level, 10).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(RetrieverTest, CasablancaTopShot) {
  MetadataStore store;
  store.AddVideo(casablanca::MakeVideo());
  Retriever r(&store);
  FormulaPtr q = casablanca::Query1Full();
  ASSERT_OK_AND_ASSIGN(auto hits, r.TopSegments(*q, 2, 4));
  ASSERT_EQ(hits.size(), 4u);
  // Paper Table 4: shots 1-4 score highest (12.382).
  EXPECT_EQ(hits[0].segment, 1);
  EXPECT_EQ(hits[1].segment, 2);
  EXPECT_EQ(hits[2].segment, 3);
  EXPECT_EQ(hits[3].segment, 4);
  EXPECT_NEAR(hits[0].sim.actual, 12.382, 1e-9);
}


TEST(RetrieverTest, NamedLevelRetrievalSkipsUnnamedVideos) {
  MetadataStore store;
  VideoTree named = VideoTree::Flat(3);
  named.MutableMeta(2, 2).SetAttribute("d", AttrValue(int64_t{1}));
  ASSERT_OK(named.NameLevel("shot", 2));
  store.AddVideo(std::move(named));
  VideoTree unnamed = VideoTree::Flat(3);
  unnamed.MutableMeta(2, 1).SetAttribute("d", AttrValue(int64_t{1}));
  store.AddVideo(std::move(unnamed));  // No "shot" level registered.

  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(auto hits, r.TopSegmentsAtNamedLevel("d = 1", "shot", 10));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].video, 1);
  EXPECT_EQ(hits[0].segment, 2);
}

TEST(RetrieverTest, NamedLevelMixesHeterogeneousDepths) {
  MetadataStore store;
  {
    VideoTree v = VideoTree::Flat(2);  // "shot" is level 2 here.
    v.MutableMeta(2, 1).SetAttribute("d", AttrValue(int64_t{1}));
    ASSERT_OK(v.NameLevel("shot", 2));
    store.AddVideo(std::move(v));
  }
  {
    // Three-level video where "shot" is level 3.
    VideoBuilder b;
    auto scene = b.AddChild(b.root());
    auto shot = b.AddChild(scene);
    b.Meta(shot).SetAttribute("d", AttrValue(int64_t{1}));
    b.NameLevel("shot", 3);
    auto built = std::move(b).Build();
    ASSERT_OK(built.status());
    store.AddVideo(std::move(built).value());
  }
  Retriever r(&store);
  ASSERT_OK_AND_ASSIGN(auto hits, r.TopSegmentsAtNamedLevel("d = 1", "shot", 10));
  EXPECT_EQ(hits.size(), 2u);
}

}  // namespace
}  // namespace htl
