#include <gtest/gtest.h>

#include "model/segment.h"
#include "model/value.h"
#include "model/video.h"
#include "model/video_builder.h"
#include "model/video_stats.h"
#include "testing/helpers.h"

namespace htl {
namespace {

// ---------------------------------------------------------------------------
// AttrValue

TEST(AttrValueTest, Kinds) {
  EXPECT_TRUE(AttrValue().is_null());
  EXPECT_TRUE(AttrValue(int64_t{3}).is_int());
  EXPECT_TRUE(AttrValue(2.5).is_double());
  EXPECT_TRUE(AttrValue("x").is_string());
  EXPECT_TRUE(AttrValue(int64_t{3}).is_numeric());
  EXPECT_TRUE(AttrValue(2.5).is_numeric());
  EXPECT_FALSE(AttrValue("x").is_numeric());
}

TEST(AttrValueTest, NumericEqualityAcrossKinds) {
  EXPECT_EQ(AttrValue(int64_t{3}), AttrValue(3.0));
  EXPECT_FALSE(AttrValue(int64_t{3}) == AttrValue(3.5));
}

TEST(AttrValueTest, NullEqualsOnlyNull) {
  EXPECT_EQ(AttrValue(), AttrValue());
  EXPECT_FALSE(AttrValue() == AttrValue(int64_t{0}));
}

TEST(AttrValueTest, StringsCompareByContent) {
  EXPECT_EQ(AttrValue("abc"), AttrValue("abc"));
  EXPECT_FALSE(AttrValue("abc") == AttrValue("abd"));
  EXPECT_TRUE(AttrValue("abc").LessThan(AttrValue("abd")));
}

TEST(AttrValueTest, LessThanMixedKindsIsFalse) {
  EXPECT_FALSE(AttrValue("5").LessThan(AttrValue(int64_t{6})));
  EXPECT_FALSE(AttrValue().LessThan(AttrValue(int64_t{6})));
}

TEST(AttrValueTest, ToString) {
  EXPECT_EQ(AttrValue().ToString(), "null");
  EXPECT_EQ(AttrValue(int64_t{5}).ToString(), "5");
  EXPECT_EQ(AttrValue("abc").ToString(), "'abc'");
}

// ---------------------------------------------------------------------------
// SegmentMeta

TEST(SegmentMetaTest, AttributesDefaultNull) {
  SegmentMeta meta;
  EXPECT_TRUE(meta.Attribute("missing").is_null());
  meta.SetAttribute("type", AttrValue("western"));
  EXPECT_EQ(meta.Attribute("type"), AttrValue("western"));
}

TEST(SegmentMetaTest, ObjectsSortedAndMerged) {
  SegmentMeta meta;
  meta.AddObject({5, {{"type", AttrValue("person")}}});
  meta.AddObject({2, {}});
  meta.AddObject({5, {{"height", AttrValue(int64_t{3})}}});  // Merge into id 5.
  ASSERT_EQ(meta.objects().size(), 2u);
  EXPECT_EQ(meta.objects()[0].id, 2);
  EXPECT_EQ(meta.objects()[1].id, 5);
  EXPECT_EQ(meta.objects()[1].Attribute("type"), AttrValue("person"));
  EXPECT_EQ(meta.objects()[1].Attribute("height"), AttrValue(int64_t{3}));
}

TEST(SegmentMetaTest, HasObjectAndFind) {
  SegmentMeta meta;
  meta.AddObject({7, {}});
  EXPECT_TRUE(meta.HasObject(7));
  EXPECT_FALSE(meta.HasObject(8));
  EXPECT_NE(meta.FindObject(7), nullptr);
  EXPECT_EQ(meta.FindObject(8), nullptr);
}

TEST(SegmentMetaTest, FactsDedupAndLookup) {
  SegmentMeta meta;
  meta.AddFact({"fires_at", {1, 2}});
  meta.AddFact({"fires_at", {1, 2}});  // Duplicate.
  meta.AddFact({"fires_at", {2, 1}});
  EXPECT_EQ(meta.facts().size(), 2u);
  EXPECT_TRUE(meta.HasFact({"fires_at", {1, 2}}));
  EXPECT_TRUE(meta.HasFact({"fires_at", {2, 1}}));
  EXPECT_FALSE(meta.HasFact({"fires_at", {1, 3}}));
  EXPECT_FALSE(meta.HasFact({"other", {1, 2}}));
}

TEST(SegmentMetaTest, ObjectAttributeDefaultsNull) {
  ObjectAppearance obj{3, {}};
  EXPECT_TRUE(obj.Attribute("height").is_null());
}

// ---------------------------------------------------------------------------
// VideoTree (flat)

TEST(VideoTreeTest, FlatVideoShape) {
  VideoTree v = VideoTree::Flat(5);
  EXPECT_EQ(v.num_levels(), 2);
  EXPECT_EQ(v.NumSegments(1), 1);
  EXPECT_EQ(v.NumSegments(2), 5);
  EXPECT_EQ(v.Children(1, 1), (Interval{1, 5}));
  EXPECT_EQ(v.Parent(2, 3), 1);
  EXPECT_TRUE(v.Children(2, 3).empty());
}

TEST(VideoTreeTest, FlatZeroChildren) {
  VideoTree v = VideoTree::Flat(0);
  EXPECT_EQ(v.num_levels(), 1);
  EXPECT_TRUE(v.Children(1, 1).empty());
}

TEST(VideoTreeTest, DescendantsAtSameLevelIsSelf) {
  VideoTree v = VideoTree::Flat(5);
  EXPECT_EQ(v.DescendantsAtLevel(2, 3, 2), (Interval{3, 3}));
}

TEST(VideoTreeTest, LevelNames) {
  VideoTree v = VideoTree::Flat(5);
  ASSERT_OK(v.NameLevel("shot", 2));
  ASSERT_OK_AND_ASSIGN(int level, v.LevelByName("shot"));
  EXPECT_EQ(level, 2);
  EXPECT_FALSE(v.LevelByName("scene").ok());
  EXPECT_FALSE(v.NameLevel("bad", 9).ok());
}

TEST(VideoTreeTest, TitleFromRootAttribute) {
  VideoTree v = VideoTree::Flat(1);
  EXPECT_EQ(v.Title(), "");
  v.MutableMeta(1, 1).SetAttribute("title", AttrValue("Casablanca"));
  EXPECT_EQ(v.Title(), "Casablanca");
}

// ---------------------------------------------------------------------------
// VideoBuilder (deep trees)

TEST(VideoBuilderTest, BuildsThreeLevels) {
  VideoBuilder b;
  auto s1 = b.AddChild(b.root());
  auto s2 = b.AddChild(b.root());
  b.AddChildren(s1, 3);
  b.AddChildren(s2, 2);
  ASSERT_OK_AND_ASSIGN(VideoTree v, std::move(b).Build());
  EXPECT_EQ(v.num_levels(), 3);
  EXPECT_EQ(v.NumSegments(2), 2);
  EXPECT_EQ(v.NumSegments(3), 5);
  EXPECT_EQ(v.Children(2, 1), (Interval{1, 3}));
  EXPECT_EQ(v.Children(2, 2), (Interval{4, 5}));
  EXPECT_EQ(v.Parent(3, 4), 2);
  EXPECT_EQ(v.DescendantsAtLevel(1, 1, 3), (Interval{1, 5}));
}

TEST(VideoBuilderTest, MetaSurvivesBuild) {
  VideoBuilder b;
  b.Meta(b.root()).SetAttribute("title", AttrValue("T"));
  auto c = b.AddChild(b.root());
  b.Meta(c).SetAttribute("type", AttrValue("scene"));
  ASSERT_OK_AND_ASSIGN(VideoTree v, std::move(b).Build());
  EXPECT_EQ(v.Meta(1, 1).Attribute("title"), AttrValue("T"));
  EXPECT_EQ(v.Meta(2, 1).Attribute("type"), AttrValue("scene"));
}

TEST(VideoBuilderTest, RejectsUnevenLeafDepth) {
  VideoBuilder b;
  auto s1 = b.AddChild(b.root());
  b.AddChild(b.root());  // Leaf at level 2.
  b.AddChild(s1);        // Leaf at level 3.
  auto result = std::move(b).Build();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(VideoBuilderTest, LevelNamesRegisteredAtBuild) {
  VideoBuilder b;
  auto s = b.AddChild(b.root());
  b.AddChild(s);
  b.NameLevel("scene", 2);
  b.NameLevel("frame", 3);
  ASSERT_OK_AND_ASSIGN(VideoTree v, std::move(b).Build());
  EXPECT_EQ(v.LevelByName("scene").value(), 2);
  EXPECT_EQ(v.LevelByName("frame").value(), 3);
}

TEST(VideoBuilderTest, SiblingOrderPreserved) {
  VideoBuilder b;
  auto a = b.AddChild(b.root());
  auto c = b.AddChild(b.root());
  b.Meta(a).SetAttribute("n", AttrValue(int64_t{1}));
  b.Meta(c).SetAttribute("n", AttrValue(int64_t{2}));
  ASSERT_OK_AND_ASSIGN(VideoTree v, std::move(b).Build());
  EXPECT_EQ(v.Meta(2, 1).Attribute("n"), AttrValue(int64_t{1}));
  EXPECT_EQ(v.Meta(2, 2).Attribute("n"), AttrValue(int64_t{2}));
}

// ---------------------------------------------------------------------------
// MetadataStore

TEST(MetadataStoreTest, AddAndFetchVideos) {
  MetadataStore store;
  EXPECT_EQ(store.num_videos(), 0);
  VideoTree titled = VideoTree::Flat(3);
  titled.MutableMeta(1, 1).SetAttribute("title", AttrValue("A"));
  auto id1 = store.AddVideo(std::move(titled));
  auto id2 = store.AddVideo(VideoTree::Flat(7));
  EXPECT_EQ(id1, 1);
  EXPECT_EQ(id2, 2);
  EXPECT_EQ(store.Video(1).NumSegments(2), 3);
  EXPECT_EQ(store.Video(2).NumSegments(2), 7);
  EXPECT_EQ(store.Video(1).Title(), "A");
}

// Engines and bounds hold references into the store across appends, so an
// append must move no earlier video and no earlier VideoStats.
TEST(MetadataStoreTest, AppendsMoveNoVideoAndNoStats) {
  MetadataStore store;
  VideoTree first = VideoTree::Flat(3);
  first.MutableMeta(2, 2).SetAttribute("type", AttrValue("western"));
  store.AddVideo(std::move(first));
  const VideoTree* video = &store.Video(1);
  const VideoStats* stats = &store.Stats(1);
  for (int i = 0; i < 1000; ++i) store.AddVideo(VideoTree::Flat(1));
  EXPECT_EQ(store.num_videos(), 1001);
  EXPECT_EQ(&store.Video(1), video);
  EXPECT_EQ(&store.Stats(1), stats);
  // Each video's stats summarize that video: only the first has a type.
  EXPECT_EQ(store.Stats(1).Values(2, VideoStats::Scope::kSegment, "type").size(), 1u);
  EXPECT_TRUE(store.Stats(1001).Values(2, VideoStats::Scope::kSegment, "type").empty());
}

}  // namespace
}  // namespace htl
