#include "engine/reference_engine.h"

#include <gtest/gtest.h>

#include "htl/binder.h"
#include "htl/parser.h"
#include "model/video_builder.h"
#include "testing/helpers.h"

namespace htl {
namespace {

using testing::L;
using testing::ListsEqual;

FormulaPtr Parse(std::string_view text) {
  auto r = ParseFormula(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  FormulaPtr f = std::move(r).value();
  Status s = Bind(f.get());
  EXPECT_TRUE(s.ok()) << s.ToString();
  return f;
}

// Six segments: duration 1..6; object 1 (airplane, rising height) in 1-3;
// object 2 (person) in 2-5 with a gun in 4.
VideoTree MakeTestVideo() {
  VideoTree v = VideoTree::Flat(6);
  auto seg = [&](SegmentId s) -> SegmentMeta& { return v.MutableMeta(2, s); };
  for (SegmentId s = 1; s <= 3; ++s) {
    ObjectAppearance plane;
    plane.id = 1;
    plane.attributes["type"] = AttrValue("airplane");
    plane.attributes["height"] = AttrValue(int64_t{s * 10});
    seg(s).AddObject(std::move(plane));
  }
  for (SegmentId s = 2; s <= 5; ++s) {
    ObjectAppearance person;
    person.id = 2;
    person.attributes["type"] = AttrValue("person");
    seg(s).AddObject(std::move(person));
  }
  seg(4).AddFact({"holds_gun", {2}});
  for (SegmentId s = 1; s <= 6; ++s) {
    seg(s).SetAttribute("duration", AttrValue(int64_t{s}));
  }
  return v;
}

TEST(ReferenceEngineTest, ConstantTrueFalse) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  ASSERT_OK_AND_ASSIGN(SimilarityList t, e.EvaluateList(2, *Parse("true")));
  EXPECT_TRUE(ListsEqual(t, L({{1, 6, 1.0}}, 1.0)));
  ASSERT_OK_AND_ASSIGN(SimilarityList f, e.EvaluateList(2, *Parse("false")));
  EXPECT_TRUE(f.empty());
}

TEST(ReferenceEngineTest, AtomicWeightedPartialMatch) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  ASSERT_OK_AND_ASSIGN(
      SimilarityList list,
      e.EvaluateList(2, *Parse("exists p (type(p) = 'person' @ 1 and holds_gun(p) @ 2)")));
  EXPECT_TRUE(ListsEqual(list, L({{2, 3, 1.0}, {4, 4, 3.0}, {5, 5, 1.0}}, 3.0)));
}

TEST(ReferenceEngineTest, AndSums) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  ASSERT_OK_AND_ASSIGN(
      SimilarityList list,
      e.EvaluateList(2, *Parse("duration >= 3 @ 1 and eventually duration >= 6 @ 2")));
  // duration>=3 holds on 3..6 (weight 1); eventually duration>=6 holds
  // everywhere (weight 2 from segment 6 backwards).
  EXPECT_TRUE(ListsEqual(list, L({{1, 2, 2.0}, {3, 6, 3.0}}, 3.0)));
}

TEST(ReferenceEngineTest, NextShifts) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  ASSERT_OK_AND_ASSIGN(SimilarityList list,
                       e.EvaluateList(2, *Parse("next duration >= 6")));
  EXPECT_TRUE(ListsEqual(list, L({{5, 5, 1.0}}, 1.0)));
}

TEST(ReferenceEngineTest, NextAtEndIsZero) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  ASSERT_OK_AND_ASSIGN(SimilarityList list, e.EvaluateList(2, *Parse("next true")));
  EXPECT_TRUE(ListsEqual(list, L({{1, 5, 1.0}}, 1.0)));
}

TEST(ReferenceEngineTest, UntilThresholdSemantics) {
  VideoTree v = MakeTestVideo();
  QueryOptions opts;
  opts.until_threshold = 0.5;
  ReferenceEngine e(&v, opts);
  // g = duration <= 4 (holds 1-4); h = duration = 5.
  ASSERT_OK_AND_ASSIGN(SimilarityList list,
                       e.EvaluateList(2, *Parse("duration <= 4 until duration = 5")));
  EXPECT_TRUE(ListsEqual(list, L({{1, 5, 1.0}}, 1.0)));
}

TEST(ReferenceEngineTest, UntilBrokenChain) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  // g = duration != 3 fails at 3, so ids 1-2 cannot reach h at 5.
  ASSERT_OK_AND_ASSIGN(SimilarityList list,
                       e.EvaluateList(2, *Parse("duration != 3 until duration = 5")));
  EXPECT_TRUE(ListsEqual(list, L({{4, 5, 1.0}}, 1.0)));
}

TEST(ReferenceEngineTest, NotInvertsActual) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  ASSERT_OK_AND_ASSIGN(SimilarityList list,
                       e.EvaluateList(2, *Parse("not duration >= 3 @ 2")));
  EXPECT_TRUE(ListsEqual(list, L({{1, 2, 2.0}}, 2.0)));
}

TEST(ReferenceEngineTest, OrTakesMax) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  ASSERT_OK_AND_ASSIGN(
      SimilarityList list,
      e.EvaluateList(2, *Parse("duration <= 2 @ 3 or duration >= 2 @ 1")));
  EXPECT_TRUE(ListsEqual(list, L({{1, 2, 3.0}, {3, 6, 1.0}}, 3.0)));
}

TEST(ReferenceEngineTest, FreezeComparesAcrossTime) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  // Paper formula (C): airplane higher later.
  ASSERT_OK_AND_ASSIGN(
      SimilarityList list,
      e.EvaluateList(2, *Parse("exists z (type(z) = 'airplane' and "
                               "[h <- height(z)] eventually (height(z) > h @ 1))")));
  // Heights 10,20,30 at 1..3: from segment 1 or 2 a later higher height
  // exists (score 2); from 3 none (score 1: type matches, comparison
  // hard-fails... the freeze body at 3 finds no later higher height).
  EXPECT_TRUE(ListsEqual(list, L({{1, 2, 2.0}, {3, 3, 1.0}}, 2.0)));
}

TEST(ReferenceEngineTest, RootQueryAtLevelOne) {
  VideoTree v = MakeTestVideo();
  v.MutableMeta(1, 1).SetAttribute("type", AttrValue("western"));
  ReferenceEngine e(&v);
  ASSERT_OK_AND_ASSIGN(SimilarityList list,
                       e.EvaluateList(1, *Parse("type = 'western' @ 4")));
  const Sim sim = list.ValueAt(1);
  EXPECT_EQ(sim.actual, 4.0);
  EXPECT_EQ(sim.max, 4.0);
}

TEST(ReferenceEngineTest, LevelOperatorReadsFirstChild) {
  // Three-level video: root -> 2 scenes -> (2, 3) shots.
  VideoBuilder b;
  auto s1 = b.AddChild(b.root());
  auto s2 = b.AddChild(b.root());
  auto sh1 = b.AddChild(s1);
  b.AddChild(s1);
  auto sh3 = b.AddChild(s2);
  b.AddChild(s2);
  b.AddChild(s2);
  b.Meta(sh1).SetAttribute("mark", AttrValue(int64_t{1}));
  b.Meta(sh3).SetAttribute("mark", AttrValue(int64_t{1}));
  b.NameLevel("shot", 3);
  auto built = std::move(b).Build();
  ASSERT_OK(built.status());
  VideoTree v = std::move(built).value();

  ReferenceEngine e(&v);
  // at-next-level(mark = 1) at scene level: true iff the scene's first shot
  // is marked. Both scenes' first shots are marked.
  ASSERT_OK_AND_ASSIGN(SimilarityList list,
                       e.EvaluateList(2, *Parse("at-next-level(mark = 1)")));
  EXPECT_TRUE(ListsEqual(list, L({{1, 2, 1.0}}, 1.0)));

  // From the root, at-shot-level sees the whole shot sequence; its first
  // element is shot 1.
  ASSERT_OK_AND_ASSIGN(SimilarityList root,
                       e.EvaluateList(1, *Parse("at-shot-level(mark = 1)")));
  EXPECT_EQ(root.ValueAt(1).actual, 1.0);
}

TEST(ReferenceEngineTest, AtNextLevelBelowLeavesIsZero) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  ASSERT_OK_AND_ASSIGN(SimilarityList list,
                       e.EvaluateList(2, *Parse("at-next-level(true)")));
  EXPECT_TRUE(list.empty());
}

TEST(ReferenceEngineTest, AbsoluteLevelUpwardRejected) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  EXPECT_FALSE(e.EvaluateList(2, *Parse("at-level-2(true)")).ok());
}

TEST(ReferenceEngineTest, ExistsOverTemporalBody) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  // The binding must stay fixed across time: person (2) present at 2 and
  // still present at 5 — airplane (1) never spans both.
  ASSERT_OK_AND_ASSIGN(
      SimilarityList list,
      e.EvaluateList(
          2, *Parse("exists o (present(o) and eventually (present(o) and duration = 5))")));
  EXPECT_TRUE(ListsEqual(list, L({{1, 1, 2.0}, {2, 5, 3.0}}, 3.0)));
}

TEST(ReferenceEngineTest, OutOfRangeLevel) {
  VideoTree v = MakeTestVideo();
  ReferenceEngine e(&v);
  EXPECT_EQ(e.EvaluateList(5, *Parse("true")).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace htl
