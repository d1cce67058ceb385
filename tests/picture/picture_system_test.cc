#include "picture/picture_system.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "htl/binder.h"
#include "htl/parser.h"
#include "model/video_stats.h"
#include "testing/helpers.h"
#include "workload/casablanca.h"

namespace htl {
namespace {

using testing::L;
using testing::ListsEqual;
using testing::ListsNear;

AtomicFormula Atomic(std::string_view text) {
  auto parsed = ParseFormula(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto atomic = ExtractAtomic(*parsed.value());
  EXPECT_TRUE(atomic.ok()) << atomic.status().ToString();
  return std::move(atomic).value();
}

// A small 6-segment video with airplanes and people.
VideoTree MakeTestVideo() {
  VideoTree v = VideoTree::Flat(6);
  auto seg = [&](SegmentId s) -> SegmentMeta& { return v.MutableMeta(2, s); };
  // Object 1: airplane with rising height in segments 1-3.
  for (SegmentId s = 1; s <= 3; ++s) {
    ObjectAppearance plane;
    plane.id = 1;
    plane.attributes["type"] = AttrValue("airplane");
    plane.attributes["height"] = AttrValue(int64_t{s * 10});
    seg(s).AddObject(std::move(plane));
  }
  // Object 2: person in segments 2-5, holds a gun in 4.
  for (SegmentId s = 2; s <= 5; ++s) {
    ObjectAppearance person;
    person.id = 2;
    person.attributes["type"] = AttrValue("person");
    seg(s).AddObject(std::move(person));
  }
  seg(4).AddFact({"holds_gun", {2}});
  // Segment attribute on all segments.
  for (SegmentId s = 1; s <= 6; ++s) {
    seg(s).SetAttribute("duration", AttrValue(int64_t{s}));
  }
  return v;
}

TEST(PictureSystemTest, ClosedTypeQuery) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  ASSERT_OK_AND_ASSIGN(
      SimilarityList list,
      ps.QueryClosed(2, Atomic("exists a (type(a) = 'airplane' @ 2)")));
  EXPECT_TRUE(ListsEqual(list, L({{1, 3, 2.0}}, 2.0)));
}

TEST(PictureSystemTest, PartialMatchScoresSatisfiedSubset) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  // Person present @1 + holds gun @2: segments 2,3,5 score 1; segment 4
  // scores 3.
  ASSERT_OK_AND_ASSIGN(
      SimilarityList list,
      ps.QueryClosed(2,
                     Atomic("exists p (type(p) = 'person' @ 1 and holds_gun(p) @ 2)")));
  EXPECT_TRUE(ListsEqual(list, L({{2, 3, 1.0}, {4, 4, 3.0}, {5, 5, 1.0}}, 3.0)));
}

TEST(PictureSystemTest, FreeVariableTableHasRowPerBinding) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  ASSERT_OK_AND_ASSIGN(SimilarityTable t, ps.Query(2, Atomic("present(q) @ 1")));
  ASSERT_EQ(t.object_vars(), std::vector<std::string>{"q"});
  // Rows: q=1 -> [1,3], q=2 -> [2,5]. No wildcard row (a present(q)
  // constraint can never hold for an absent binding).
  ASSERT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.rows()[0].objects[0], 1);
  EXPECT_TRUE(ListsEqual(t.rows()[0].list, L({{1, 3, 1.0}}, 1.0)));
  EXPECT_EQ(t.rows()[1].objects[0], 2);
  EXPECT_TRUE(ListsEqual(t.rows()[1].list, L({{2, 5, 1.0}}, 1.0)));
}

TEST(PictureSystemTest, SegmentAttributeQueryScansAllSegments) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  ASSERT_OK_AND_ASSIGN(SimilarityList list, ps.QueryClosed(2, Atomic("duration >= 5")));
  EXPECT_TRUE(ListsEqual(list, L({{5, 6, 1.0}}, 1.0)));
}

TEST(PictureSystemTest, MixedVarFreeAndVarConstraints) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  // duration >= 3 (var-free) + person present: partial matches everywhere.
  ASSERT_OK_AND_ASSIGN(
      SimilarityList list,
      ps.QueryClosed(2, Atomic("exists p (duration >= 3 @ 1 and type(p) = 'person' @ 2)")));
  EXPECT_TRUE(ListsEqual(
      list, L({{2, 2, 2.0}, {3, 5, 3.0}, {6, 6, 1.0}}, 3.0)));
}

TEST(PictureSystemTest, AttrVarRangesProduceRows) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  // height(a) > h: per segment, one row keyed by h-range (-inf, height@s).
  AtomicFormula atomic;
  {
    auto parsed = ParseFormula("exists a (type(a) = 'airplane' @ 1)");
    ASSERT_OK(parsed.status());
  }
  // Build by hand: type(a)='airplane' @1 and height(a) > h @2, a free.
  Constraint type_c;
  type_c.kind = Constraint::Kind::kCompare;
  type_c.lhs = AttrTerm::AttrOf("type", "a");
  type_c.op = CompareOp::kEq;
  type_c.rhs = AttrTerm::Literal(AttrValue("airplane"));
  type_c.weight = 1.0;
  Constraint h_c;
  h_c.kind = Constraint::Kind::kCompare;
  h_c.lhs = AttrTerm::AttrOf("height", "a");
  h_c.op = CompareOp::kGt;
  h_c.rhs = AttrTerm::Variable("h");
  h_c.weight = 2.0;
  atomic.constraints = {type_c, h_c};

  ASSERT_OK_AND_ASSIGN(SimilarityTable t, ps.Query(2, atomic));
  EXPECT_EQ(t.attr_vars(), std::vector<std::string>{"h"});
  // Three rows for a=1 with ranges (-inf,10), (-inf,20), (-inf,30).
  int rows_for_plane = 0;
  for (const auto& row : t.rows()) {
    if (row.objects[0] == 1) {
      ++rows_for_plane;
      EXPECT_EQ(row.list.max(), 3.0);
    }
  }
  EXPECT_EQ(rows_for_plane, 3);
}

TEST(PictureSystemTest, HardAttrVarConstraintGatesWholeAtomic) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  // For segments where the airplane is absent, height(a) is null: the
  // attribute-variable constraint is unsatisfiable there, so even the type
  // constraint's weight is not awarded (hard-gating).
  Constraint h_c;
  h_c.kind = Constraint::Kind::kCompare;
  h_c.lhs = AttrTerm::AttrOf("height", "a");
  h_c.op = CompareOp::kGt;
  h_c.rhs = AttrTerm::Variable("h");
  Constraint dur_c;
  dur_c.kind = Constraint::Kind::kCompare;
  dur_c.lhs = AttrTerm::SegmentAttr("duration");
  dur_c.op = CompareOp::kGe;
  dur_c.rhs = AttrTerm::Literal(AttrValue(int64_t{1}));
  AtomicFormula atomic;
  atomic.constraints = {dur_c, h_c};
  ASSERT_OK_AND_ASSIGN(SimilarityTable t, ps.Query(2, atomic));
  for (const auto& row : t.rows()) {
    if (row.objects[0] == 1) {
      // Only segments 1-3 (where the plane exists) may appear.
      EXPECT_EQ(row.list.ActualAt(4), 0.0);
      EXPECT_EQ(row.list.ActualAt(5), 0.0);
      EXPECT_EQ(row.list.ActualAt(6), 0.0);
    }
  }
}

TEST(PictureSystemTest, BindingExplosionGuard) {
  VideoTree v = MakeTestVideo();
  PictureOptions opts;
  opts.max_bindings = 2;
  PictureSystem ps(&v, opts);
  auto r = ps.Query(2, Atomic("exists a, b (present(a) and present(b))"));
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// A predicate's candidates come only from facts of its own arity: object 1
// occurs only in near/2, so it is no candidate for near(x), and object 3 and
// the wildcard make two bindings.
TEST(PictureSystemTest, PredicateCandidatesComeFromFactsOfItsArity) {
  VideoTree v = VideoTree::Flat(2);
  const auto add_object = [&v](SegmentId s, ObjectId id) {
    ObjectAppearance obj;
    obj.id = id;
    v.MutableMeta(2, s).AddObject(std::move(obj));
  };
  add_object(1, 3);
  v.MutableMeta(2, 1).AddFact({"near", {3}});
  add_object(2, 1);
  add_object(2, 2);
  v.MutableMeta(2, 2).AddFact({"near", {1, 2}});
  PictureOptions opts;
  opts.max_bindings = 2;
  PictureSystem ps(&v, opts);
  ASSERT_OK_AND_ASSIGN(SimilarityList list, ps.QueryClosed(2, Atomic("exists x (near(x))")));
  EXPECT_TRUE(ListsEqual(list, L({{1, 1, 1.0}}, 1.0)));
}

TEST(PictureSystemTest, QueryClosedRejectsFreeVariables) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  EXPECT_FALSE(ps.QueryClosed(2, Atomic("present(q)")).ok());
}

TEST(PictureSystemTest, LevelOutOfRange) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  EXPECT_EQ(ps.Query(7, Atomic("present(q)")).status().code(), StatusCode::kOutOfRange);
}

TEST(PictureSystemTest, ValueTableForObjectAttribute) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  ASSERT_OK_AND_ASSIGN(ValueTable vt, ps.Values(2, AttrTerm::AttrOf("height", "a")));
  EXPECT_EQ(vt.object_vars(), std::vector<std::string>{"a"});
  // Object 1 has three distinct heights, one row each.
  EXPECT_EQ(vt.num_rows(), 3);
  for (const auto& row : vt.rows()) {
    EXPECT_EQ(row.objects[0], 1);
    ASSERT_EQ(row.where.size(), 1u);
  }
}

TEST(PictureSystemTest, ValueTableForSegmentAttribute) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  ASSERT_OK_AND_ASSIGN(ValueTable vt, ps.Values(2, AttrTerm::SegmentAttr("duration")));
  EXPECT_TRUE(vt.object_vars().empty());
  EXPECT_EQ(vt.num_rows(), 6);  // Six distinct duration values.
}

TEST(PictureSystemTest, ValueTableGroupsEqualRuns) {
  VideoTree v = VideoTree::Flat(4);
  for (SegmentId s = 1; s <= 4; ++s) {
    v.MutableMeta(2, s).SetAttribute("d", AttrValue(int64_t{s <= 2 ? 7 : 9}));
  }
  PictureSystem ps(&v);
  ASSERT_OK_AND_ASSIGN(ValueTable vt, ps.Values(2, AttrTerm::SegmentAttr("d")));
  ASSERT_EQ(vt.num_rows(), 2);
  EXPECT_EQ(vt.rows()[0].where[0], (Interval{1, 2}));
  EXPECT_EQ(vt.rows()[1].where[0], (Interval{3, 4}));
}

TEST(PictureSystemTest, ValuesRejectsLiteralTerm) {
  VideoTree v = MakeTestVideo();
  PictureSystem ps(&v);
  EXPECT_FALSE(ps.Values(2, AttrTerm::Literal(AttrValue(int64_t{5}))).ok());
}

// ---------------------------------------------------------------------------
// The Casablanca atomic queries reproduce the paper's Tables 1 and 2.

TEST(PictureSystemTest, CasablancaTable1MovingTrain) {
  VideoTree v = casablanca::MakeVideo();
  PictureSystem ps(&v);
  FormulaPtr atomic_f = casablanca::MovingTrainAtomic();
  ASSERT_OK_AND_ASSIGN(AtomicFormula atomic, ExtractAtomic(*atomic_f));
  ASSERT_OK_AND_ASSIGN(SimilarityList list, ps.QueryClosed(2, atomic));
  EXPECT_TRUE(ListsNear(list, casablanca::MovingTrainTable()));
}

TEST(PictureSystemTest, CasablancaTable2ManWoman) {
  VideoTree v = casablanca::MakeVideo();
  PictureSystem ps(&v);
  FormulaPtr atomic_f = casablanca::ManWomanAtomic();
  ASSERT_OK_AND_ASSIGN(AtomicFormula atomic, ExtractAtomic(*atomic_f));
  ASSERT_OK_AND_ASSIGN(SimilarityList list, ps.QueryClosed(2, atomic));
  EXPECT_TRUE(ListsNear(list, casablanca::ManWomanTable()));
}

// ---------------------------------------------------------------------------
// The per-level index the picture system reads: the video's VideoStats.

template <typename T>
std::vector<T> Ids(std::span<const T> ids) {
  return std::vector<T>(ids.begin(), ids.end());
}

TEST(LevelIndexTest, PostingsAndLookups) {
  VideoTree v = MakeTestVideo();
  const VideoStats index = VideoStats::Build(v);
  EXPECT_EQ(Ids(index.Objects(2)), (std::vector<ObjectId>{1, 2}));
  EXPECT_EQ(Ids(index.Posting(2, 1)), (std::vector<SegmentId>{1, 2, 3}));
  EXPECT_EQ(Ids(index.Posting(2, 2)), (std::vector<SegmentId>{2, 3, 4, 5}));
  EXPECT_TRUE(index.Posting(2, 99).empty());
}

TEST(LevelIndexTest, AttrValueIndex) {
  VideoTree v = MakeTestVideo();
  const VideoStats index = VideoStats::Build(v);
  EXPECT_EQ(Ids(index.ObjectsWithAttrValue(2, "type", AttrValue("airplane"))),
            std::vector<ObjectId>{1});
  EXPECT_EQ(Ids(index.ObjectsWithAttrValue(2, "type", AttrValue("person"))),
            std::vector<ObjectId>{2});
  EXPECT_TRUE(index.ObjectsWithAttrValue(2, "type", AttrValue("horse")).empty());
}

TEST(LevelIndexTest, FactPositionIndex) {
  VideoTree v = MakeTestVideo();
  const VideoStats index = VideoStats::Build(v);
  EXPECT_EQ(Ids(index.ObjectsInFactPosition(2, "holds_gun", 1, 0)),
            std::vector<ObjectId>{2});
  EXPECT_TRUE(index.ObjectsInFactPosition(2, "holds_gun", 1, 1).empty());
  EXPECT_TRUE(index.ObjectsInFactPosition(2, "nope", 1, 0).empty());
}

// Values match by AttrValue::operator==, not by their text: 0, 0.0 and
// -0.0 are one value, and NaN equals nothing.
TEST(LevelIndexTest, ValuesMatchByEquality) {
  VideoTree v = VideoTree::Flat(3);
  const AttrValue heights[] = {AttrValue(-0.0), AttrValue(int64_t{0}),
                               AttrValue(std::nan(""))};
  for (SegmentId s = 1; s <= 3; ++s) {
    ObjectAppearance obj;
    obj.id = s;
    obj.attributes["height"] = heights[s - 1];
    v.MutableMeta(2, s).AddObject(std::move(obj));
  }
  const VideoStats index = VideoStats::Build(v);
  EXPECT_EQ(Ids(index.ObjectsWithAttrValue(2, "height", AttrValue(0.0))),
            (std::vector<ObjectId>{1, 2}));
  EXPECT_TRUE(index.ObjectsWithAttrValue(2, "height", AttrValue(std::nan(""))).empty());
  // One zero and one NaN: the zeros collapse to one value.
  EXPECT_EQ(index.Values(2, VideoStats::Scope::kObject, "height").size(), 2u);
}

// Facts of one name and several arities are kept apart: the position
// lookup and HasFact both take the arity, nullary included.
TEST(LevelIndexTest, FactArities) {
  VideoTree v = VideoTree::Flat(2);
  v.MutableMeta(2, 1).AddFact({"near", {3}});
  v.MutableMeta(2, 2).AddFact({"near", {1, 2}});
  v.MutableMeta(2, 2).AddFact({"dusk", {}});
  const VideoStats index = VideoStats::Build(v);
  EXPECT_EQ(Ids(index.ObjectsInFactPosition(2, "near", 1, 0)), std::vector<ObjectId>{3});
  EXPECT_EQ(Ids(index.ObjectsInFactPosition(2, "near", 2, 0)), std::vector<ObjectId>{1});
  EXPECT_EQ(Ids(index.ObjectsInFactPosition(2, "near", 2, 1)), std::vector<ObjectId>{2});
  EXPECT_TRUE(index.ObjectsInFactPosition(2, "near", 1, 1).empty());
  EXPECT_TRUE(index.ObjectsInFactPosition(2, "dusk", 0, 0).empty());
  EXPECT_TRUE(index.HasFact(2, "near", 1));
  EXPECT_TRUE(index.HasFact(2, "near", 2));
  EXPECT_FALSE(index.HasFact(2, "near", 3));
  EXPECT_TRUE(index.HasFact(2, "dusk", 0));
  EXPECT_FALSE(index.HasFact(2, "dusk", 1));
  EXPECT_FALSE(index.HasFact(1, "near", 1));
}

}  // namespace
}  // namespace htl
