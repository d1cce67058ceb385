#include "engine/direct_engine.h"

#include <gtest/gtest.h>

#include "engine/reference_engine.h"
#include "htl/binder.h"
#include "htl/parser.h"
#include "model/video_builder.h"
#include "obs/metrics.h"
#include "testing/helpers.h"
#include "workload/casablanca.h"

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

// Checks the direct engine against the reference engine for one query.
void ExpectAgreesWithReference(const VideoTree& v, std::string_view query) {
  FormulaPtr f = Parse(query);
  DirectEngine direct(const_cast<VideoTree*>(&v));
  ReferenceEngine reference(const_cast<VideoTree*>(&v));
  auto got = direct.EvaluateList(2, *f);
  auto want = reference.EvaluateList(2, *f);
  ASSERT_TRUE(got.ok()) << got.status().ToString() << " for " << query;
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(ListsEqual(got.value(), want.value())) << "query: " << query;
}

TEST(DirectEngineTest, ConstantsAndAtomics) {
  VideoTree v = MakeTestVideo();
  DirectEngine e(&v);
  ASSERT_OK_AND_ASSIGN(SimilarityList t, e.EvaluateList(2, *Parse("true")));
  EXPECT_TRUE(ListsEqual(t, L({{1, 6, 1.0}}, 1.0)));
  ASSERT_OK_AND_ASSIGN(SimilarityList f, e.EvaluateList(2, *Parse("false")));
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.max(), 1.0);
}

TEST(DirectEngineTest, PaperQueryShapesAgreeWithReference) {
  VideoTree v = MakeTestVideo();
  ExpectAgreesWithReference(v, "duration >= 3");
  ExpectAgreesWithReference(v, "exists p (type(p) = 'person' @ 1 and holds_gun(p) @ 2)");
  ExpectAgreesWithReference(v, "duration >= 3 @ 1 and eventually duration >= 6 @ 2");
  ExpectAgreesWithReference(v, "next duration >= 6");
  ExpectAgreesWithReference(v, "duration <= 4 until duration = 5");
  ExpectAgreesWithReference(v, "duration != 3 until duration = 5");
  ExpectAgreesWithReference(v, "true until duration = 5");
  ExpectAgreesWithReference(v, "next next duration = 3");
  ExpectAgreesWithReference(v, "eventually (duration = 2 and next duration = 3)");
}

TEST(DirectEngineTest, ExistsOverTemporalAgrees) {
  VideoTree v = MakeTestVideo();
  ExpectAgreesWithReference(
      v, "exists o (present(o) and eventually (present(o) and duration = 5))");
  ExpectAgreesWithReference(
      v, "exists o (present(o) until (present(o) and holds_gun(o)))");
}

TEST(DirectEngineTest, FreezeAgrees) {
  VideoTree v = MakeTestVideo();
  ExpectAgreesWithReference(v,
                            "exists z (type(z) = 'airplane' and "
                            "[h <- height(z)] eventually (height(z) > h @ 1))");
  ExpectAgreesWithReference(v,
                            "exists z (type(z) = 'airplane' and "
                            "[h <- height(z)] next (height(z) = h))");
  ExpectAgreesWithReference(v, "[d <- duration] eventually (duration > d)");
}

TEST(DirectEngineTest, OrExtensionAgrees) {
  VideoTree v = MakeTestVideo();
  ExpectAgreesWithReference(v, "duration <= 2 @ 3 or duration >= 2 @ 1");
  ExpectAgreesWithReference(v, "(duration = 1 or duration = 6) and true");
}

TEST(DirectEngineTest, ClosedNegationAgrees) {
  VideoTree v = MakeTestVideo();
  ExpectAgreesWithReference(v, "not duration = 3");
  ExpectAgreesWithReference(v, "not (duration >= 2 @ 3 and duration <= 4)");
  ExpectAgreesWithReference(v, "eventually not exists p (present(p))");
  ExpectAgreesWithReference(v, "not eventually duration = 9");
  ExpectAgreesWithReference(v, "(not duration = 1) until duration = 5");
}

TEST(DirectEngineTest, NegationOverFreeVariablesIsUnimplemented) {
  VideoTree v = MakeTestVideo();
  DirectEngine e(&v);
  EXPECT_EQ(e.EvaluateList(2, *Parse("exists p (not present(p))")).status().code(),
            StatusCode::kUnimplemented);
}

TEST(DirectEngineTest, FreeVariableRejected) {
  VideoTree v = MakeTestVideo();
  DirectEngine e(&v);
  auto f = ParseFormula("present(x)");
  ASSERT_OK(f.status());
  EXPECT_EQ(e.EvaluateList(2, *f.value()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DirectEngineTest, LevelOperatorOnDeepVideo) {
  VideoBuilder b;
  auto s1 = b.AddChild(b.root());
  auto s2 = b.AddChild(b.root());
  auto sh1 = b.AddChild(s1);
  auto sh2 = b.AddChild(s1);
  auto sh3 = b.AddChild(s2);
  b.Meta(sh1).SetAttribute("mark", AttrValue(int64_t{1}));
  b.Meta(sh2).SetAttribute("mark", AttrValue(int64_t{2}));
  b.Meta(sh3).SetAttribute("mark", AttrValue(int64_t{2}));
  b.NameLevel("shot", 3);
  auto built = std::move(b).Build();
  ASSERT_OK(built.status());
  VideoTree v = std::move(built).value();

  DirectEngine direct(&v);
  ReferenceEngine reference(&v);
  for (const char* q : {"at-next-level(mark = 1)", "at-next-level(mark = 2)",
                        "at-next-level(eventually mark = 2)"}) {
    FormulaPtr f = Parse(q);
    ASSERT_OK_AND_ASSIGN(SimilarityList got, direct.EvaluateList(2, *f));
    ASSERT_OK_AND_ASSIGN(SimilarityList want, reference.EvaluateList(2, *f));
    EXPECT_TRUE(ListsEqual(got, want)) << q;
  }
  // Root-level query through two level hops.
  FormulaPtr root_q = Parse("at-shot-level(mark = 1)");
  ASSERT_OK_AND_ASSIGN(SimilarityList got, direct.EvaluateList(1, *root_q));
  ASSERT_OK_AND_ASSIGN(SimilarityList want, reference.EvaluateList(1, *root_q));
  EXPECT_EQ(got.ValueAt(1), want.ValueAt(1));
}

TEST(DirectEngineTest, LevelOperatorWithSharedVariable) {
  // exists binding shared across a level operator: the variable column
  // must thread through the per-parent evaluation.
  VideoBuilder b;
  auto s1 = b.AddChild(b.root());
  auto s2 = b.AddChild(b.root());
  auto sh1 = b.AddChild(s1);
  b.AddChild(s1);
  auto sh3 = b.AddChild(s2);
  b.Meta(sh1).AddObject({7, {{"type", AttrValue("person")}}});
  b.Meta(sh3).AddObject({8, {{"type", AttrValue("person")}}});
  auto built = std::move(b).Build();
  ASSERT_OK(built.status());
  VideoTree v = std::move(built).value();

  DirectEngine direct(&v);
  ReferenceEngine reference(&v);
  FormulaPtr f = Parse("at-next-level(exists p (present(p)))");
  ASSERT_OK_AND_ASSIGN(SimilarityList got, direct.EvaluateList(2, *f));
  ASSERT_OK_AND_ASSIGN(SimilarityList want, reference.EvaluateList(2, *f));
  EXPECT_TRUE(ListsEqual(got, want));
}

TEST(DirectEngineTest, BrowsingQueryAtLevelOne) {
  VideoTree v = MakeTestVideo();
  v.MutableMeta(1, 1).SetAttribute("type", AttrValue("western"));
  v.MutableMeta(1, 1).SetAttribute("star", AttrValue("JohnWayne"));
  DirectEngine e(&v);
  ASSERT_OK_AND_ASSIGN(
      SimilarityList list,
      e.EvaluateList(1, *Parse("type = 'western' @ 2 and star = 'JohnWayne'")));
  const Sim sim = list.ValueAt(1);
  EXPECT_EQ(sim.actual, 3.0);
  EXPECT_EQ(sim.max, 3.0);
}

TEST(DirectEngineTest, CacheIsTransparent) {
  VideoTree v = MakeTestVideo();
  DirectEngine e(&v);
  FormulaPtr f = Parse("eventually exists p (type(p) = 'person')");
  ASSERT_OK_AND_ASSIGN(SimilarityList first, e.EvaluateList(2, *f));
  ASSERT_OK_AND_ASSIGN(SimilarityList second, e.EvaluateList(2, *f));
  EXPECT_TRUE(ListsEqual(first, second));
  e.ClearCache();
  ASSERT_OK_AND_ASSIGN(SimilarityList third, e.EvaluateList(2, *f));
  EXPECT_TRUE(ListsEqual(first, third));
}

// ---------------------------------------------------------------------------
// EvaluateWithLists — the section 4.2 harness entry point.

TEST(EvaluateWithListsTest, CasablancaQuery1) {
  FormulaPtr q = casablanca::Query1Named();
  ASSERT_OK_AND_ASSIGN(SimilarityList result,
                       EvaluateWithLists(*q, casablanca::NamedInputs()));
  EXPECT_TRUE(ListsEqual(result, casablanca::Query1ResultTable()));
}

TEST(EvaluateWithListsTest, MissingInputIsNotFound) {
  FormulaPtr q = casablanca::Query1Named();
  EXPECT_EQ(EvaluateWithLists(*q, {}).status().code(), StatusCode::kNotFound);
}

TEST(EvaluateWithListsTest, NonPredicateLeafRejected) {
  FormulaPtr f = Parse("duration > 1");
  EXPECT_EQ(EvaluateWithLists(*f, {}).status().code(), StatusCode::kInvalidArgument);
}

TEST(EvaluateWithListsTest, NonType1Rejected) {
  auto f = ParseFormula("exists x (present(x) and eventually present(x))");
  ASSERT_OK(f.status());
  EXPECT_EQ(EvaluateWithLists(*f.value(), {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EvaluateWithListsTest, UntilAndNextCompose) {
  std::map<std::string, SimilarityList> inputs = {
      {"p1", L({{1, 10, 8.0}}, 10.0)},
      {"p2", L({{12, 12, 5.0}}, 5.0)},
  };
  FormulaPtr f = ParseFormula("next (p1() until p2())").value();
  ASSERT_OK_AND_ASSIGN(SimilarityList out, EvaluateWithLists(*f, inputs));
  // until: [1,11] reaches h at 12? g run [1,10], u''=11 reachable; h at 12
  // requires g at 11 — absent. So until = {[12,12]:5} ∪ nothing... g holds
  // 1-10 so from id 11 h at 12 is not reachable (g(11) fails); from id 10,
  // u''=11 has no h. Hence until = {[12,12]:5}; next shifts to 11.
  EXPECT_TRUE(ListsEqual(out, L({{11, 11, 5.0}}, 5.0)));
}

// DirectEngine counts its operations in the process-wide registry's
// engine.* counters.
using testing::CounterDelta;
using testing::ScopedMetrics;

TEST(DirectEngineTest, StatsCountOperations) {
  ScopedMetrics metrics;
  VideoTree v = MakeTestVideo();
  DirectEngine e(&v);
  FormulaPtr f = Parse(
      "exists p (type(p) = 'person') and eventually exists p (type(p) = 'person')");
  CounterDelta atomic_queries("engine.atomic_queries");
  CounterDelta atomic_cache_hits("engine.atomic_cache_hits");
  CounterDelta table_joins("engine.table_joins");
  ASSERT_OK(e.EvaluateList(2, *f).status());
  // Two occurrences of the same atomic: one picture query + one cache hit.
  EXPECT_EQ(atomic_queries.value(), 1);
  EXPECT_EQ(atomic_cache_hits.value(), 1);
  EXPECT_EQ(table_joins.value(), 1);

  // Re-evaluating hits the cache twice more.
  ASSERT_OK(e.EvaluateList(2, *f).status());
  EXPECT_EQ(atomic_queries.value(), 1);
  EXPECT_EQ(atomic_cache_hits.value(), 3);
}

TEST(DirectEngineTest, StatsCountFreezeAndExists) {
  ScopedMetrics metrics;
  VideoTree v = MakeTestVideo();
  DirectEngine e(&v);
  FormulaPtr f = Parse(
      "exists z (type(z) = 'airplane' and "
      "[h <- height(z)] eventually (height(z) > h))");
  CounterDelta exists_collapses("engine.exists_collapses");
  CounterDelta freeze_joins("engine.freeze_joins");
  ASSERT_OK(e.EvaluateList(2, *f).status());
  EXPECT_EQ(exists_collapses.value(), 1);
  EXPECT_EQ(freeze_joins.value(), 1);
}

}  // namespace
}  // namespace htl
