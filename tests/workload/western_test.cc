// End-to-end checks of the paper's running example (sections 2.1-2.4): the
// western movie, formulas (A) and (B), and the browsing query, with
// hand-computed expected similarity values.

#include <gtest/gtest.h>

#include "engine/direct_engine.h"
#include "engine/reference_engine.h"
#include "htl/binder.h"
#include "htl/classifier.h"
#include "htl/parser.h"
#include "sim/topk.h"
#include "testing/helpers.h"
#include "workload/western.h"

namespace htl {
namespace {

using testing::L;
using testing::ListsEqual;

TEST(WesternTest, VideoShape) {
  VideoTree v = western::MakeVideo();
  EXPECT_EQ(v.num_levels(), 3);
  EXPECT_EQ(v.NumSegments(2), 4);
  EXPECT_EQ(v.NumSegments(3), 12);
  EXPECT_EQ(v.Title(), "Rio Lobo");
  EXPECT_EQ(v.LevelByName("frame").value(), 3);
}

TEST(WesternTest, FormulaBClassifiesAsType2) {
  FormulaPtr f = western::FormulaB();
  ASSERT_OK(Bind(f.get()));
  EXPECT_EQ(Classify(*f), FormulaClass::kType2);
  EXPECT_EQ(MaxSimilarity(*f), 11.0);
}

TEST(WesternTest, FormulaBValuesAtFrameLevel) {
  VideoTree v = western::MakeVideo();
  DirectEngine engine(&v);
  FormulaPtr f = western::FormulaB();
  ASSERT_OK(Bind(f.get()));
  ASSERT_OK_AND_ASSIGN(SimilarityList list, engine.EvaluateList(3, *f));
  // Hand-derived: the shooting starts at frame 4 (exact match 11/11);
  // earlier frames see only the future (5 via the (JohnWayne, bandit)
  // binding); frame 5 has partial P1 (9). The tail values come from
  // *degenerate* partial bindings — at frame 6 the pair (bandit, bandit)
  // scores 3 + 4 = 7, and during the ride-off (7-9) the pair
  // (JohnWayne, JohnWayne) scores 3 + 3 = 6 — the price of pure
  // weighted-sum partial matching (the fuzzy-min alternative suppresses
  // these; see fuzzy_semantics_test.cc).
  EXPECT_TRUE(ListsEqual(
      list, L({{1, 3, 5.0}, {4, 4, 11.0}, {5, 5, 9.0}, {6, 6, 7.0}, {7, 9, 6.0}},
              11.0)));
  // The best frame is the start of the shooting, with an exact match.
  auto top = TopKSegments(list, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 4);
  EXPECT_DOUBLE_EQ(top[0].sim.fraction(), 1.0);
}

TEST(WesternTest, FormulaBEnginesAgree) {
  VideoTree v = western::MakeVideo();
  FormulaPtr f = western::FormulaB();
  ASSERT_OK(Bind(f.get()));
  DirectEngine direct(&v);
  ReferenceEngine reference(&v);
  ASSERT_OK_AND_ASSIGN(SimilarityList got, direct.EvaluateList(3, *f));
  ASSERT_OK_AND_ASSIGN(SimilarityList want, reference.EvaluateList(3, *f));
  EXPECT_TRUE(ListsEqual(got, want));
}

TEST(WesternTest, FormulaAClassifiesAsType1) {
  FormulaPtr f = western::FormulaA();
  ASSERT_OK(Bind(f.get()));
  EXPECT_EQ(Classify(*f), FormulaClass::kType1);
  EXPECT_EQ(MaxSimilarity(*f), 4.0);
}

TEST(WesternTest, FormulaAValuesAtFrameLevel) {
  VideoTree v = western::MakeVideo();
  DirectEngine engine(&v);
  FormulaPtr f = western::FormulaA();
  ASSERT_OK(Bind(f.get()));
  ASSERT_OK_AND_ASSIGN(SimilarityList list, engine.EvaluateList(3, *f));
  // Frame 1: planes on the ground (2) + next(in-air until shot-down) (2).
  EXPECT_TRUE(ListsEqual(list, L({{1, 1, 4.0}, {2, 2, 3.0}, {3, 3, 1.0}}, 4.0)));
}

TEST(WesternTest, BrowsingQueryAtRoot) {
  VideoTree v = western::MakeVideo();
  DirectEngine engine(&v);
  FormulaPtr f = western::BrowsingQuery();
  ASSERT_OK(Bind(f.get()));
  EXPECT_EQ(Classify(*f), FormulaClass::kExtendedConjunctive);
  ASSERT_OK_AND_ASSIGN(SimilarityList list, engine.EvaluateList(1, *f));
  const Sim sim = list.ValueAt(1);
  // type='western' (1) + formula (B) at the first frame (5) out of 12.
  EXPECT_DOUBLE_EQ(sim.actual, 6.0);
  EXPECT_DOUBLE_EQ(sim.max, 12.0);
  // Reference agrees.
  ReferenceEngine reference(&v);
  ASSERT_OK_AND_ASSIGN(SimilarityList ref, reference.EvaluateList(1, *f));
  EXPECT_EQ(sim, ref.ValueAt(1));
}

TEST(WesternTest, SceneLevelTemporalQuery) {
  // The section 2.3 example shape: a scene depicting the shooting, later
  // followed by a scene with John Wayne (riding off).
  VideoTree v = western::MakeVideo();
  DirectEngine engine(&v);
  ReferenceEngine reference(&v);
  auto parsed = ParseFormula(
      "at-next-level(eventually exists a, b (fires_at(a, b))) and eventually "
      "at-next-level(exists x (name(x) = 'JohnWayne'))");
  ASSERT_OK(parsed.status());
  FormulaPtr f = std::move(parsed).value();
  ASSERT_OK(Bind(f.get()));
  ASSERT_OK_AND_ASSIGN(SimilarityList got, engine.EvaluateList(2, *f));
  // Scene 2's frames contain the firing (1); a later scene starting with
  // John Wayne exists from scenes 1-3 (scene 3's first frame has him).
  // Scene-by-scene: s1: 0+1, s2: 1+1, s3: 0+1, s4: 0+0.
  EXPECT_TRUE(ListsEqual(got, L({{1, 1, 1.0}, {2, 2, 2.0}, {3, 3, 1.0}}, 2.0)));
  ASSERT_OK_AND_ASSIGN(SimilarityList want, reference.EvaluateList(2, *f));
  EXPECT_TRUE(ListsEqual(got, want));
}

}  // namespace
}  // namespace htl
