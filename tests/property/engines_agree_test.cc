// The central correctness property of the reproduction: on random videos
// and random (extended-)conjunctive formulas, the optimized similarity-list
// engine of section 3 computes exactly the similarity semantics of section
// 2.5 as realized by the brute-force reference evaluator.

#include <gtest/gtest.h>

#include "engine/direct_engine.h"
#include "engine/reference_engine.h"
#include "htl/binder.h"
#include "htl/parser.h"
#include "testing/helpers.h"
#include "util/rng.h"
#include "workload/formula_gen.h"
#include "workload/video_gen.h"

namespace htl {
namespace {

using testing::ListsNear;

void ExpectListsAgree(DirectEngine& direct, ReferenceEngine& reference, int level,
                      const Formula& f, uint64_t seed) {
  auto got = direct.EvaluateList(level, f);
  auto want = reference.EvaluateList(level, f);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString() << "\nformula: " << f.ToString();
  EXPECT_TRUE(ListsNear(got.value(), want.value(), 1e-9))
      << "seed " << seed << " formula: " << f.ToString();
}

void CompareEnginesOnSeed(uint64_t seed, bool allow_or, bool allow_level,
                          int video_levels, bool allow_closed_not = false) {
  Rng rng(seed);
  VideoGenOptions vopts;
  vopts.levels = video_levels;
  vopts.min_branching = video_levels == 2 ? 6 : 2;
  vopts.max_branching = video_levels == 2 ? 12 : 4;
  vopts.num_objects = 4;
  VideoTree video = GenerateVideo(rng, vopts);

  FormulaGenOptions fopts;
  fopts.max_depth = 3;
  fopts.allow_or = allow_or;
  fopts.allow_level = allow_level;
  fopts.allow_closed_not = allow_closed_not;
  fopts.max_levels = video.num_levels();

  QueryOptions low_threshold;
  low_threshold.until_threshold = 0.3;
  DirectEngine direct(&video);
  ReferenceEngine reference(&video);
  DirectEngine direct_low(&video, low_threshold);
  ReferenceEngine reference_low(&video, low_threshold);
  for (int trial = 0; trial < 8; ++trial) {
    FormulaPtr f = GenerateFormula(rng, fopts);
    Status bound = Bind(f.get());
    ASSERT_TRUE(bound.ok()) << bound.ToString() << "\n" << f->ToString();
    // Evaluate at the leaf level (or below the level operator's source),
    // at the default `until` threshold and at a lower one.
    const int level = allow_level ? 2 : video.num_levels();
    ExpectListsAgree(direct, reference, level, *f, seed);
    ExpectListsAgree(direct_low, reference_low, level, *f, seed);
    // The same formula asserted at the root: whole-video similarity is the
    // level-1 list, which holds exactly the root.
    auto got = direct.EvaluateList(1, *f);
    auto want = reference.EvaluateList(1, *f);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\nformula: " << f->ToString();
    EXPECT_NEAR(got.value().ValueAt(1).actual, want.value().ValueAt(1).actual, 1e-9)
        << "seed " << seed << " formula: " << f->ToString();
    EXPECT_NEAR(got.value().ValueAt(1).max, want.value().ValueAt(1).max, 1e-9)
        << "seed " << seed << " formula: " << f->ToString();
  }
}

class EnginesAgreeTest : public ::testing::TestWithParam<int> {};

TEST_P(EnginesAgreeTest, FlatVideoConjunctive) {
  CompareEnginesOnSeed(static_cast<uint64_t>(GetParam()), /*allow_or=*/false,
                       /*allow_level=*/false, /*video_levels=*/2);
}

TEST_P(EnginesAgreeTest, FlatVideoWithOrExtension) {
  CompareEnginesOnSeed(static_cast<uint64_t>(GetParam()) + 500, /*allow_or=*/true,
                       /*allow_level=*/false, /*video_levels=*/2);
}

TEST_P(EnginesAgreeTest, DeepVideoExtendedConjunctive) {
  CompareEnginesOnSeed(static_cast<uint64_t>(GetParam()) + 1000, /*allow_or=*/false,
                       /*allow_level=*/true, /*video_levels=*/3);
}

TEST_P(EnginesAgreeTest, FlatVideoWithClosedNegation) {
  CompareEnginesOnSeed(static_cast<uint64_t>(GetParam()) + 1500, /*allow_or=*/true,
                       /*allow_level=*/false, /*video_levels=*/2,
                       /*allow_closed_not=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginesAgreeTest, ::testing::Range(0, 12));

// The picture system's candidate objects must match by the same equality
// constraint evaluation uses: height -0.0 equals 0, so object 1 scores in
// segment 1 as the reference engine says.
TEST(EnginesAgreeOnValuesTest, NegativeZeroEqualsZero) {
  VideoTree video = VideoTree::Flat(2);
  const AttrValue heights[] = {AttrValue(-0.0), AttrValue(int64_t{0})};
  for (SegmentId s = 1; s <= 2; ++s) {
    ObjectAppearance obj;
    obj.id = s;
    obj.attributes["height"] = heights[s - 1];
    video.MutableMeta(2, s).AddObject(std::move(obj));
  }
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, ParseFormula("exists x (height(x) = 0)"));
  ASSERT_OK(Bind(f.get()));
  DirectEngine direct(&video);
  ReferenceEngine reference(&video);
  ExpectListsAgree(direct, reference, 2, *f, 0);
  ASSERT_OK_AND_ASSIGN(SimilarityList got, direct.EvaluateList(2, *f));
  EXPECT_TRUE(ListsNear(got, testing::L({{1, 2, 1.0}}, 1.0)));
}

}  // namespace
}  // namespace htl
