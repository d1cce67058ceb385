// The central correctness property of the reproduction: on random videos
// and random (extended-)conjunctive formulas, the optimized similarity-list
// engine of section 3 computes exactly the similarity semantics of section
// 2.5 as realized by the brute-force reference evaluator.

#include <gtest/gtest.h>

#include "engine/direct_engine.h"
#include "engine/reference_engine.h"
#include "htl/binder.h"
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
    // The same formula asserted at the root: whole-video similarity.
    auto got = direct.EvaluateVideo(*f);
    auto want = reference.EvaluateVideo(*f);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\nformula: " << f->ToString();
    EXPECT_NEAR(got.value().actual, want.value().actual, 1e-9)
        << "seed " << seed << " formula: " << f->ToString();
    EXPECT_NEAR(got.value().max, want.value().max, 1e-9)
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

}  // namespace
}  // namespace htl
