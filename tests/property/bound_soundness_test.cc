// The safety half of bound-based pruning (htl/bound.h), checked directly:
// on randomized corpora and formulas from every supported class,
// UpperBoundFraction must dominate the true best fractional similarity of
// every video — `bound >= best - kBoundSlack`. If the bound ever dipped
// below the truth, the retriever could prune a video that belongs in the
// top k; the differential battery (prune_differential_test.cc) would catch
// the symptom, this test names the broken derivation rule. Violations are
// shrunk to a minimal closed subformula before reporting.
//
// The oracle for "true best" is the engine itself: an exhaustive unpruned
// retrieval (k covering every segment) grouped by video. The reverse
// direction — bounds being *tight* — is deliberately not asserted (a bound
// of 1 everywhere is sound, just useless); bench/bench_scale.cc gates
// usefulness instead. One directed check keeps the derivation from rotting
// into that trivial bound: corpus videos without the planted rare marker
// must get a zero bound for a query on the marker.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/retrieval.h"
#include "htl/binder.h"
#include "htl/bound.h"
#include "htl/parser.h"
#include "model/video.h"
#include "model/video_stats.h"
#include "testing/helpers.h"
#include "util/rng.h"
#include "workload/formula_gen.h"
#include "workload/video_gen.h"

namespace htl {
namespace {

// Evaluates `f` exhaustively (no pruning, k larger than any corpus's
// segment count) and returns each video's best attained fraction. Videos
// with no scored segments are absent (best 0). Failed videos are recorded
// so the caller can skip them — their truth is unknown.
std::map<MetadataStore::VideoId, double> TrueBestFractions(
    const MetadataStore& store, const Formula& f, int level, bool fuzzy_and,
    std::set<MetadataStore::VideoId>* failed) {
  QueryOptions options;
  options.parallelism = 1;
  options.and_semantics = fuzzy_and ? AndSemantics::kFuzzyMin : AndSemantics::kSum;
  Retriever r(&store, options);
  constexpr int64_t kExhaustiveK = 1'000'000;
  Result<SegmentRetrieval> out = r.TopSegmentsWithReport(f, level, kExhaustiveK);
  HTL_CHECK(out.ok()) << out.status().ToString();
  for (const RetrievalReport::VideoFailure& vf : out.value().report.failures) {
    failed->insert(vf.video);
  }
  std::map<MetadataStore::VideoId, double> best;
  for (const SegmentHit& hit : out.value().hits) {
    double& b = best[hit.video];
    b = std::max(b, hit.sim.fraction());
  }
  return best;
}

// True when `f`'s bound under-shoots some video's true best fraction; used
// both as the failure test and as the shrinking predicate.
bool Violates(const MetadataStore& store, int64_t num_videos, const Formula& f,
              int level, bool fuzzy_and, std::string* detail) {
  std::set<MetadataStore::VideoId> failed;
  const std::map<MetadataStore::VideoId, double> best =
      TrueBestFractions(store, f, level, fuzzy_and, &failed);
  BoundOptions options;
  options.fuzzy_and = fuzzy_and;
  for (MetadataStore::VideoId v = 1; v <= num_videos; ++v) {
    if (failed.count(v) != 0) continue;
    const VideoTree& tree = store.Video(v);
    const VideoStats stats = VideoStats::Build(tree);
    const double ub = UpperBoundFraction(f, tree, stats, level, options);
    if (ub < 0.0 || ub > 1.0) {
      if (detail != nullptr) {
        *detail = "bound " + std::to_string(ub) + " outside [0, 1] for video " +
                  std::to_string(v);
      }
      return true;
    }
    const auto it = best.find(v);
    const double truth = it == best.end() ? 0.0 : it->second;
    if (ub < truth - kBoundSlack) {
      if (detail != nullptr) {
        *detail = "video " + std::to_string(v) + ": bound " + std::to_string(ub) +
                  " < true best fraction " + std::to_string(truth);
      }
      return true;
    }
  }
  return false;
}

// Walks down to the smallest closed subformula that still violates.
const Formula* ShrinkToMinimal(const Formula* f,
                               const std::function<bool(const Formula&)>& bad) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (const Formula* child : {f->left.get(), f->right.get()}) {
      if (child == nullptr) continue;
      if (!FreeObjectVars(*child).empty() || !FreeAttrVars(*child).empty()) {
        continue;  // Open subtrees are not evaluable on their own.
      }
      if (bad(*child)) {
        f = child;
        shrunk = true;
        break;
      }
    }
  }
  return f;
}

// One randomized trial: a small skewed corpus, one generated formula,
// soundness asserted for every video. `wide_domains` gives every video
// dozens of leaves and heights drawn from 1..200 (in the formulas too), so
// a leaf level holds more distinct heights than a capped domain would keep.
void SoundnessTrial(uint64_t seed, const FormulaGenOptions& fopts_in,
                    int video_levels, bool fuzzy_and, bool wide_domains = false) {
  Rng rng(seed);
  MetadataStore store;
  CorpusGenOptions corpus;
  corpus.num_videos = 10;
  corpus.video.levels = video_levels;
  corpus.video.min_branching = video_levels == 2 ? 3 : 2;
  corpus.video.max_branching = video_levels == 2 ? 6 : 3;
  corpus.video.num_objects = 4;
  corpus.selective_fraction = 0.3;
  corpus.size_skew = 0.25;
  corpus.seed = seed * 6271 + 5;
  FormulaGenOptions fopts = fopts_in;
  if (wide_domains) {
    corpus.video.min_branching = 40;
    corpus.video.max_branching = 48;
    corpus.video.num_objects = 6;
    corpus.video.object_density = 0.5;
    corpus.video.attr_range = 200;
    fopts.attr_range = 200;
  }
  GenerateCorpus(corpus, &store);
  if (wide_domains) {
    size_t widest = 0;
    for (MetadataStore::VideoId v = 1; v <= corpus.num_videos; ++v) {
      const VideoStats& stats = store.Stats(v);
      widest = std::max(
          widest, stats.Values(video_levels, VideoStats::Scope::kObject, "height").size());
    }
    ASSERT_GT(widest, 64u) << "no leaf level holds more than 64 distinct heights";
  }

  fopts.max_levels = store.Video(1).num_levels();
  FormulaPtr f = GenerateFormula(rng, fopts);
  ASSERT_OK(Bind(f.get()));
  const int level = fopts.allow_level ? 2 : store.Video(1).num_levels();

  std::string detail;
  if (!Violates(store, corpus.num_videos, *f, level, fuzzy_and, &detail)) return;
  const Formula* minimal = ShrinkToMinimal(
      f.get(), [&](const Formula& g) {
        return Violates(store, corpus.num_videos, g, level, fuzzy_and, nullptr);
      });
  std::string minimal_detail;
  Violates(store, corpus.num_videos, *minimal, level, fuzzy_and, &minimal_detail);
  ADD_FAILURE() << "bound under-shoots the truth: " << detail << "\nseed " << seed
                << "\nformula: " << f->ToString()
                << "\nminimal reproducer: " << minimal->ToString() << " ("
                << minimal_detail << ")";
}

TEST(BoundSoundnessTest, ExtendedConjunctiveFormulas) {
  FormulaGenOptions fopts;  // exists + freeze on by default.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SoundnessTrial(seed, fopts, /*video_levels=*/2, /*fuzzy_and=*/false);
  }
}

TEST(BoundSoundnessTest, TemporalOnlyFormulas) {
  // No quantifiers: the until/next/eventually recursion carries the weight.
  FormulaGenOptions fopts;
  fopts.allow_exists = false;
  fopts.allow_freeze = false;
  for (uint64_t seed = 30; seed <= 41; ++seed) {
    SoundnessTrial(seed, fopts, /*video_levels=*/2, /*fuzzy_and=*/false);
  }
}

TEST(BoundSoundnessTest, LevelOperatorsOnDeepVideos) {
  FormulaGenOptions fopts;
  fopts.allow_level = true;
  for (uint64_t seed = 60; seed <= 69; ++seed) {
    SoundnessTrial(seed, fopts, /*video_levels=*/3, /*fuzzy_and=*/false);
  }
}

TEST(BoundSoundnessTest, GeneralFormulasWithNegation) {
  // kNot widens to 1, so these can only fail if a rule *around* a negation
  // under-combines; both the closed-list complement and fully general
  // negation (reference engine) run here.
  FormulaGenOptions fopts;
  fopts.allow_or = true;
  fopts.allow_not = true;
  fopts.allow_closed_not = true;
  for (uint64_t seed = 90; seed <= 101; ++seed) {
    SoundnessTrial(seed, fopts, /*video_levels=*/2, /*fuzzy_and=*/false);
  }
}

TEST(BoundSoundnessTest, FuzzyMinConjunctions) {
  // min-combining is the easiest rule to get unsound (min of bounds must
  // dominate min of truths); fuzzy negation rides along via allow_not.
  FormulaGenOptions fopts;
  fopts.allow_or = true;
  fopts.allow_not = true;
  for (uint64_t seed = 120; seed <= 131; ++seed) {
    SoundnessTrial(seed, fopts, /*video_levels=*/2, /*fuzzy_and=*/true);
  }
}

TEST(BoundSoundnessTest, WideValueDomains) {
  // Every distinct value is kept, so equality and ordered comparisons are
  // tested exactly against domains far past 64 values.
  FormulaGenOptions fopts;
  for (uint64_t seed = 150; seed <= 157; ++seed) {
    SoundnessTrial(seed, fopts, /*video_levels=*/2, /*fuzzy_and=*/false,
                   /*wide_domains=*/true);
  }
}

// The index keeps every distinct value, so a comparison no value satisfies
// bounds at 0 however many values the level holds.
TEST(BoundSoundnessTest, EveryDistinctValueIsKept) {
  VideoTree video = VideoTree::Flat(100);
  for (SegmentId s = 1; s <= 100; ++s) {
    video.MutableMeta(2, s).SetAttribute("duration", AttrValue(int64_t{s}));
  }
  const VideoStats stats = VideoStats::Build(video);
  const auto bound = [&](const char* text) {
    Result<FormulaPtr> f = ParseFormula(text);
    HTL_CHECK(f.ok() && Bind(f.value().get()).ok());
    return UpperBoundFraction(*f.value(), video, stats, 2);
  };
  EXPECT_EQ(bound("duration = 1000"), 0.0);
  EXPECT_EQ(bound("duration = 50"), 1.0);
  EXPECT_EQ(bound("duration > 100"), 0.0);
  EXPECT_EQ(bound("duration >= 100"), 1.0);
}

// Directed edge cases the generator reaches only rarely: until's bound
// reads the right operand, freeze binds an attribute variable (which the
// derivation must widen, not drop).
TEST(BoundSoundnessTest, UntilAndFreezeEdgeCases) {
  MetadataStore store;
  CorpusGenOptions corpus;
  corpus.num_videos = 8;
  corpus.video.levels = 2;
  corpus.selective_fraction = 0.4;
  corpus.seed = 7;
  GenerateCorpus(corpus, &store);

  QueryOptions options;
  options.parallelism = 1;
  Retriever r(&store, options);
  const char* texts[] = {
      "exists x (moving(x) until armed(x))",
      "exists x ((type(x) = 'person') until (type(x) = 'zeppelin'))",
      "[d <- duration] exists x (height(x) <= d)",
      "[d <- duration] exists x ((height(x) = d) until moving(x))",
  };
  for (const char* text : texts) {
    SCOPED_TRACE(text);
    Result<FormulaPtr> f = r.Prepare(text);
    ASSERT_OK(f.status());
    std::string detail;
    EXPECT_FALSE(Violates(store, corpus.num_videos, *f.value(), 2,
                          /*fuzzy_and=*/false, &detail))
        << detail;
  }
}

// Anti-rot check: the derivation must stay useful, not just sound. A query
// on the planted rare markers gets a zero bound on every unmarked video
// (their stats cannot satisfy either atomic constraint).
TEST(BoundSoundnessTest, RareMarkerQueryBoundsUnmarkedVideosAtZero) {
  MetadataStore store;
  CorpusGenOptions corpus;
  corpus.num_videos = 20;
  corpus.video.levels = 2;
  corpus.selective_fraction = 0.25;
  corpus.seed = 21;
  const std::vector<MetadataStore::VideoId> marked = GenerateCorpus(corpus, &store);
  ASSERT_FALSE(marked.empty());
  const std::set<MetadataStore::VideoId> marked_set(marked.begin(), marked.end());

  QueryOptions options;
  Retriever r(&store, options);
  Result<FormulaPtr> f =
      r.Prepare("exists x (type(x) = 'zeppelin' and rare_event(x))");
  ASSERT_OK(f.status());
  for (MetadataStore::VideoId v = 1; v <= corpus.num_videos; ++v) {
    const VideoTree& tree = store.Video(v);
    const VideoStats stats = VideoStats::Build(tree);
    const double ub = UpperBoundFraction(*f.value(), tree, stats, 2);
    if (marked_set.count(v) != 0) {
      EXPECT_GT(ub, 0.0) << "marked video " << v;
    } else {
      EXPECT_EQ(ub, 0.0) << "unmarked video " << v;
    }
  }
}

}  // namespace
}  // namespace htl
