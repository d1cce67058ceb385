// The differential proof behind QueryOptions::prune and num_shards: on
// random corpora and random formulas from all four supported classes,
// bound-based top-k pruning and sharded scatter-gather retrieval reproduce
// the plain path bit for bit — ranked hits, call statuses, failure lists —
// serial and parallel, across shard counts, cached and
// uncached, strict and degraded (pruning-invariant injected faults, blown
// per-video budgets). The reports must also stay truthful: every video is
// accounted for exactly once (evaluated, failed, or pruned), pruned videos
// never appear in the top k, and a pruned run never fails or degrades a
// video the unpruned run did not. Any divergence is shrunk to a minimal
// failing subformula before it is reported.
//
// Faults injected here must be pruning-invariant (their trigger count must
// not depend on how many videos evaluate): engine.bound_compute is only hit
// by the pruned arm and degrades it to plain evaluation; engine.shard_dispatch
// is hit once per shard regardless of pruning (serial runs only — under a
// pool the first-hit shard is racy). Count-dependent points like
// engine.table_join would fire on different videos in the two arms and are
// exercised by tests/property/fault_injection_test.cc instead.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "engine/exec_context.h"
#include "engine/retrieval.h"
#include "htl/binder.h"
#include "htl/classifier.h"
#include "model/video.h"
#include "testing/helpers.h"
#include "util/fault_point.h"
#include "util/rng.h"
#include "workload/formula_gen.h"
#include "workload/video_gen.h"

namespace htl {
namespace {

// ---------------------------------------------------------------------------
// One retrieval run and everything observable about it.

struct RunConfig {
  int parallelism = 1;
  int num_shards = 1;
  CacheMode cache_mode = CacheMode::kOff;
  AndSemantics and_semantics = AndSemantics::kSum;
  int runs = 1;  // >1 exercises the result cache (cold fill, warm probe).
  int64_t k = 8;
  ExecBudgets budgets;       // Defaults to unlimited.
  std::string fault_point;   // Non-empty arms the registry per arm.
  FaultSpec fault_spec;
  uint64_t fault_seed = 1;
};

struct Outcome {
  Status status;  // The call's own status (aborts, never per-video faults).
  std::vector<SegmentHit> hits;
  RetrievalReport report;
};

std::vector<Outcome> RunArm(const MetadataStore& store, const Formula& f, int level,
                            const RunConfig& cfg, bool prune) {
  QueryOptions options;
  options.parallelism = cfg.parallelism;
  options.num_shards = cfg.num_shards;
  options.cache_mode = cfg.cache_mode;
  options.and_semantics = cfg.and_semantics;
  options.prune = prune;
  Retriever r(&store, options);
  // Identical fault countdowns for both arms: re-seed and re-arm
  // immediately before each arm's runs.
  if (!cfg.fault_point.empty()) {
    FaultRegistry::Instance().DisableAll();
    FaultRegistry::Instance().Seed(cfg.fault_seed);
    FaultRegistry::Instance().Enable(cfg.fault_point, cfg.fault_spec);
  }
  std::vector<Outcome> outcomes;
  for (int run = 0; run < cfg.runs; ++run) {
    ExecContext ctx;
    ctx.mutable_budgets() = cfg.budgets;
    Result<SegmentRetrieval> out = r.TopSegmentsWithReport(f, level, cfg.k, &ctx);
    Outcome o;
    o.status = out.status();
    if (out.ok()) {
      o.hits = std::move(out.value().hits);
      o.report = std::move(out.value().report);
    }
    outcomes.push_back(std::move(o));
  }
  if (!cfg.fault_point.empty()) FaultRegistry::Instance().DisableAll();
  return outcomes;
}

// ---------------------------------------------------------------------------
// The parity surface: hits, statuses, and a truthful, conservative report.

std::string DescribeHits(const std::vector<SegmentHit>& hits) {
  std::string out;
  for (const SegmentHit& h : hits) {
    out += "  video " + std::to_string(h.video) + " segment " +
           std::to_string(h.segment) + " actual " + std::to_string(h.sim.actual) +
           " / " + std::to_string(h.sim.max) + "\n";
  }
  return out.empty() ? "  (none)\n" : out;
}

::testing::AssertionResult SameOutcome(const Outcome& off, const Outcome& on) {
  if (!(off.status == on.status)) {
    return ::testing::AssertionFailure()
           << "call status diverged: unpruned " << off.status.ToString()
           << " vs pruned " << on.status.ToString();
  }
  if (!off.status.ok()) return ::testing::AssertionSuccess();

  // Ranked output must be bitwise identical.
  if (off.hits.size() != on.hits.size()) {
    return ::testing::AssertionFailure()
           << "hit count diverged: unpruned " << off.hits.size() << " vs pruned "
           << on.hits.size() << "\nunpruned:\n" << DescribeHits(off.hits)
           << "pruned:\n" << DescribeHits(on.hits);
  }
  for (size_t i = 0; i < off.hits.size(); ++i) {
    const SegmentHit& a = off.hits[i];
    const SegmentHit& b = on.hits[i];
    if (a.video != b.video || a.segment != b.segment || !(a.sim == b.sim)) {
      return ::testing::AssertionFailure()
             << "hit " << i << " diverged\nunpruned:\n" << DescribeHits(off.hits)
             << "pruned:\n" << DescribeHits(on.hits);
    }
  }

  // The unpruned arm must not report pruning; the pruned arm's counters must
  // agree with its own skip list.
  if (off.report.videos_pruned != 0 || !off.report.pruned_videos.empty()) {
    return ::testing::AssertionFailure() << "unpruned run claims pruned videos";
  }
  if (on.report.videos_pruned !=
      static_cast<int64_t>(on.report.pruned_videos.size())) {
    return ::testing::AssertionFailure()
           << "pruned count " << on.report.videos_pruned << " != skip list size "
           << on.report.pruned_videos.size();
  }

  // Conservation: every video the unpruned run accounted for is evaluated,
  // failed, or pruned in the pruned run — none invented, none lost.
  if (on.report.videos_evaluated + on.report.videos_failed +
          on.report.videos_pruned !=
      off.report.videos_evaluated + off.report.videos_failed) {
    return ::testing::AssertionFailure()
           << "video accounting diverged: pruned run {evaluated "
           << on.report.videos_evaluated << ", failed " << on.report.videos_failed
           << ", pruned " << on.report.videos_pruned << "} vs unpruned {evaluated "
           << off.report.videos_evaluated << ", failed " << off.report.videos_failed
           << "}";
  }

  // A pruned video was never evaluated, so the pruned run can only fail or
  // degrade a subset of what the unpruned run did.
  if (on.report.videos_degraded > off.report.videos_degraded) {
    return ::testing::AssertionFailure()
           << "pruned run degraded more videos (" << on.report.videos_degraded
           << ") than the unpruned run (" << off.report.videos_degraded << ")";
  }
  std::set<MetadataStore::VideoId> off_failed;
  for (const RetrievalReport::VideoFailure& f : off.report.failures) {
    off_failed.insert(f.video);
  }
  for (const RetrievalReport::VideoFailure& f : on.report.failures) {
    if (off_failed.count(f.video) == 0) {
      return ::testing::AssertionFailure()
             << "pruned run failed video " << f.video
             << " which the unpruned run did not";
    }
  }

  // Soundness: a pruned video must be provably irrelevant — outside the top
  // k and outside the failure list.
  std::set<MetadataStore::VideoId> pruned(on.report.pruned_videos.begin(),
                                          on.report.pruned_videos.end());
  for (const SegmentHit& h : on.hits) {
    if (pruned.count(h.video) != 0) {
      return ::testing::AssertionFailure()
             << "pruned video " << h.video << " appears in the top-k";
    }
  }
  for (const RetrievalReport::VideoFailure& f : on.report.failures) {
    if (pruned.count(f.video) != 0) {
      return ::testing::AssertionFailure()
             << "video " << f.video << " reported both pruned and failed";
    }
  }

  // Shard losses must match exactly: shard index, range, and status code.
  if (off.report.shard_failures.size() != on.report.shard_failures.size()) {
    return ::testing::AssertionFailure() << "shard failure counts diverged";
  }
  for (size_t i = 0; i < off.report.shard_failures.size(); ++i) {
    const RetrievalReport::ShardFailure& a = off.report.shard_failures[i];
    const RetrievalReport::ShardFailure& b = on.report.shard_failures[i];
    if (a.shard != b.shard || a.first_video != b.first_video ||
        a.last_video != b.last_video || a.status.code() != b.status.code()) {
      return ::testing::AssertionFailure() << "shard failure " << i << " diverged";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameArms(const std::vector<Outcome>& off,
                                    const std::vector<Outcome>& on) {
  if (off.size() != on.size()) {
    return ::testing::AssertionFailure() << "run-count mismatch";
  }
  for (size_t i = 0; i < off.size(); ++i) {
    ::testing::AssertionResult same = SameOutcome(off[i], on[i]);
    if (!same) return ::testing::AssertionFailure() << "run " << i << ": "
                                                    << same.message();
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Shrinking: walk down to the smallest closed subformula that still
// diverges, so a failure names a minimal reproducer.

using FailPred = std::function<bool(const Formula&)>;

const Formula* ShrinkToMinimal(const Formula* f, const FailPred& diverges) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (const Formula* child : {f->left.get(), f->right.get()}) {
      if (child == nullptr) continue;
      if (!FreeObjectVars(*child).empty() || !FreeAttrVars(*child).empty()) {
        continue;  // Open subtrees are not evaluable on their own.
      }
      if (diverges(*child)) {
        f = child;
        shrunk = true;
        break;
      }
    }
  }
  return f;
}

// Runs the pruned-vs-unpruned comparison for one formula; on divergence,
// shrinks and fails with the minimal formula.
void ExpectPruningInvisible(const MetadataStore& store, const Formula& f, int level,
                            const RunConfig& cfg, uint64_t seed) {
  auto diverges = [&](const Formula& g) {
    return !SameArms(RunArm(store, g, level, cfg, /*prune=*/false),
                     RunArm(store, g, level, cfg, /*prune=*/true));
  };
  std::vector<Outcome> off = RunArm(store, f, level, cfg, /*prune=*/false);
  std::vector<Outcome> on = RunArm(store, f, level, cfg, /*prune=*/true);
  ::testing::AssertionResult same = SameArms(off, on);
  if (same) return;
  const Formula* minimal = ShrinkToMinimal(&f, diverges);
  ADD_FAILURE() << same.message() << "\nseed " << seed << "\nformula: "
                << f.ToString() << "\nminimal reproducer: " << minimal->ToString();
}

// ---------------------------------------------------------------------------
// Corpus and formula generation, with class-coverage accounting.

struct ClassCoverage {
  int counts[5] = {0, 0, 0, 0, 0};
  void Count(FormulaClass c) { ++counts[static_cast<int>(c)]; }
};

// One generated (corpus, formula) pair per seed: a small skewed corpus with
// planted selective markers (so bounds actually separate videos) plus a
// random formula of the requested shape.
FormulaClass PruneTrial(uint64_t seed, const FormulaGenOptions& fopts_in,
                        int video_levels, const RunConfig& cfg) {
  Rng rng(seed);
  MetadataStore store;
  CorpusGenOptions corpus;
  corpus.num_videos = 14;
  corpus.video.levels = video_levels;
  corpus.video.min_branching = video_levels == 2 ? 3 : 2;
  corpus.video.max_branching = video_levels == 2 ? 6 : 3;
  corpus.video.num_objects = 4;
  corpus.selective_fraction = 0.3;
  corpus.size_skew = 0.25;
  corpus.seed = seed * 7919 + 13;
  GenerateCorpus(corpus, &store);

  FormulaGenOptions fopts = fopts_in;
  fopts.max_levels = store.Video(1).num_levels();
  FormulaPtr f = GenerateFormula(rng, fopts);
  Status bound = Bind(f.get());
  EXPECT_TRUE(bound.ok()) << bound.ToString() << "\n" << f->ToString();

  const int level = fopts.allow_level ? 2 : store.Video(1).num_levels();
  ExpectPruningInvisible(store, *f, level, cfg, seed);
  return Classify(*f);
}

// The four generator shapes that together cover every supported class.
FormulaGenOptions ShapeType1() {
  FormulaGenOptions o;
  o.allow_exists = false;
  o.allow_freeze = false;
  return o;
}
FormulaGenOptions ShapeConjunctive() { return FormulaGenOptions{}; }
FormulaGenOptions ShapeExtended() {
  FormulaGenOptions o;
  o.allow_level = true;
  return o;
}
FormulaGenOptions ShapeGeneral() {
  FormulaGenOptions o;
  o.allow_or = true;
  o.allow_closed_not = true;
  return o;
}

void SweepAllShapes(uint64_t seed_base, const RunConfig& cfg, int trials) {
  ClassCoverage coverage;
  auto covered = [&] {
    return coverage.counts[static_cast<int>(FormulaClass::kType1)] > 0 &&
           coverage.counts[static_cast<int>(FormulaClass::kType2)] +
                   coverage.counts[static_cast<int>(FormulaClass::kConjunctive)] >
               0 &&
           coverage.counts[static_cast<int>(FormulaClass::kExtendedConjunctive)] > 0 &&
           coverage.counts[static_cast<int>(FormulaClass::kGeneral)] > 0;
  };
  constexpr int kMaxTopUpRounds = 64;
  for (int round = 0; round < trials + kMaxTopUpRounds; ++round) {
    if (round >= trials && covered()) break;
    const uint64_t seed = seed_base + static_cast<uint64_t>(round);
    coverage.Count(PruneTrial(seed, ShapeType1(), 2, cfg));
    coverage.Count(PruneTrial(seed + 100, ShapeConjunctive(), 2, cfg));
    coverage.Count(PruneTrial(seed + 200, ShapeExtended(), 3, cfg));
    coverage.Count(PruneTrial(seed + 300, ShapeGeneral(), 2, cfg));
  }
  // All four supported classes must have been exercised — a generator
  // regression would otherwise hollow out the proof.
  EXPECT_GT(coverage.counts[static_cast<int>(FormulaClass::kType1)], 0);
  EXPECT_GT(coverage.counts[static_cast<int>(FormulaClass::kType2)] +
                coverage.counts[static_cast<int>(FormulaClass::kConjunctive)],
            0);
  EXPECT_GT(coverage.counts[static_cast<int>(FormulaClass::kExtendedConjunctive)], 0);
  EXPECT_GT(coverage.counts[static_cast<int>(FormulaClass::kGeneral)], 0);
}

// ---------------------------------------------------------------------------
// The battery.

TEST(PruneDifferentialTest, SerialUnshardedAllClasses) {
  RunConfig cfg;
  SweepAllShapes(/*seed_base=*/1, cfg, /*trials=*/5);
}

TEST(PruneDifferentialTest, ShardCountsPreserveOutput) {
  for (int shards : {2, 8}) {
    RunConfig cfg;
    cfg.num_shards = shards;
    SCOPED_TRACE(shards);
    SweepAllShapes(/*seed_base=*/40 + static_cast<uint64_t>(shards) * 1000, cfg,
                   /*trials=*/3);
  }
}

TEST(PruneDifferentialTest, ParallelShardedMatchesSerialUnpruned) {
  RunConfig cfg;
  cfg.parallelism = 4;
  cfg.num_shards = 8;
  SweepAllShapes(/*seed_base=*/80, cfg, /*trials=*/3);
}

// A second two-shard sweep over an independent seed range.
TEST(PruneDifferentialTest, InterpreterEngineAgreesToo) {
  RunConfig cfg;
  cfg.num_shards = 2;
  SweepAllShapes(/*seed_base=*/120, cfg, /*trials=*/3);
}

TEST(PruneDifferentialTest, FuzzyMinAndSemantics) {
  RunConfig cfg;
  cfg.and_semantics = AndSemantics::kFuzzyMin;
  SweepAllShapes(/*seed_base=*/160, cfg, /*trials=*/3);
}

TEST(PruneDifferentialTest, SmallKTieBreaksSurvivePruning) {
  // k = 1 maximizes the floor (and so the pruning rate); ties at the floor
  // must still evaluate, or id tie-breaks would silently change.
  for (int64_t k : {1, 3}) {
    RunConfig cfg;
    cfg.k = k;
    SCOPED_TRACE(k);
    SweepAllShapes(/*seed_base=*/200 + static_cast<uint64_t>(k) * 1000, cfg,
                   /*trials=*/3);
  }
}

TEST(PruneDifferentialTest, CachedColdAndWarmRuns) {
  RunConfig cfg;
  cfg.cache_mode = CacheMode::kReadWrite;
  cfg.runs = 2;  // Cold fill, then warm probe — both compared run by run.
  SweepAllShapes(/*seed_base=*/240, cfg, /*trials=*/3);
}

TEST(PruneDifferentialTest, BlownPerVideoBudgetsStayIdentical) {
  // Budget exhaustion is deterministic per video, so it is pruning-invariant:
  // a video that blows its budget does so in both arms (unless pruned, which
  // the subset checks allow).
  for (int variant = 0; variant < 2; ++variant) {
    RunConfig cfg;
    if (variant == 0) cfg.budgets.max_rows = 60;
    if (variant == 1) cfg.budgets.max_tables = 4;
    SCOPED_TRACE(variant);
    SweepAllShapes(/*seed_base=*/280 + static_cast<uint64_t>(variant) * 1000, cfg,
                   /*trials=*/2);
  }
}

TEST(PruneDifferentialTest, BoundComputeFaultsDegradeInvisibly) {
  // The bound seam only exists in the pruned arm; killing it must leave the
  // pruned arm exactly equal to the unpruned one (just with nothing pruned).
  for (int variant = 0; variant < 2; ++variant) {
    RunConfig cfg;
    cfg.fault_point = "engine.bound_compute";
    if (variant == 0) {
      cfg.fault_spec = FaultSpec{};  // Every hit.
    } else {
      cfg.fault_spec.probability = 0.5;
      cfg.fault_seed = 11;
    }
    SCOPED_TRACE(variant);
    SweepAllShapes(/*seed_base=*/320 + static_cast<uint64_t>(variant) * 1000, cfg,
                   /*trials=*/2);
  }
}

TEST(PruneDifferentialTest, ShardDispatchFaultsLoseTheSameRangeInBothArms) {
  // Dispatch is hit exactly once per shard regardless of pruning, so a
  // counted spec kills the same shard in both arms; serial keeps the hit
  // order deterministic.
  RunConfig cfg;
  cfg.num_shards = 4;
  cfg.fault_point = "engine.shard_dispatch";
  cfg.fault_spec.fire_on_hit = 2;  // The second shard of each run.
  cfg.fault_spec.sticky = false;
  SweepAllShapes(/*seed_base=*/400, cfg, /*trials=*/2);
}

// The strict (report-free) API: fault-free, pruning must preserve the exact
// hits and the OK status. (Faulting strict runs are out of scope by design:
// pruning may legitimately skip the very video whose failure the strict
// contract would surface, turning a failed call into a successful one.)
TEST(PruneDifferentialTest, StrictApiFaultFreeParity) {
  for (uint64_t seed = 440; seed < 444; ++seed) {
    Rng rng(seed);
    MetadataStore store;
    CorpusGenOptions corpus;
    corpus.num_videos = 12;
    corpus.video.levels = 2;
    corpus.selective_fraction = 0.4;
    corpus.seed = seed;
    GenerateCorpus(corpus, &store);
    FormulaPtr f = GenerateFormula(rng, FormulaGenOptions{});
    ASSERT_OK(Bind(f.get()));

    QueryOptions plain;
    plain.parallelism = 1;
    QueryOptions pruned = plain;
    pruned.prune = true;
    pruned.num_shards = 2;
    Retriever a(&store, plain);
    Retriever b(&store, pruned);
    Result<std::vector<SegmentHit>> want = a.TopSegments(*f, 2, 4);
    Result<std::vector<SegmentHit>> got = b.TopSegments(*f, 2, 4);
    ASSERT_EQ(want.ok(), got.ok()) << f->ToString();
    if (!want.ok()) {
      EXPECT_TRUE(want.status() == got.status()) << f->ToString();
      continue;
    }
    ASSERT_EQ(got.value().size(), want.value().size()) << f->ToString();
    for (size_t i = 0; i < got.value().size(); ++i) {
      EXPECT_EQ(got.value()[i].video, want.value()[i].video) << f->ToString();
      EXPECT_EQ(got.value()[i].segment, want.value()[i].segment);
      EXPECT_TRUE(got.value()[i].sim == want.value()[i].sim);
    }
  }
}

// Whole-video retrieval prunes at the root: same parity surface.
TEST(PruneDifferentialTest, TopVideosParityAcrossShardsAndPruning) {
  for (uint64_t seed = 480; seed < 484; ++seed) {
    Rng rng(seed);
    MetadataStore store;
    CorpusGenOptions corpus;
    corpus.num_videos = 12;
    corpus.video.levels = 2;
    corpus.selective_fraction = 0.4;
    corpus.seed = seed;
    GenerateCorpus(corpus, &store);
    FormulaPtr f = GenerateFormula(rng, FormulaGenOptions{});
    ASSERT_OK(Bind(f.get()));

    QueryOptions plain;
    plain.parallelism = 1;
    Retriever a(&store, plain);
    Result<VideoRetrieval> want = a.TopVideosWithReport(*f, 3);
    for (int shards : {1, 2, 8}) {
      SCOPED_TRACE(shards);
      QueryOptions pruned = plain;
      pruned.prune = true;
      pruned.num_shards = shards;
      Retriever b(&store, pruned);
      Result<VideoRetrieval> got = b.TopVideosWithReport(*f, 3);
      ASSERT_EQ(want.ok(), got.ok()) << f->ToString();
      if (!want.ok()) continue;
      ASSERT_EQ(got->hits.size(), want->hits.size()) << f->ToString();
      for (size_t i = 0; i < got->hits.size(); ++i) {
        EXPECT_EQ(got->hits[i].video, want->hits[i].video) << f->ToString();
        EXPECT_TRUE(got->hits[i].sim == want->hits[i].sim);
      }
      std::set<MetadataStore::VideoId> pruned_ids(got->report.pruned_videos.begin(),
                                                  got->report.pruned_videos.end());
      for (const VideoHit& h : got->hits) EXPECT_EQ(pruned_ids.count(h.video), 0u);
      EXPECT_EQ(got->report.videos_evaluated + got->report.videos_failed +
                    got->report.videos_pruned,
                want->report.videos_evaluated + want->report.videos_failed);
    }
  }
}

}  // namespace
}  // namespace htl
