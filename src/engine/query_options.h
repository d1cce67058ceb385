#ifndef HTL_ENGINE_QUERY_OPTIONS_H_
#define HTL_ENGINE_QUERY_OPTIONS_H_

#include <cstdint>

#include "picture/picture_system.h"

namespace htl {

class ThreadPool;

/// Whether the retriever's result cache answers repeated queries (see
/// DESIGN.md "Result caching"). Off is the default: the historical
/// recompute-everything path, bit for bit, with no cache machinery
/// constructed at all.
enum class CacheMode {
  kOff,        // No cache; no key derivation; zero overhead.
  kReadWrite,  // Serve hits and publish fills (single-flighted).
};

/// How the `and` connective combines similarity values — the paper's
/// section 5 names "other similarity functions" as future work; both
/// engines implement two:
enum class AndSemantics {
  /// The paper's semantics (section 2.5): actuals and maxima add, so the
  /// fraction is the weighted average of the operands' fractions.
  kSum,
  /// Fuzzy conjunction: the fraction is the minimum of the operands'
  /// fractions (actual' = min(frac_g, frac_h) * (max_g + max_h), keeping
  /// max a function of the formula alone). Conjunctions *inside* atomic
  /// formulas always use weighted-sum partial matching — that is the
  /// picture system's scoring — regardless of this knob.
  kFuzzyMin,
};

/// Options shared by the direct and reference engines.
struct QueryOptions {
  /// The minimum fractional similarity the left operand of `until` must
  /// reach for the temporal chain to extend (section 2.5 defines `until`
  /// via such a threshold; the paper leaves its value a system parameter).
  double until_threshold = 0.5;

  /// Similarity function for non-atomic conjunctions.
  AndSemantics and_semantics = AndSemantics::kSum;

  /// Worker count for per-video parallel retrieval. `1` runs today's serial
  /// path bit-for-bit (same loop, same caller thread, zero pool overhead);
  /// `0` means ThreadPool::DefaultParallelism() (hardware concurrency).
  /// Parallel output is guaranteed identical to serial output — see
  /// DESIGN.md "Parallel execution" for the determinism contract.
  int parallelism = 0;

  /// Pool to run on when parallelism > 1; null means ThreadPool::Shared().
  /// Borrowed, not owned — must outlive queries issued with these options.
  ThreadPool* thread_pool = nullptr;

  /// Whole-query result caching (off by default). Cached output is
  /// bit-identical to the cold path — hits replay a complete prior result
  /// over the same store contents; partial (failed-video) results are never
  /// cached. Hits do not re-charge per-video budgets.
  CacheMode cache_mode = CacheMode::kOff;

  /// Byte capacity of the whole-query result cache.
  int64_t result_cache_bytes = 4 * 1024 * 1024;

  /// Bound-based top-k pruning (off by default): derive a cheap per-video
  /// upper bound on the attainable fractional similarity (htl/bound.h over
  /// VideoStats) and skip whole videos whose bound falls below the running
  /// global top-k floor. Ranked output is bit-identical to the unpruned
  /// path (proven by tests/property/prune_differential_test.cc); skipped
  /// videos are reported in RetrievalReport::videos_pruned/pruned_videos.
  /// See DESIGN.md "Scale-out retrieval".
  bool prune = false;

  /// Unread: no value changes a result or the partitioning, which is
  /// `parallelism`'s alone. Kept only because bench_e2e/load.cc assigns it;
  /// delete it with that line.
  int num_shards = 1;

  /// Options forwarded to the picture-retrieval substrate.
  PictureOptions picture;
};

}  // namespace htl

#endif  // HTL_ENGINE_QUERY_OPTIONS_H_
