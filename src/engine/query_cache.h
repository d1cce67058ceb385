#ifndef HTL_ENGINE_QUERY_CACHE_H_
#define HTL_ENGINE_QUERY_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "cache/cache_stats.h"
#include "cache/lru_cache.h"
#include "engine/exec_context.h"
#include "engine/query_options.h"
#include "engine/retrieval.h"
#include "obs/trace.h"
#include "util/result.h"

namespace htl {

/// One cached whole-query result: the ranked hits plus the report
/// counters. The profile is intentionally left empty — profiles describe
/// the run that produced them; a hit's profile is its own `cache.lookup`
/// span. Only complete reports (no failed videos) are ever stored, so
/// replaying a hit is bit-identical to recomputing on the same healthy
/// store.
struct CachedQueryResult : SegmentRetrieval {
  /// Approximate resident cost charged against the cache capacity.
  int64_t ByteSize() const;
};

/// The per-Retriever whole-query result cache. Constructed only when
/// QueryOptions::cache_mode != kOff, so the off mode carries no cache
/// state at all.
class QueryCaches {
 public:
  using ResultPtr = std::shared_ptr<const CachedQueryResult>;

  explicit QueryCaches(const QueryOptions& options);

  /// Cached execution of one whole query: probe (annotating a
  /// `cache.lookup` span with hit / miss / stale), then run `cold` under
  /// the single-flight guard and publish the result when it is complete
  /// (`cache.fill` span notes stored / skipped). An injected
  /// `cache.lookup` fault bypasses the cache for this call; a `cache.fill`
  /// fault skips only the store. `cold` is `Result<CachedQueryResult>()`
  /// and runs on the caller's (or flight leader's) thread under its own
  /// ExecContext; a failing leader publishes nothing and waiters
  /// recompute for themselves.
  template <typename Cold>
  Result<ResultPtr> GetOrRun(const std::string& key, uint64_t epoch, ExecContext* ctx,
                             obs::QueryTrace* trace, const Cold& cold) {
    {
      HTL_OBS_SPAN(span, trace, "cache.lookup");
      if (LookupFaulted()) {
        span.SetNote("bypass (lookup fault)");
        HTL_ASSIGN_OR_RETURN(CachedQueryResult r, cold());
        return std::make_shared<const CachedQueryResult>(std::move(r));
      }
      const auto found = results_.Get(key, epoch);
      span.SetNote(std::string(cache::LookupOutcomeName(found.outcome)));
      if (found.value != nullptr) return found.value;
    }
    using ResultLru = cache::LruCache<CachedQueryResult>;
    return results_.GetOrCompute(
        key, epoch, ctx, [&]() -> Result<ResultLru::Fill> {
          HTL_ASSIGN_OR_RETURN(CachedQueryResult r, cold());
          ResultLru::Fill fill;
          fill.bytes = r.ByteSize();
          const bool complete = r.report.complete();
          fill.value = std::make_shared<const CachedQueryResult>(std::move(r));
          HTL_OBS_SPAN(span, trace, "cache.fill");
          if (!complete) {
            fill.store = false;
            span.SetNote("skipped (partial result)");
          } else if (FillFaulted()) {
            fill.store = false;
            span.SetNote("skipped (fill fault)");
          } else {
            span.SetNote("stored");
          }
          return fill;
        });
  }

  cache::CacheStats result_stats() const { return results_.stats(); }

  /// Drops every resident entry.
  void Clear() { results_.Clear(); }

 private:
  static bool LookupFaulted();
  static bool FillFaulted();

  cache::LruCache<CachedQueryResult> results_;
};

}  // namespace htl

#endif  // HTL_ENGINE_QUERY_CACHE_H_
