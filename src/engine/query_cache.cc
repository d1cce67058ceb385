#include "engine/query_cache.h"

#include "util/fault_point.h"

namespace htl {

int64_t CachedQueryResult::ByteSize() const {
  int64_t bytes = static_cast<int64_t>(sizeof(CachedQueryResult));
  bytes += static_cast<int64_t>(hits.size() * sizeof(SegmentHit));
  // Failures are only resident transiently (partial results are never
  // stored, but the value is still shared with single-flight waiters).
  bytes += static_cast<int64_t>(report.failures.size() *
                                (sizeof(RetrievalReport::VideoFailure) + 64));
  // Pruned-video ids are corpus-sized, not result-sized: charge them so a
  // selective query over a large store pays its true cache footprint.
  bytes += static_cast<int64_t>(report.pruned_videos.size() *
                                sizeof(MetadataStore::VideoId));
  return bytes;
}

QueryCaches::QueryCaches(const QueryOptions& options)
    : results_(cache::CacheConfig{options.result_cache_bytes}, "result") {}

bool QueryCaches::LookupFaulted() {
  // By hand rather than HTL_FAULT_POINT: the injected error must degrade
  // to a cache bypass, not propagate out of the query.
  return FaultRegistry::Armed() &&
         !FaultRegistry::Instance().Hit("cache.lookup").ok();
}

bool QueryCaches::FillFaulted() {
  return FaultRegistry::Armed() && !FaultRegistry::Instance().Hit("cache.fill").ok();
}

}  // namespace htl
