#include "engine/query_cache.h"

#include "util/fault_point.h"
#include "util/string_util.h"

namespace htl {

int64_t CachedQueryResult::ByteSize() const {
  int64_t bytes = static_cast<int64_t>(sizeof(CachedQueryResult));
  bytes += static_cast<int64_t>(segment_hits.size() * sizeof(SegmentHit));
  bytes += static_cast<int64_t>(video_hits.size() * sizeof(VideoHit));
  // Failures are only resident transiently (partial results are never
  // stored, but the value is still shared with single-flight waiters).
  bytes += static_cast<int64_t>(report.failures.size() *
                                (sizeof(RetrievalReport::VideoFailure) + 64));
  // Pruned-video ids are corpus-sized, not result-sized: charge them so a
  // selective query over a large store pays its true cache footprint.
  bytes += static_cast<int64_t>(report.pruned_videos.size() *
                                sizeof(MetadataStore::VideoId));
  bytes += static_cast<int64_t>(report.shard_failures.size() *
                                (sizeof(RetrievalReport::ShardFailure) + 64));
  return bytes;
}

std::string OptionsFingerprint(const QueryOptions& options) {
  // prune and num_shards never change the ranked output (the differential
  // battery proves bit-identity), but the *reports* they cache differ
  // (videos_pruned, shard partitioning), so they key separately.
  return StrCat("u", options.until_threshold, "|a",
                options.and_semantics == AndSemantics::kFuzzyMin ? "min" : "sum",
                "|mb", options.picture.max_bindings, "|p",
                options.prune ? 1 : 0, "|s", options.num_shards < 1 ? 1 : options.num_shards);
}

QueryCaches::QueryCaches(const QueryOptions& options)
    : mode_(options.cache_mode),
      results_(cache::CacheConfig{options.result_cache_bytes, options.cache_shards},
               "result"),
      lists_(cache::CacheConfig{options.list_cache_bytes, options.cache_shards}) {}

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
