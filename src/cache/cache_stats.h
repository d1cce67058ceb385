#ifndef HTL_CACHE_CACHE_STATS_H_
#define HTL_CACHE_CACHE_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace htl::cache {

/// Sizing of one cache. Capacity is counted in payload bytes (the cost the
/// client declares per entry); the cache evicts from its LRU tail once the
/// total overflows.
struct CacheConfig {
  int64_t capacity_bytes = 8 * 1024 * 1024;
};

/// Point-in-time counters of one cache. The live cells are relaxed atomics
/// local to the cache (mirrored into obs::MetricsRegistry when it is
/// enabled), so tests can assert on them without racing the registry's
/// ResetAll churn. `hits + misses` counts every lookup; `stale` is the
/// subset of misses evicted lazily because their epoch fell behind.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t stale = 0;          // Epoch-invalidated entries evicted on lookup.
  int64_t fills = 0;
  int64_t evictions = 0;      // Capacity evictions (stale ones count above).
  int64_t shared_waits = 0;   // Single-flight waiters served by a leader.
  int64_t bytes = 0;          // Resident payload bytes right now.
  int64_t entries = 0;        // Resident entries right now.

  /// One-line human-readable summary for logs and benches.
  std::string ToString() const;
};

/// What one cache probe found — surfaced so clients can annotate profile
/// spans ("hit" / "miss" / "miss (stale epoch)").
enum class LookupOutcome {
  kHit,
  kMiss,
  kStale,  // Present but stamped with another epoch; evicted, counts as miss.
};

/// Span/log note for an outcome.
std::string_view LookupOutcomeName(LookupOutcome outcome);

}  // namespace htl::cache

#endif  // HTL_CACHE_CACHE_STATS_H_
