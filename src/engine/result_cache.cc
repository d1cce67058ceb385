#include "engine/result_cache.h"

#include <chrono>
#include <utility>

#include "model/video.h"
#include "obs/metrics.h"
#include "util/fault_point.h"

namespace htl {
namespace {

// What an entry is charged against the budget.
int64_t ByteSize(const SegmentRetrieval& r) {
  int64_t bytes = static_cast<int64_t>(sizeof(SegmentRetrieval));
  bytes += static_cast<int64_t>(r.hits.size() * sizeof(SegmentHit));
  // Failures are only resident transiently (partial results are never
  // stored, but the value is still shared with single-flight waiters).
  bytes += static_cast<int64_t>(r.report.failures.size() *
                                (sizeof(RetrievalReport::VideoFailure) + 64));
  // Pruned-video ids are corpus-sized, not result-sized: charge them so a
  // selective query over a large store pays its true cache footprint.
  bytes += static_cast<int64_t>(r.report.pruned_videos.size() *
                                sizeof(MetadataStore::VideoId));
  return bytes;
}

// By hand rather than HTL_FAULT_POINT: an injected error degrades the cache
// (a bypass, a skipped store) and never propagates out of the query.
bool Faulted(std::string_view point) {
  return FaultRegistry::Armed() && !FaultRegistry::Instance().Hit(point).ok();
}

}  // namespace

ResultCache::ResultCache(int64_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

ResultCache::~ResultCache() = default;

Result<SegmentRetrieval> ResultCache::GetOrRun(const std::string& key, uint64_t stamp,
                                               ExecContext* ctx, const Cold& cold) {
  obs::QueryTrace* trace = ctx != nullptr ? ctx->trace() : nullptr;
  {
    HTL_OBS_SPAN(span, trace, "cache.lookup");
    if (Faulted("cache.lookup")) {
      span.SetNote("bypass (lookup fault)");
      return cold();
    }
    bool stale = false;
    ValuePtr hit;
    {
      MutexLock lock(&mu_);
      hit = FindLocked(key, stamp, &stale);
    }
    if (hit != nullptr) {
      HTL_OBS_COUNT("cache.result.hits", 1);
      span.SetNote("hit");
      return *hit;
    }
    HTL_OBS_COUNT("cache.result.misses", 1);
    if (stale) HTL_OBS_COUNT("cache.result.stale", 1);
    span.SetNote(stale ? "miss (stale epoch)" : "miss");
  }
  for (;;) {
    std::shared_ptr<Flight> flight;
    bool leader = false;
    ValuePtr late;
    {
      MutexLock lock(&mu_);
      // A racing leader may have published since the probe. The re-probe is
      // silent on a miss, which the probe already counted.
      bool stale = false;
      late = FindLocked(key, stamp, &stale);
      if (late == nullptr) {
        std::shared_ptr<Flight>& slot = flights_[key];
        leader = slot == nullptr;
        if (leader) slot = std::make_shared<Flight>();
        flight = slot;
      }
    }
    if (late != nullptr) {
      HTL_OBS_COUNT("cache.result.hits", 1);
      return *late;
    }
    if (leader) return Lead(key, stamp, trace, cold, *flight);

    ValuePtr shared;
    {
      Flight& f = *flight;  // One deref: the analysis tracks `f.mu`.
      MutexLock lock(&f.mu);
      while (!f.done) {
        if (ctx != nullptr) HTL_RETURN_IF_ERROR(ctx->Check());
        f.cv.WaitFor(f.mu, std::chrono::milliseconds(1));
      }
      shared = f.value;
    }
    if (shared != nullptr) {
      HTL_OBS_COUNT("cache.result.shared_waits", 1);
      return *shared;
    }
    // The leader failed; its status must not leak to a waiter whose own
    // context is healthy. Re-probe, or lead under this context.
  }
}

Result<SegmentRetrieval> ResultCache::Lead(const std::string& key, uint64_t stamp,
                                           obs::QueryTrace* trace, const Cold& cold,
                                           Flight& flight) {
  Result<SegmentRetrieval> result = cold();
  ValuePtr value;
  if (result.ok()) {
    value = std::make_shared<const SegmentRetrieval>(std::move(result).value());
    HTL_OBS_SPAN(span, trace, "cache.fill");
    if (!value->report.complete()) {
      span.SetNote("skipped (partial result)");
    } else if (Faulted("cache.fill")) {
      span.SetNote("skipped (fill fault)");
    } else {
      span.SetNote("stored");
      Put(key, stamp, value);
    }
  }
  // The flight leaves the table before its waiters wake, so after a failure
  // the next arrival can lead at once.
  {
    MutexLock lock(&mu_);
    flights_.erase(key);
  }
  {
    MutexLock lock(&flight.mu);
    flight.done = true;
    flight.value = value;
  }
  flight.cv.NotifyAll();
  if (value == nullptr) return result.status();
  return *value;
}

ResultCache::ValuePtr ResultCache::FindLocked(std::string_view key, uint64_t stamp,
                                              bool* stale) {
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  const Lru::iterator entry = it->second;
  if (entry->stamp != stamp) {
    *stale = true;
    bytes_ -= entry->bytes;
    map_.erase(it);
    lru_.erase(entry);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, entry);
  return entry->value;
}

void ResultCache::Put(const std::string& key, uint64_t stamp, ValuePtr value) {
  const int64_t bytes = ByteSize(*value);
  MutexLock lock(&mu_);
  if (const auto it = map_.find(key); it != map_.end()) {
    const Lru::iterator old = it->second;
    bytes_ -= old->bytes;
    map_.erase(it);
    lru_.erase(old);
  }
  lru_.push_front(Entry{key, stamp, std::move(value), bytes});
  map_.emplace(lru_.front().key, lru_.begin());
  bytes_ += bytes;
  HTL_OBS_COUNT("cache.result.fills", 1);
  while (bytes_ > capacity_bytes_ && !lru_.empty()) {
    bytes_ -= lru_.back().bytes;
    map_.erase(lru_.back().key);
    lru_.pop_back();
    HTL_OBS_COUNT("cache.result.evictions", 1);
  }
}

void ResultCache::Clear() {
  MutexLock lock(&mu_);
  map_.clear();
  lru_.clear();
  bytes_ = 0;
}

int64_t ResultCache::bytes() const {
  MutexLock lock(&mu_);
  return bytes_;
}

int64_t ResultCache::entries() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(lru_.size());
}

}  // namespace htl
