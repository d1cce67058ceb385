#ifndef HTL_ENGINE_RESULT_CACHE_H_
#define HTL_ENGINE_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "engine/exec_context.h"
#include "engine/retrieval.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace htl {

/// The Retriever's whole-query result cache, owned when
/// QueryOptions::cache_mode == kReadWrite: ranked retrievals (hits plus
/// report, never a profile) in one LRU list under one byte budget
/// (QueryOptions::result_cache_bytes) and one mutex. A query probes it once,
/// so the lock is never hot. Each entry is charged its hits, failures and
/// pruned ids.
///
/// Only complete reports are stored, so a hit is bit-identical to a cold run
/// on the same store. Each entry is stamped with the store's video count
/// (the store is append-only); a lookup presenting another stamp evicts the
/// entry and counts a miss and a stale.
///
/// Single flight: concurrent callers of one key run the cold path once. The
/// leader computes with no cache lock held, under its own ExecContext;
/// waiters poll their own contexts every 1 ms, so a waiter's deadline or
/// cancel still ends its wait. A failed leader publishes nothing and its
/// waiters retry, one of them becoming the next leader.
///
/// Counts live only in the metrics registry, under
/// `cache.result.{hits,misses,stale,fills,evictions,shared_waits}`, and move
/// only while it is enabled. One logical lookup counts once. The
/// `cache.lookup` and `cache.fill` spans note what happened (hit, miss,
/// stale, bypass, stored, skipped), and the fault points of the same names
/// degrade to a bypass and to a run without a store.
class ResultCache {
 public:
  using Cold = std::function<Result<SegmentRetrieval>()>;

  explicit ResultCache(int64_t capacity_bytes);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;
  ~ResultCache();

  /// The answer for `key` at `stamp`: a resident entry, a concurrent
  /// leader's result, or `cold()` run on this thread and stored when its
  /// report is complete. Spans go to the trace `ctx` carries.
  Result<SegmentRetrieval> GetOrRun(const std::string& key, uint64_t stamp,
                                    ExecContext* ctx, const Cold& cold);

  /// Drops every resident entry. Flights in progress are unaffected; they
  /// publish into the emptied cache when they finish.
  void Clear();

  /// Resident payload bytes and entries right now.
  int64_t bytes() const;
  int64_t entries() const;

 private:
  using ValuePtr = std::shared_ptr<const SegmentRetrieval>;

  struct Entry {
    std::string key;
    uint64_t stamp = 0;
    ValuePtr value;
    int64_t bytes = 0;
  };
  using Lru = std::list<Entry>;  // Most recent first.

  /// One in-progress cold run; waiters block on `cv` until `done`. `value`
  /// stays null when the leader failed.
  struct Flight {
    Mutex mu;
    CondVar cv;
    bool done HTL_GUARDED_BY(mu) = false;
    ValuePtr value HTL_GUARDED_BY(mu);
  };

  /// The entry for `key` at `stamp`, moved to the front, or null. An entry
  /// with another stamp is evicted and sets `*stale`. Counts nothing.
  ValuePtr FindLocked(std::string_view key, uint64_t stamp, bool* stale)
      HTL_REQUIRES(mu_);

  /// Publishes `value`, replacing any entry for `key`, then evicts from the
  /// tail while the cache is over budget.
  void Put(const std::string& key, uint64_t stamp, ValuePtr value) HTL_EXCLUDES(mu_);

  /// The leader's side of one flight: run `cold` with no lock held, store a
  /// complete result, then resolve the flight for its waiters.
  Result<SegmentRetrieval> Lead(const std::string& key, uint64_t stamp,
                                obs::QueryTrace* trace, const Cold& cold, Flight& flight)
      HTL_EXCLUDES(mu_, flight.mu);

  const int64_t capacity_bytes_;
  mutable Mutex mu_;
  Lru lru_ HTL_GUARDED_BY(mu_);
  // Keys view the owning list entry's `key`.
  std::unordered_map<std::string_view, Lru::iterator> map_ HTL_GUARDED_BY(mu_);
  int64_t bytes_ HTL_GUARDED_BY(mu_) = 0;
  // A flight's own mutex is never taken with `mu_` held.
  std::map<std::string, std::shared_ptr<Flight>> flights_ HTL_GUARDED_BY(mu_);
};

}  // namespace htl

#endif  // HTL_ENGINE_RESULT_CACHE_H_
