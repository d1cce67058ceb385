#ifndef HTL_CACHE_LRU_CACHE_H_
#define HTL_CACHE_LRU_CACHE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "cache/cache_stats.h"
#include "engine/exec_context.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace htl::cache {

/// A thread-safe LRU cache with a byte-denominated capacity.
///
/// One unordered map of pointer-stable entries threaded on an intrusive LRU
/// list, under one mutex: the Retriever probes it once per query, so the
/// lock is never hot, and eviction answers to the whole budget. Values are
/// handed out as `shared_ptr<const V>`: a hit stays valid even if the entry
/// is evicted a microsecond later, and entries are immutable once published
/// (the determinism contract — DESIGN.md "Result caching").
///
/// Correctness under store appends uses epoch stamping: every entry
/// records the epoch its caller computed it at (the Retriever passes the
/// store's video count), and a lookup presenting a different epoch lazily
/// evicts the stale entry and reports a miss. Eviction is from the LRU tail
/// once `capacity_bytes` overflows.
///
/// GetOrCompute() adds a single-flight guard: concurrent callers of one
/// key run the compute once (the leader); waiters block on a per-key
/// flight, polling their own ExecContext so a waiter's deadline or
/// cancellation still aborts in bounded time. A leader whose compute fails
/// (deadline, cancel, injected fault) publishes nothing — the error never
/// poisons the cache — and its waiters retry, at most once becoming
/// leaders themselves.
///
/// Hit/miss/fill counters are relaxed atomics local to the cache and are
/// mirrored into obs::MetricsRegistry ("cache.<name>.hits", ...) when the
/// registry is enabled.
template <typename V>
class LruCache {
 public:
  using ValuePtr = std::shared_ptr<const V>;

  /// What a compute hands back to GetOrCompute: the value to return (and
  /// share with waiters), its byte cost, and whether it may be stored
  /// (`store = false` degrades to compute-without-caching — the fill-fault
  /// and partial-result paths).
  struct Fill {
    ValuePtr value;
    int64_t bytes = 0;
    bool store = true;
  };

  /// One probe's result; `value` is null on kMiss / kStale.
  struct Found {
    ValuePtr value;
    LookupOutcome outcome = LookupOutcome::kMiss;
  };

  /// `name` labels the registry metrics ("cache.<name>.hits", ...).
  LruCache(CacheConfig config, const std::string& name) : config_(config) {
    lru_.prev = lru_.next = &lru_;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
    reg_hits_ = reg.GetCounter("cache." + name + ".hits");
    reg_misses_ = reg.GetCounter("cache." + name + ".misses");
    reg_stale_ = reg.GetCounter("cache." + name + ".stale");
    reg_fills_ = reg.GetCounter("cache." + name + ".fills");
    reg_evictions_ = reg.GetCounter("cache." + name + ".evictions");
    reg_shared_ = reg.GetCounter("cache." + name + ".shared_waits");
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Probes `key` at `epoch`. A present entry stamped with a different
  /// epoch is evicted here (lazy invalidation) and reported as kStale.
  Found Get(const std::string& key, uint64_t epoch) {
    MutexLock lock(&mu_);
    return GetLocked(key, epoch);
  }

  /// Publishes `value` for `key` at `epoch`, replacing any existing entry
  /// and evicting LRU tails while the cache overflows its capacity.
  void Put(const std::string& key, uint64_t epoch, ValuePtr value, int64_t bytes) {
    HTL_CHECK(value != nullptr);
    if (bytes < 1) bytes = 1;  // Every entry occupies at least one byte.
    MutexLock lock(&mu_);
    auto [it, inserted] = map_.try_emplace(key);
    Entry& e = it->second;
    if (!inserted) {
      bytes_ -= e.bytes;
      Unlink(&e);
    }
    e.epoch = epoch;
    e.value = std::move(value);
    e.bytes = bytes;
    e.key = &it->first;
    PushFront(&e);
    bytes_ += bytes;
    Count(fills_, reg_fills_);
    EvictOverflowLocked();
  }

  /// The single-flight cached compute described in the class comment.
  /// `compute` is `Result<Fill>()`; it runs outside every cache lock, on
  /// the leader's thread and under the leader's own ExecContext (captured
  /// by the closure). Waiters poll `ctx` (null = wait without limits).
  template <typename Compute>
  Result<ValuePtr> GetOrCompute(const std::string& key, uint64_t epoch,
                                ExecContext* ctx, const Compute& compute) {
    for (;;) {
      std::shared_ptr<Flight> flight;
      bool leader = false;
      {
        MutexLock lock(&mu_);
        // Double-check under the lock: a racing leader may have published
        // between the caller's probe and this call. The re-probe is silent
        // on miss (the caller's probe already counted it); only a genuine
        // late hit is counted.
        Found found = GetLocked(key, epoch, /*count_miss=*/false);
        if (found.value != nullptr) return found.value;
        auto it = flights_.find(key);
        if (it != flights_.end()) {
          flight = it->second;
        } else {
          flight = std::make_shared<Flight>();
          flights_.emplace(key, flight);
          leader = true;
        }
      }
      if (leader) return Lead(key, epoch, *flight, compute);

      // Waiter: block until the leader resolves. The coarse timed wait
      // bounds how late this thread notices its own deadline or a cancel
      // (the leader keeps computing under its own context either way).
      {
        Flight& f = *flight;  // One deref: the analysis tracks `f.mu`.
        MutexLock fl(&f.mu);
        while (!f.done) {
          if (ctx != nullptr) {
            Status s = ctx->Check();
            if (!s.ok()) return s;
          }
          f.cv.WaitFor(f.mu, std::chrono::milliseconds(1));
        }
        if (f.ok) {
          Count(shared_waits_, reg_shared_);
          return f.value;
        }
      }
      // The leader failed; its status must not leak to waiters whose own
      // contexts are healthy. Loop: re-probe (another leader may have
      // succeeded) or become the leader and compute under our own context.
    }
  }

  /// Drops every resident entry (flights in progress are unaffected; they
  /// publish into the emptied table when they finish).
  void Clear() {
    MutexLock lock(&mu_);
    map_.clear();
    lru_.prev = lru_.next = &lru_;
    bytes_ = 0;
  }

  /// Detached counter snapshot plus the current resident totals.
  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stale = stale_.load(std::memory_order_relaxed);
    s.fills = fills_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.shared_waits = shared_waits_.load(std::memory_order_relaxed);
    MutexLock lock(&mu_);
    s.bytes = bytes_;
    s.entries = static_cast<int64_t>(map_.size());
    return s;
  }

 private:
  /// One resident entry. Lives in map_ (node-based, so the address is
  /// stable) and is threaded on the intrusive LRU list; `key` points at the
  /// owning map node's key for tail eviction.
  struct Entry {
    uint64_t epoch = 0;
    ValuePtr value;
    int64_t bytes = 0;
    Entry* prev = nullptr;
    Entry* next = nullptr;
    const std::string* key = nullptr;
  };

  /// One in-progress single-flight compute; waiters block on `cv`.
  struct Flight {
    Mutex mu;
    CondVar cv;
    bool done HTL_GUARDED_BY(mu) = false;
    bool ok HTL_GUARDED_BY(mu) = false;
    ValuePtr value HTL_GUARDED_BY(mu);  // Shared with waiters even when not stored.
  };

  static void Unlink(Entry* e) {
    e->prev->next = e->next;
    e->next->prev = e->prev;
    e->prev = e->next = nullptr;
  }

  void PushFront(Entry* e) HTL_REQUIRES(mu_) {
    e->prev = &lru_;
    e->next = lru_.next;
    lru_.next->prev = e;
    lru_.next = e;
  }

  void Count(std::atomic<int64_t>& local, obs::Counter* mirror) {
    local.fetch_add(1, std::memory_order_relaxed);
    if (obs::MetricsRegistry::Enabled()) mirror->Increment();
  }

  /// `count_miss = false` makes a miss/stale outcome silent in the stats —
  /// used by GetOrCompute's internal double-check so one logical lookup
  /// (probe, then compute) is not counted as two misses.
  Found GetLocked(const std::string& key, uint64_t epoch, bool count_miss = true)
      HTL_REQUIRES(mu_) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      if (count_miss) Count(misses_, reg_misses_);
      return Found{nullptr, LookupOutcome::kMiss};
    }
    Entry& e = it->second;
    if (e.epoch != epoch) {
      bytes_ -= e.bytes;
      Unlink(&e);
      map_.erase(it);
      if (count_miss) {
        Count(misses_, reg_misses_);
        Count(stale_, reg_stale_);
      }
      return Found{nullptr, LookupOutcome::kStale};
    }
    Unlink(&e);
    PushFront(&e);
    Count(hits_, reg_hits_);
    return Found{e.value, LookupOutcome::kHit};
  }

  void EvictOverflowLocked() HTL_REQUIRES(mu_) {
    while (bytes_ > config_.capacity_bytes && lru_.prev != &lru_) {
      Entry* tail = lru_.prev;
      bytes_ -= tail->bytes;
      Unlink(tail);
      Count(evictions_, reg_evictions_);
      // Copied: erasing through a reference into the node being destroyed
      // would have the map hash a key it is freeing.
      const std::string victim = *tail->key;
      map_.erase(victim);
    }
  }

  /// Runs the leader's side of one flight: compute (no locks held),
  /// publish on store-worthy success, then resolve the flight for the
  /// waiters. The flight is removed before waiters wake, so a failed
  /// compute lets the next arrival start a fresh flight immediately.
  template <typename Compute>
  Result<ValuePtr> Lead(const std::string& key, uint64_t epoch, Flight& flight,
                        const Compute& compute) HTL_EXCLUDES(mu_, flight.mu) {
    Result<Fill> result = compute();
    ValuePtr out;
    if (result.ok()) {
      out = result.value().value;
      HTL_CHECK(out != nullptr) << "single-flight compute returned a null value";
      if (result.value().store) Put(key, epoch, out, result.value().bytes);
    }
    {
      MutexLock lock(&mu_);
      flights_.erase(key);
    }
    {
      MutexLock lock(&flight.mu);
      flight.done = true;
      flight.ok = result.ok();
      flight.value = out;
    }
    flight.cv.NotifyAll();
    if (!result.ok()) return result.status();
    return out;
  }

  const CacheConfig config_;
  mutable Mutex mu_;
  std::unordered_map<std::string, Entry> map_ HTL_GUARDED_BY(mu_);
  // Sentinel: lru_.next is most recent, lru_.prev the tail.
  Entry lru_ HTL_GUARDED_BY(mu_);
  int64_t bytes_ HTL_GUARDED_BY(mu_) = 0;
  // In-flight computes by key; the flight's own mutex only guards its
  // done/value hand-off, never nested with `mu_`.
  std::map<std::string, std::shared_ptr<Flight>> flights_ HTL_GUARDED_BY(mu_);

  // Local stats (see CacheStats) ...
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> stale_{0};
  std::atomic<int64_t> fills_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> shared_waits_{0};
  // ... and their process-registry mirrors (bumped only while enabled).
  obs::Counter* reg_hits_ = nullptr;
  obs::Counter* reg_misses_ = nullptr;
  obs::Counter* reg_stale_ = nullptr;
  obs::Counter* reg_fills_ = nullptr;
  obs::Counter* reg_evictions_ = nullptr;
  obs::Counter* reg_shared_ = nullptr;
};

}  // namespace htl::cache

#endif  // HTL_CACHE_LRU_CACHE_H_
