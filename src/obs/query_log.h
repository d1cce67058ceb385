#ifndef HTL_OBS_QUERY_LOG_H_
#define HTL_OBS_QUERY_LOG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace htl::obs {

/// One wide event: everything the service learned about one request, flat in
/// a single record (DESIGN.md "Telemetry plane"). Aggregate metrics answer
/// "how much"; the wide event answers "which request" — filter by
/// fingerprint, formula class, or degraded flag without correlating streams.
///
/// Fields that require a trace (formula_class, cache_hit, rows, tables) are
/// zero/empty when the request never reached retrieval: it was refused,
/// undecodable, drained, failed by an injected net.session fault, asked for
/// k below 1, or did not parse. A request that reached retrieval and then
/// failed as a whole (a level below 1, an expired deadline) keeps the trace
/// it ran under. The fields describe what the service knew, not what it
/// might have known.
struct QueryLogRecord {
  uint64_t id = 0;            // Assigned by QueryLog::Record; monotonic from 1.
  uint64_t fingerprint = 0;   // FNV-1a of the raw query text (htl/fingerprint).
  std::string query;          // Raw text, truncated to Options::max_query_bytes.
  std::string formula_class;  // stage.classify note, e.g. "type(2)" (traced only).
  uint8_t kind = 0;           // net::QueryKind byte (0xFF: request undecodable).
  uint8_t wire_status = 0;    // net::WireStatus byte of the response sent.
  bool degraded = false;      // Served under shed budgets (soft watermark).
  bool partial = false;       // Some videos failed/degraded (RetrievalReport).
  bool use_cache = false;     // Request asked for the query cache.
  bool cache_hit = false;     // cache.lookup span noted "hit" (traced only).
  int32_t level = 0;          // Hierarchy level queried.
  int64_t k = 0;              // Requested hit budget.
  int64_t deadline_ms = 0;    // Effective deadline applied to the ExecContext.
  int64_t decode_us = 0;      // Read + decode the request frame.
  int64_t execute_us = 0;     // Engine evaluation.
  int64_t encode_us = 0;      // Encode + write the response frame.
  int64_t total_us = 0;       // Whole exchange, accept to last byte.
  int64_t rows = 0;           // Rows charged, summed over per-video spans.
  int64_t tables = 0;         // Tables charged, summed over per-video spans.
  int64_t videos_evaluated = 0;
  int64_t videos_failed = 0;
};

/// Bounded in-memory ring of wide-event records, plus threshold/sampled
/// retention of full QueryProfile trees for the interesting ones — the
/// backing store of the admin `slowlog` verb.
///
/// Every request appends one record (cheap: one lock, a few string copies).
/// The full profile — orders of magnitude bigger — is kept only when the
/// request was slow (total_us >= slow_threshold_us) or sampled (every
/// sample_every-th record), and at most max_retained_profiles at once, so
/// memory stays bounded no matter the traffic shape.
///
/// Thread-safe; every method may be called concurrently with every other.
class QueryLog {
 public:
  struct Options {
    /// Ring capacity in records; oldest records are overwritten.
    size_t capacity = 256;

    /// Retain the full profile for requests at least this slow. 0 retains
    /// every traced request's profile (tests); negative disables threshold
    /// retention entirely.
    int64_t slow_threshold_us = 100'000;

    /// Also retain every Nth record's profile regardless of latency, so the
    /// slowlog holds exemplars of healthy traffic too. 0 disables sampling.
    int64_t sample_every = 0;

    /// Upper bound on simultaneously retained profiles; retaining a new one
    /// beyond this evicts the oldest retained profile (its record stays).
    size_t max_retained_profiles = 16;

    /// Query text is truncated to this many bytes before storing.
    size_t max_query_bytes = 256;
  };

  /// One ring slot: the wide event, plus the full profile when retained.
  struct Entry {
    QueryLogRecord record;
    std::shared_ptr<const QueryProfile> profile;  // Null unless retained.
  };

  QueryLog() : QueryLog(Options{}) {}
  explicit QueryLog(Options options);

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Appends one wide event and returns its assigned id. `profile` is the
  /// request's trace (empty when the request ran untraced); it is retained
  /// per the Options policy above, otherwise dropped.
  uint64_t Record(QueryLogRecord record, QueryProfile profile = QueryProfile{});

  /// The most recent min(n, size) entries, newest first. Retained profiles
  /// are shared, not copied — safe to hold across later Record calls.
  std::vector<Entry> Tail(size_t n) const;

  /// The retained profile for record `id`, or for the newest record with a
  /// retained profile when `id` is 0. Null when nothing matches.
  std::shared_ptr<const QueryProfile> ProfileFor(uint64_t id) const;

  /// JSON object {"count": N, "records": [...]} over the newest min(n, size)
  /// records, newest first. Each record carries "has_profile" so a slowlog
  /// consumer knows which ids the admin `trace` verb can export.
  std::string ToJson(size_t n) const;

  /// Records ever appended (== the id of the newest record).
  uint64_t total_recorded() const;
  /// Records currently held (<= capacity).
  size_t size() const;
  /// Profiles currently retained (<= max_retained_profiles).
  size_t retained_profiles() const;

  const Options& options() const { return options_; }

 private:
  bool ShouldRetain(const QueryLogRecord& record) const;

  const Options options_;

  mutable Mutex mu_;
  /// Fixed-capacity ring; slot for id `i` is (i - 1) % capacity.
  std::vector<Entry> ring_ HTL_GUARDED_BY(mu_);
  uint64_t next_id_ HTL_GUARDED_BY(mu_) = 1;
  size_t retained_ HTL_GUARDED_BY(mu_) = 0;
};

}  // namespace htl::obs

#endif  // HTL_OBS_QUERY_LOG_H_
