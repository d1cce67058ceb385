#ifndef HTL_NET_PROTOCOL_H_
#define HTL_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace htl::net {

/// Protocol version spoken by this tree. A server answers a request whose
/// version it does not speak with kWireInvalidArgument (never by guessing).
inline constexpr uint8_t kProtocolVersion = 1;

/// Which evaluation backend a request runs on — the paper's two systems
/// plus whole-video browsing:
enum class QueryKind : uint8_t {
  /// HTL text -> Retriever::TopSegmentsProfiled (direct/reference engines)
  /// at `level`, top-k segments over the whole store.
  kHtlSegments = 0,
  /// HTL text -> Retriever::TopSegmentsProfiled at level 1, which holds
  /// exactly the root: whole videos, ranked with the query asserted at the
  /// root.
  kHtlVideos = 1,
  /// HTL text -> the SQL-based second system (section 4): translated to SQL
  /// and executed on the relational engine over the server's configured
  /// named input lists. Top-k entries of the resulting similarity list.
  kSql = 2,
};

/// True for byte values that decode to a QueryKind.
bool IsValidQueryKind(uint8_t kind);

/// Wire status codes. A strict subset of StatusCode plus kWireOverloaded:
/// the explicit load-shedding refusal, kept distinct so clients can
/// back off on it without parsing messages.
enum class WireStatus : uint8_t {
  kWireOk = 0,
  kWireInvalidArgument = 1,
  kWireParseError = 2,
  kWireDeadlineExceeded = 3,
  kWireCancelled = 4,
  kWireResourceExhausted = 5,
  kWireOverloaded = 6,
  kWireUnimplemented = 7,
  kWireInternal = 8,
};

/// StatusCode -> wire code (unknown codes collapse to kWireInternal;
/// kUnavailable maps to kWireOverloaded).
WireStatus WireStatusFromCode(StatusCode code);

/// Wire code -> Status with `message` (kWireOk ignores the message).
Status StatusFromWire(WireStatus wire, std::string message);

/// Request flag bits.
inline constexpr uint8_t kFlagWantProfile = 0x1;  // EXPLAIN text in response.

/// One similarity query. `query_text` is HTL concrete syntax for every
/// kind; `level` applies to kHtlSegments only.
struct QueryRequest {
  QueryKind kind = QueryKind::kHtlSegments;
  int32_t level = 1;
  int64_t k = 10;

  /// Client budget in milliseconds, mapped onto the server-side ExecContext
  /// deadline (ExecContext::SetTimeoutMs clamping applies); <= 0 means the
  /// server default. The server cancels its own work when this expires.
  int64_t deadline_ms = 0;

  /// Serve from / fill the server's result cache (the server keeps a
  /// cached and an uncached Retriever; both answer bit-identically).
  bool use_cache = false;

  /// Worker count for per-video parallel evaluation: 0 = server default,
  /// 1 = serial. Other values clamp to those two classes server-side.
  int32_t parallelism = 0;

  /// kFlagWantProfile: attach the EXPLAIN profile text to the response.
  uint8_t flags = 0;

  std::string query_text;
};

/// Response flag bits.
inline constexpr uint8_t kFlagDegraded = 0x1;  // Soft-watermark shed mode.
inline constexpr uint8_t kFlagPartial = 0x2;   // Some videos were skipped.

/// One ranked hit. For kHtlVideos, `segment` is 0 (the hit is the whole
/// video); for kSql, `video` is 0 (the configured input relation set).
struct WireHit {
  int64_t video = 0;
  int64_t segment = 0;
  double actual = 0.0;
  double max = 0.0;
};

/// The server's answer. `status` kWireOk covers complete *and* partial
/// results — kFlagPartial plus videos_failed says what is missing
/// (RetrievalReport semantics over the wire); every non-OK status carries a
/// human-readable message.
struct QueryResponse {
  WireStatus status = WireStatus::kWireOk;
  uint8_t flags = 0;
  int64_t videos_evaluated = 0;
  int64_t videos_failed = 0;
  std::vector<WireHit> hits;
  /// Error message, degraded-report summary, or (want_profile) the EXPLAIN
  /// profile text.
  std::string message;

  bool ok() const { return status == WireStatus::kWireOk; }
  bool degraded() const { return (flags & kFlagDegraded) != 0; }
  bool partial() const { return (flags & kFlagPartial) != 0; }
};

/// Verbs served by the QueryServer's admin listener — a second, lightweight
/// port that is exempt from admission control (shedding runs at accept time
/// on the query port), so the telemetry plane answers even at 10x overload.
enum class AdminVerb : uint8_t {
  kMetricsText = 0,  // Human-readable metrics listing (MetricsSnapshot).
  kMetricsJson = 1,  // MetricsSnapshot::ToJson().
  kHealthz = 2,      // JSON health document (state, in-flight, stalls).
  kSlowlog = 3,      // Wide-event query log tail as JSON (arg = max records).
  kTrace = 4,        // Chrome trace JSON for one record (arg = id, 0 = latest).
};

/// True for byte values that decode to an AdminVerb.
bool IsValidAdminVerb(uint8_t verb);

/// One admin exchange request. `arg` is the verb's argument: kSlowlog takes
/// the maximum record count (<= 0 means the server default), kTrace the
/// wide-event record id whose retained profile to export (0 = the newest
/// record with a retained profile). Other verbs ignore it.
struct AdminRequest {
  AdminVerb verb = AdminVerb::kMetricsText;
  int64_t arg = 0;
};

/// The admin listener's answer: a status plus an opaque UTF-8 body (text or
/// JSON per the verb; the error message on non-OK statuses).
struct AdminResponse {
  WireStatus status = WireStatus::kWireOk;
  std::string body;

  bool ok() const { return status == WireStatus::kWireOk; }
};

}  // namespace htl::net

#endif  // HTL_NET_PROTOCOL_H_
