#ifndef HTL_NET_SERVER_H_
#define HTL_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "engine/exec_context.h"
#include "engine/query_options.h"
#include "engine/retrieval.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/query_log.h"
#include "sim/sim_list.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace htl::net {

/// Tuning for one QueryServer. The defaults are sized for tests and the
/// loopback load harness; a deployment sets the watermarks from measured
/// capacity (DESIGN.md "Query service" explains the shedding state machine).
struct ServerOptions {
  /// TCP port on 127.0.0.1 (0 = ephemeral; read it back via port()).
  uint16_t port = 0;
  int accept_backlog = 64;

  /// Session worker threads. The server's pool holds worker_threads + 1
  /// threads (the extra one runs the accept loop).
  int worker_threads = 4;

  /// Soft watermark: with more than this many admitted sessions in flight,
  /// new requests run *degraded* — shed_budgets replace the unlimited
  /// per-video budgets, so overweight videos are skipped and the response
  /// is a ranked partial top-k (RetrievalReport semantics). 0 means
  /// worker_threads (degrade as soon as requests queue).
  int64_t soft_watermark = 0;

  /// Hard watermark: with more than this many admitted sessions, new
  /// connections are refused with kWireOverloaded. 0 means
  /// 4 * max(soft_watermark, worker_threads). Shedding by rejection is the
  /// last resort — the soft band sheds by degrading first.
  int64_t hard_watermark = 0;

  /// Per-connection transport deadlines. A client that stalls mid-frame
  /// (slow loris) is dropped when the read deadline expires; a client that
  /// stops draining its socket is dropped at the write deadline.
  int64_t read_timeout_ms = 2000;
  int64_t write_timeout_ms = 2000;

  /// Server-side budget for requests that do not carry deadline_ms.
  int64_t default_deadline_ms = 1000;

  /// Cap on one frame body in either direction (oversized = rejected
  /// before allocation).
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Graceful drain: in-flight sessions get this long to finish naturally;
  /// at the deadline they are cancelled (ExecContext::Cancel + socket
  /// shutdown) and must unwind promptly. See QueryServer::Shutdown.
  int64_t drain_deadline_ms = 2000;

  /// Cap on hits returned per response (k clamps down to it; keeps every
  /// response under max_frame_bytes).
  int64_t max_hits = 1024;

  /// Degraded-mode per-video budgets applied above the soft watermark.
  ExecBudgets shed_budgets{.max_rows = 4096, .max_tables = 64,
                           .max_depth = 64};

  /// Base options for the server's Retrievers (parallelism, semantics,
  /// cache sizes). cache_mode and parallelism are overridden per request
  /// kind (see protocol.h QueryRequest).
  QueryOptions query_options;

  /// Named input lists + sequence length for QueryKind::kSql (the paper's
  /// SQL-based system evaluates formulas over these relations). Empty map:
  /// kSql answers kWireUnimplemented.
  std::map<std::string, SimilarityList> sql_inputs;
  int64_t sql_n = 0;

  // --- Telemetry plane (DESIGN.md "Telemetry plane"). ---------------------

  /// TCP port for the admin listener on 127.0.0.1 (0 = ephemeral; read it
  /// back via admin_port()). Deliberately a *second* listener: admission
  /// control runs at accept time on the query port, so a separate socket is
  /// what keeps metrics/healthz reachable while the query port sheds.
  uint16_t admin_port = 0;

  /// Transport deadlines for admin exchanges. Admin frames are tiny and the
  /// answers are computed locally, so these are tight by default.
  int64_t admin_read_timeout_ms = 1000;
  int64_t admin_write_timeout_ms = 1000;

  /// Wide-event query log retention (ring capacity, slow threshold,
  /// sampling, profile cap). Backs the admin `slowlog` / `trace` verbs.
  obs::QueryLog::Options query_log;

  /// Stall watchdog: a live session older than this flips healthz to
  /// unhealthy and bumps net.watchdog.stalls (it un-flips when the session
  /// ends). 0 derives a bound that no healthy session can reach —
  /// read + write timeouts + the default deadline + 1s slack; negative
  /// disables the watchdog.
  int64_t watchdog_stall_ms = 0;
};

/// Multi-threaded TCP query service in front of a Retriever. One
/// length-prefixed request/response exchange per connection (net/frame.h).
///
/// Robustness contract — the server degrades, it never hangs or crashes:
///   * transport: per-connection read/write deadlines and a max-frame cap
///     drop slow-loris and oversized peers cleanly; malformed frames get a
///     well-formed error response when the transport still works, a close
///     otherwise; a mid-query disconnect never takes a worker down;
///   * budget: request deadline_ms maps onto the session's ExecContext, so
///     server-side evaluation is actually cancelled when the client's
///     budget expires (engines poll the context — PR 2);
///   * admission: in-flight sessions are counted; past the soft watermark
///     requests run under shed_budgets and return ranked *partial* results
///     (degraded shedding), past the hard watermark connections are refused
///     with kWireOverloaded (reject shedding);
///   * drain: Shutdown() stops accepting, lets in-flight sessions finish
///     until the drain deadline, then cancels the stragglers (context
///     cancel + socket shutdown) and joins every worker.
///
/// Fault points: net.accept, net.read_frame, net.write_frame, net.session
/// let tests inject torn frames, stalled reads, and mid-response
/// disconnects; net.admin.* cover the admin plane. Metrics: net.* counters/
/// gauges/histograms (accepted, sheds, rejects, frame errors, in-flight,
/// per-stage request latency).
///
/// Telemetry plane: a second lightweight listener (admin_port) serves the
/// AdminVerb protocol — metrics text/JSON, a healthz document, the
/// wide-event slowlog, and Chrome-trace export of retained profiles — and
/// is exempt from admission control by construction. Every request lands
/// one obs::QueryLogRecord in the server's QueryLog whatever its outcome
/// (including undecodable frames and refusals), and a stall watchdog on the
/// admin loop flags sessions that outlive every legitimate deadline.
///
/// Thread model: Start() spawns the accept loop and session workers on an
/// internal ThreadPool; all public methods are safe from any thread.
/// `store` must outlive the server, and appends to it must not overlap
/// in-flight requests (the Retriever contract).
class QueryServer {
 public:
  QueryServer(const MetadataStore* store, ServerOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and spawns the accept loop. Fails on bind errors;
  /// calling Start twice is FailedPrecondition.
  Status Start();

  /// The bound query port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// The bound admin/telemetry port (valid after a successful Start).
  uint16_t admin_port() const { return admin_port_; }

  /// Graceful drain; see the class comment. Returns OK when every session
  /// finished (naturally or after cancellation) and all threads joined;
  /// Internal if a session leaked past the hard bound (a bug — sessions
  /// poll their context and their socket is shut down under them).
  /// Idempotent; the destructor calls it if the caller did not.
  Status Shutdown();

  /// Admitted sessions currently in flight (queued + running).
  int64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The wide-event query log backing the admin slowlog/trace verbs
  /// (tests and tools inspect it directly; recording is internal).
  const obs::QueryLog& query_log() const { return query_log_; }

  /// Sessions currently flagged by the stall watchdog (healthz "healthy"
  /// is exactly this being zero while the server runs).
  int64_t stalled_sessions() const;

 private:
  /// One admitted session visible to the drain path. The session thread
  /// owns the socket and context; this entry only lends them to Shutdown
  /// for Cancel()/ShutdownBoth() while the registry lock is held — the
  /// session deregisters (under the same lock) before destroying either.
  struct LiveSession {
    Socket* socket = nullptr;
    ExecContext* ctx = nullptr;
    /// Admission time + watchdog flag (set once by CheckStalls, cleared by
    /// the session's deregistration).
    std::chrono::steady_clock::time_point start;
    bool stalled = false;
  };

  void AcceptLoop();

  /// Runs one admitted connection on a worker: registers with the drain
  /// path, serves the request, deregisters, releases the admission slot.
  /// Never propagates errors (they become responses, closes, and metrics).
  void RunSession(uint64_t session_id, const std::shared_ptr<Socket>& socket);

  /// The session body: read frame -> decode -> evaluate -> respond, then
  /// observe the total latency and land the wide event in the query log
  /// (every exit path, including closes without a response).
  void ServeOneRequest(uint64_t session_id, const Socket& socket);

  /// The exchange itself; fills `record` (and `profile` when the request
  /// ran traced) as it goes instead of reporting through return values.
  void ServeRequestOnSocket(uint64_t session_id, const Socket& socket,
                            obs::QueryLogRecord* record,
                            obs::QueryProfile* profile);

  /// Lands one request's wide event, whatever its outcome: stamps
  /// total_us from `total` and observes it in net.request.latency_us,
  /// derives the trace-dependent fields (formula class, cache hit,
  /// rows/tables) from `profile`, then records both into query_log_.
  void RecordWideEvent(obs::QueryLogRecord record, obs::QueryProfile profile,
                       const WallTimer& total);

  /// Evaluates one decoded request under `ctx`, always traced: the trace
  /// lands in `*profile` for the query log, and the client sees its text only
  /// with kFlagWantProfile.
  QueryResponse HandleRequest(const QueryRequest& request, bool degraded,
                              ExecContext* ctx, obs::QueryProfile* profile);
  QueryResponse HandleHtl(const QueryRequest& request, ExecContext* ctx,
                          obs::QueryProfile* profile);
  QueryResponse HandleSql(const QueryRequest& request, ExecContext* ctx,
                          obs::QueryProfile* profile);

  /// Admin plane: its own accept loop (serving exchanges inline — admin
  /// answers are small and computed locally) plus the per-tick stall scan.
  void AdminLoop();
  void ServeAdminConn(const Socket& socket);
  AdminResponse HandleAdmin(const AdminRequest& request);
  std::string HealthzJson();

  /// Flags live sessions older than the watchdog bound (see
  /// ServerOptions::watchdog_stall_ms). Runs on the admin loop's tick.
  void CheckStalls();

  /// Copies RetrievalReport truth (evaluated/failed counts, partial flag,
  /// summary or profile text) onto the wire response.
  static void FillReport(const RetrievalReport& report, bool want_profile,
                         QueryResponse* response);

  /// The Retriever for (use_cache, serial): one of four built with the
  /// server and shared by all sessions (Retriever is concurrency-safe).
  Retriever* RetrieverFor(bool use_cache, bool serial) const {
    return retrievers_[(use_cache ? 2 : 0) + (serial ? 1 : 0)].get();
  }

  /// Best-effort error/overload response write (transport failures are
  /// swallowed — the peer is already gone).
  void WriteResponseBestEffort(const Socket& socket,
                               const QueryResponse& response);

  const MetadataStore* store_;
  ServerOptions options_;

  Socket listener_;
  uint16_t port_ = 0;
  Socket admin_listener_;
  uint16_t admin_port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  /// Wall-clock start of Start(), for healthz uptime.
  std::chrono::steady_clock::time_point started_at_;
  /// Resolved watchdog bound in ms (< 0: watchdog disabled).
  int64_t watchdog_bound_ms_ = -1;

  obs::QueryLog query_log_;

  std::atomic<bool> started_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  /// Stops the admin loop — set strictly *after* the query-side drain, so
  /// the telemetry plane keeps answering (and reporting "draining") while
  /// sessions unwind.
  std::atomic<bool> admin_stopping_{false};
  /// Set by the drain cancel sweep: sessions that dequeue after it respond
  /// kWireOverloaded ("draining") instead of starting work.
  std::atomic<bool> drain_cancelled_{false};
  std::atomic<int64_t> in_flight_{0};
  std::atomic<uint64_t> next_session_id_{1};

  /// Serializes Shutdown bodies (double Shutdown — e.g. explicit call plus
  /// destructor — must not drain or destroy the pool concurrently).
  Mutex shutdown_mu_;

  mutable Mutex mu_;
  CondVar drained_cv_;  // Signalled on session end and loop exits.
  bool accept_loop_done_ HTL_GUARDED_BY(mu_) = false;
  bool admin_loop_done_ HTL_GUARDED_BY(mu_) = false;
  std::map<uint64_t, LiveSession> live_ HTL_GUARDED_BY(mu_);
  /// Live sessions currently past the watchdog bound (flag set in live_).
  int64_t stalled_sessions_ HTL_GUARDED_BY(mu_) = 0;

  /// Indexed (use_cache ? 2 : 0) + (serial ? 1 : 0); built by the
  /// constructor and read-only after it.
  std::unique_ptr<Retriever> retrievers_[4];

  // Metric cells resolved once (stable pointers, lock-free to bump).
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* shed_degraded_ = nullptr;
  obs::Counter* frame_errors_ = nullptr;
  obs::Counter* responses_ok_ = nullptr;
  obs::Counter* responses_error_ = nullptr;
  obs::Counter* admin_requests_ = nullptr;
  obs::Counter* admin_errors_ = nullptr;
  obs::Counter* watchdog_stalls_ = nullptr;
  obs::Gauge* in_flight_gauge_ = nullptr;
  obs::Gauge* stalled_gauge_ = nullptr;
  obs::Histogram* latency_us_ = nullptr;
  obs::Histogram* decode_us_ = nullptr;
  obs::Histogram* execute_us_ = nullptr;
  obs::Histogram* encode_us_ = nullptr;
};

}  // namespace htl::net

#endif  // HTL_NET_SERVER_H_
