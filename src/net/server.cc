#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "htl/fingerprint.h"
#include "htl/parser.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sim/topk.h"
#include "sql/sql_system.h"
#include "util/fault_point.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace htl::net {

namespace {

/// Accept-loop poll tick: how quickly Shutdown() is observed.
constexpr int64_t kAcceptTickMs = 20;

/// Hard bound on the post-cancel drain wait. Cancelled sessions unwind in
/// milliseconds (engines poll their context, sockets are shut down); this
/// only bounds the wait against bugs, so Shutdown can report a leak
/// instead of hanging.
constexpr int64_t kCancelledDrainSlackMs = 10'000;

QueryResponse ErrorResponse(const Status& status) {
  QueryResponse resp;
  resp.status = WireStatusFromCode(status.code());
  resp.message = status.message();
  return resp;
}

QueryResponse OverloadedResponse(const char* why) {
  QueryResponse resp;
  resp.status = WireStatus::kWireOverloaded;
  resp.message = why;
  return resp;
}

AdminResponse AdminError(const Status& status) {
  AdminResponse resp;
  resp.status = WireStatusFromCode(status.code());
  resp.body = status.message();
  return resp;
}

/// Sums a stat over every span named `name` in the profile (the per-video
/// spans each carry their own rows/tables; ExecContext budgets reset per
/// unit, so the request total only exists as this sum).
int64_t SumOverSpans(const obs::QueryProfile& profile, std::string_view name,
                     int64_t obs::OpStats::*field) {
  int64_t total = 0;
  const auto walk = [&](const auto& self,
                        const obs::QueryProfile::Node& node) -> void {
    if (node.name == name) total += node.stats.*field;
    for (const obs::QueryProfile::Node& child : node.children) {
      self(self, child);
    }
  };
  for (const obs::QueryProfile::Node& root : profile.roots) walk(walk, root);
  return total;
}

}  // namespace

QueryServer::QueryServer(const MetadataStore* store, ServerOptions options)
    : store_(store),
      options_(std::move(options)),
      query_log_(options_.query_log) {
  if (options_.worker_threads < 1) options_.worker_threads = 1;
  if (options_.soft_watermark <= 0) {
    options_.soft_watermark = options_.worker_threads;
  }
  if (options_.hard_watermark <= 0) {
    options_.hard_watermark =
        4 * std::max<int64_t>(options_.soft_watermark, options_.worker_threads);
  }
  // The soft band must be inside the hard band for the state machine
  // degrade -> reject to make sense.
  options_.hard_watermark =
      std::max(options_.hard_watermark, options_.soft_watermark);
  if (options_.max_hits < 1) options_.max_hits = 1;

  if (options_.watchdog_stall_ms == 0) {
    // No healthy session outlives its transport deadlines plus the default
    // evaluation budget; past that it is stuck, not slow.
    watchdog_bound_ms_ = options_.read_timeout_ms + options_.write_timeout_ms +
                         options_.default_deadline_ms + 1000;
  } else {
    watchdog_bound_ms_ = options_.watchdog_stall_ms;  // < 0 disables.
  }

  auto& metrics = obs::MetricsRegistry::Instance();
  accepted_ = metrics.GetCounter("net.accepted");
  rejected_ = metrics.GetCounter("net.rejected_overload");
  shed_degraded_ = metrics.GetCounter("net.shed_degraded");
  frame_errors_ = metrics.GetCounter("net.frame_errors");
  responses_ok_ = metrics.GetCounter("net.responses_ok");
  responses_error_ = metrics.GetCounter("net.responses_error");
  admin_requests_ = metrics.GetCounter("net.admin.requests");
  admin_errors_ = metrics.GetCounter("net.admin.errors");
  watchdog_stalls_ = metrics.GetCounter("net.watchdog.stalls");
  in_flight_gauge_ = metrics.GetGauge("net.in_flight");
  stalled_gauge_ = metrics.GetGauge("net.watchdog.stalled_sessions");
  latency_us_ = metrics.GetHistogram(
      "net.request.latency_us",
      obs::Histogram::ExponentialBounds(100, 2.0, 18));
  decode_us_ = metrics.GetHistogram(
      "net.request.decode_us", obs::Histogram::ExponentialBounds(10, 2.0, 18));
  execute_us_ = metrics.GetHistogram(
      "net.request.execute_us",
      obs::Histogram::ExponentialBounds(100, 2.0, 18));
  encode_us_ = metrics.GetHistogram(
      "net.request.encode_us", obs::Histogram::ExponentialBounds(10, 2.0, 18));

  for (int index = 0; index < 4; ++index) {
    QueryOptions opts = options_.query_options;
    opts.cache_mode = index >= 2 ? CacheMode::kReadWrite : CacheMode::kOff;
    if (index % 2 == 1) opts.parallelism = 1;
    retrievers_[index] = std::make_unique<Retriever>(store_, opts);
  }
}

QueryServer::~QueryServer() {
  if (started_.load(std::memory_order_acquire)) {
    Shutdown().IgnoreError();  // Destructor cannot report; Shutdown logged.
  }
}

Status QueryServer::Start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("QueryServer::Start called twice");
  }
  HTL_ASSIGN_OR_RETURN(listener_,
                       ListenOnLoopback(options_.port, options_.accept_backlog));
  HTL_ASSIGN_OR_RETURN(port_, LocalPort(listener_));
  // The admin plane binds its own socket: the query listener's admission
  // control never sees (and so can never shed) a telemetry scrape.
  HTL_ASSIGN_OR_RETURN(
      admin_listener_,
      ListenOnLoopback(options_.admin_port, options_.accept_backlog));
  HTL_ASSIGN_OR_RETURN(admin_port_, LocalPort(admin_listener_));
  started_at_ = std::chrono::steady_clock::now();

  ThreadPool::Options pool_options;
  // +2: the accept loop and the admin loop each pin a worker.
  pool_options.num_threads = options_.worker_threads + 2;
  // The accept loop rejects past the hard watermark, so at most
  // hard_watermark sessions are ever queued or running; with this capacity
  // Schedule() never blocks the accept loop.
  pool_options.queue_capacity = options_.hard_watermark + 3;
  pool_ = std::make_unique<ThreadPool>(pool_options);

  running_.store(true, std::memory_order_release);
  pool_->Schedule([this] { AcceptLoop(); });
  pool_->Schedule([this] { AdminLoop(); });
  return Status::OK();
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto conn = Accept(listener_, DeadlineAfterMs(kAcceptTickMs));
    if (!conn.ok()) {
      if (conn.status().IsDeadlineExceeded()) continue;  // Idle tick.
      if (conn.status().IsUnavailable()) break;  // Listener shut down.
      // Transient accept failure (e.g. fd pressure): keep serving.
      frame_errors_->Increment();
      continue;
    }

    // net.accept: an injected fault here models accept-time breakage (fd
    // exhaustion, a peer that vanished); the connection is dropped and the
    // loop keeps serving.
    if (FaultRegistry::Armed()) {
      const Status fault = FaultRegistry::Instance().Hit("net.accept");
      if (!fault.ok()) {
        frame_errors_->Increment();
        continue;  // conn closes via RAII.
      }
    }

    const int64_t admitted =
        in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (admitted > options_.hard_watermark ||
        stopping_.load(std::memory_order_acquire)) {
      const WallTimer total;
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      rejected_->Increment();
      // Refuse explicitly: drain whatever request bytes already arrived
      // (so the close does not RST the response away), answer Overloaded,
      // close. The accept loop never blocks on this peer — DrainPending
      // does not wait and the response write has a short deadline.
      DrainPending(*conn, options_.max_frame_bytes);
      const QueryResponse refusal = OverloadedResponse(
          stopping_.load(std::memory_order_acquire)
              ? "server draining"
              : "overloaded: in-flight limit reached");
      WriteResponseBestEffort(*conn, refusal);
      obs::QueryLogRecord record;
      record.kind = 0xFF;  // Refused before any request was decoded.
      record.wire_status = static_cast<uint8_t>(refusal.status);
      RecordWideEvent(std::move(record), obs::QueryProfile{}, total);
      continue;
    }

    accepted_->Increment();
    in_flight_gauge_->Set(admitted);
    const uint64_t id =
        next_session_id_.fetch_add(1, std::memory_order_relaxed);
    auto socket = std::make_shared<Socket>(std::move(*conn));
    pool_->Schedule([this, id, socket] { RunSession(id, socket); });
  }

  // The listener is closed by Shutdown *after* this flag flips — closing
  // it here would race Shutdown's concurrent ShutdownBoth() on the fd.
  MutexLock lock(&mu_);
  accept_loop_done_ = true;
  drained_cv_.NotifyAll();
}

void QueryServer::RunSession(uint64_t session_id,
                             const std::shared_ptr<Socket>& socket) {
  // Registered for the whole session so the drain path can reach the
  // socket (and the watchdog can age it); the context pointer joins once
  // the request is decoded.
  {
    MutexLock lock(&mu_);
    live_[session_id] =
        LiveSession{socket.get(), nullptr, std::chrono::steady_clock::now(),
                    /*stalled=*/false};
  }

  ServeOneRequest(session_id, *socket);

  {
    MutexLock lock(&mu_);
    auto it = live_.find(session_id);
    if (it != live_.end()) {
      if (it->second.stalled) {
        // The stall resolved itself after all: healthz heals.
        --stalled_sessions_;
        stalled_gauge_->Set(stalled_sessions_);
      }
      live_.erase(it);
    }
  }
  const int64_t remaining =
      in_flight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  in_flight_gauge_->Set(remaining);
  drained_cv_.NotifyAll();
}

void QueryServer::ServeOneRequest(uint64_t session_id, const Socket& socket) {
  obs::QueryLogRecord record;
  record.kind = 0xFF;  // Stays 0xFF unless a request actually decodes.
  obs::QueryProfile profile;
  const WallTimer total;
  ServeRequestOnSocket(session_id, socket, &record, &profile);
  // Every exit of the exchange — answered, refused, or dropped — lands one
  // wide event and one total-latency observation.
  RecordWideEvent(std::move(record), std::move(profile), total);
}

void QueryServer::ServeRequestOnSocket(uint64_t session_id,
                                       const Socket& socket,
                                       obs::QueryLogRecord* record,
                                       obs::QueryProfile* profile) {
  // --- Read the request frame under the read deadline. ------------------
  const SocketDeadline read_deadline =
      DeadlineAfterMs(options_.read_timeout_ms);
  const WallTimer decode_timer;

  Status torn = Status::OK();
  if (FaultRegistry::Armed()) {
    // net.read_frame: models a torn/stalled inbound frame.
    torn = FaultRegistry::Instance().Hit("net.read_frame");
  }

  uint8_t header[kFrameHeaderBytes];
  if (torn.ok()) {
    torn = ReadFull(socket, header, sizeof(header), read_deadline);
  }
  if (!torn.ok()) {
    // Nothing trustworthy arrived (timeout, torn read, or injected fault):
    // there is no request to answer, so the only clean move is to close.
    frame_errors_->Increment();
    record->wire_status = static_cast<uint8_t>(WireStatusFromCode(torn.code()));
    return;
  }

  auto body_len = CheckFrameHeader(header, options_.max_frame_bytes);
  if (!body_len.ok()) {
    // Bad magic or oversized length: the header itself was readable, so an
    // explicit error response is possible before closing.
    frame_errors_->Increment();
    const QueryResponse error = ErrorResponse(body_len.status());
    record->wire_status = static_cast<uint8_t>(error.status);
    WriteResponseBestEffort(socket, error);
    return;
  }
  std::string body(*body_len, '\0');
  if (*body_len > 0) {
    const Status read =
        ReadFull(socket, body.data(), body.size(), read_deadline);
    if (!read.ok()) {
      frame_errors_->Increment();  // Slow loris or torn body: drop.
      record->wire_status =
          static_cast<uint8_t>(WireStatusFromCode(read.code()));
      return;
    }
  }

  auto request = DecodeRequest(body);
  record->decode_us = decode_timer.ElapsedMicros();
  decode_us_->Observe(record->decode_us);
  if (!request.ok()) {
    frame_errors_->Increment();
    const QueryResponse error = ErrorResponse(request.status());
    record->wire_status = static_cast<uint8_t>(error.status);
    WriteResponseBestEffort(socket, error);
    return;
  }

  record->kind = static_cast<uint8_t>(request->kind);
  record->fingerprint = FingerprintKey(request->query_text);
  record->query = request->query_text;
  record->level = request->level;
  record->k = request->k;
  record->use_cache = request->use_cache;
  record->deadline_ms = request->deadline_ms > 0
                            ? request->deadline_ms
                            : options_.default_deadline_ms;

  // --- Admission: decide the shedding band for this request. ------------
  QueryResponse response;
  const WallTimer exec_timer;
  if (drain_cancelled_.load(std::memory_order_acquire)) {
    response = OverloadedResponse("server draining");
  } else {
    const bool degraded = in_flight_.load(std::memory_order_acquire) >
                          options_.soft_watermark;
    if (degraded) shed_degraded_->Increment();

    // Budget mapping: the client's deadline becomes the context deadline,
    // so evaluation is cancelled server-side when the budget expires.
    ExecContext ctx(degraded ? options_.shed_budgets : ExecBudgets{});
    ctx.SetTimeoutMs(record->deadline_ms);
    {
      MutexLock lock(&mu_);
      auto it = live_.find(session_id);
      if (it != live_.end()) it->second.ctx = &ctx;
    }

    Status injected = Status::OK();
    if (FaultRegistry::Armed()) {
      // net.session: an injected session-scope failure surfaces as a
      // well-formed error response (never a dropped connection).
      injected = FaultRegistry::Instance().Hit("net.session");
    }
    response = injected.ok() ? HandleRequest(*request, degraded, &ctx, profile)
                             : ErrorResponse(injected);

    // A degraded-mode ResourceExhausted was caused by the *shed* budgets,
    // not by the request (un-shed requests run with unlimited budgets):
    // report it as the retryable Overloaded refusal it really is, so
    // clients back off and retry instead of treating the query as broken.
    if (degraded && response.status == WireStatus::kWireResourceExhausted) {
      response = OverloadedResponse(
          "degraded-mode budget exhausted; retry when load clears");
      response.flags |= kFlagDegraded;
    }

    // The context dies with this scope: unhook it from the drain path
    // first (Cancel after this point would be a use-after-free).
    {
      MutexLock lock(&mu_);
      auto it = live_.find(session_id);
      if (it != live_.end()) it->second.ctx = nullptr;
    }
  }
  record->execute_us = exec_timer.ElapsedMicros();
  execute_us_->Observe(record->execute_us);

  // --- Write the response frame under the write deadline. ---------------
  const WallTimer encode_timer;
  if (FaultRegistry::Armed()) {
    // net.write_frame: models a peer that vanished mid-response — the
    // session closes without writing and the server carries on.
    if (!FaultRegistry::Instance().Hit("net.write_frame").ok()) {
      frame_errors_->Increment();
      record->wire_status = static_cast<uint8_t>(response.status);
      return;
    }
  }

  std::string resp_body = EncodeResponse(response);
  auto framed = FrameMessage(resp_body, options_.max_frame_bytes);
  if (!framed.ok()) {
    // Response overflowed the frame cap (huge k + profile text): degrade
    // to a hit-less error response rather than a torn frame.
    response = ErrorResponse(Status::ResourceExhausted(
        "response exceeded the frame cap; lower k or drop want_profile"));
    resp_body = EncodeResponse(response);
    framed = FrameMessage(resp_body, options_.max_frame_bytes);
    if (!framed.ok()) {
      // Even the error response overflows (a deliberately tiny cap):
      // closing without a frame is the only well-formed move left.
      frame_errors_->Increment();
      record->wire_status = static_cast<uint8_t>(response.status);
      return;
    }
  }

  // The response is final: its truth belongs in the wide event whether or
  // not the peer sticks around to read it.
  record->wire_status = static_cast<uint8_t>(response.status);
  record->degraded = response.degraded();
  record->partial = response.partial();
  record->videos_evaluated = response.videos_evaluated;
  record->videos_failed = response.videos_failed;

  const Status written =
      WriteFull(socket, framed->data(), framed->size(),
                DeadlineAfterMs(options_.write_timeout_ms));
  record->encode_us = encode_timer.ElapsedMicros();
  encode_us_->Observe(record->encode_us);
  if (!written.ok()) {
    frame_errors_->Increment();  // Peer gone or not draining: drop.
    return;
  }
  if (response.ok()) {
    responses_ok_->Increment();
  } else {
    responses_error_->Increment();
  }
}

void QueryServer::RecordWideEvent(obs::QueryLogRecord record,
                                  obs::QueryProfile profile,
                                  const WallTimer& total) {
  record.total_us = total.ElapsedMicros();
  latency_us_->Observe(record.total_us);
  if (!profile.empty()) {
    if (const obs::QueryProfile::Node* classify =
            profile.Find("stage.classify")) {
      record.formula_class = classify->note;
    }
    if (const obs::QueryProfile::Node* cache = profile.Find("cache.lookup")) {
      record.cache_hit = cache->note == "hit";
    }
    // ExecContext budgets reset per video, so request-total work only
    // exists as the sum over the per-video spans.
    record.rows = SumOverSpans(profile, "video", &obs::OpStats::rows);
    record.tables = SumOverSpans(profile, "video", &obs::OpStats::tables);
  }
  query_log_.Record(std::move(record), std::move(profile));
}

QueryResponse QueryServer::HandleRequest(const QueryRequest& request,
                                         bool degraded, ExecContext* ctx,
                                         obs::QueryProfile* profile) {
  QueryResponse response;
  switch (request.kind) {
    case QueryKind::kHtlSegments:
    case QueryKind::kHtlVideos:
      response = HandleHtl(request, ctx, profile);
      break;
    case QueryKind::kSql:
      response = HandleSql(request, ctx, profile);
      break;
  }
  if (degraded) response.flags |= kFlagDegraded;
  return response;
}

QueryResponse QueryServer::HandleHtl(const QueryRequest& request,
                                     ExecContext* ctx,
                                     obs::QueryProfile* profile) {
  if (request.k <= 0) {
    return ErrorResponse(Status::InvalidArgument("k must be positive"));
  }
  const int64_t k = std::min(request.k, options_.max_hits);
  Retriever* retriever =
      RetrieverFor(request.use_cache, request.parallelism == 1);

  auto formula = retriever->Prepare(request.query_text);
  if (!formula.ok()) return ErrorResponse(formula.status());

  // Every request runs profiled so the query log can retain full traces
  // for the slow ones; the client only *sees* the profile text when it
  // asked for it. A whole-video query is a level-1 query (level 1 holds
  // exactly the root); its hits keep the kHtlVideos wire form, segment 0.
  const bool want_profile = (request.flags & kFlagWantProfile) != 0;
  const bool videos = request.kind == QueryKind::kHtlVideos;
  const int level = videos ? 1 : request.level;
  // A request that fails as a whole (an expired deadline, say) returns no
  // report; its trace is adopted into this one instead, so its wide event
  // and the slowlog still carry it.
  obs::QueryTrace failed;
  obs::QueryTrace* saved = ctx->trace();
  ctx->set_trace(&failed);
  auto result = retriever->TopSegmentsProfiled(**formula, level, k, ctx);
  ctx->set_trace(saved);
  if (!result.ok()) {
    if (profile != nullptr) *profile = failed.Finish();
    return ErrorResponse(result.status());
  }
  QueryResponse response;
  for (const SegmentHit& hit : result->hits) {
    response.hits.push_back(WireHit{hit.video, videos ? 0 : hit.segment,
                                    hit.sim.actual, hit.sim.max});
  }
  FillReport(result->report, want_profile, &response);
  if (profile != nullptr) *profile = std::move(result->report.profile);
  return response;
}

void QueryServer::FillReport(const RetrievalReport& report, bool want_profile,
                             QueryResponse* response) {
  response->videos_evaluated = report.videos_evaluated;
  response->videos_failed = report.videos_failed;
  if (!report.complete()) {
    response->flags |= kFlagPartial;
    response->message = report.ToString();
  }
  if (want_profile) response->message = report.profile.ToText();
}

QueryResponse QueryServer::HandleSql(const QueryRequest& request,
                                     ExecContext* ctx,
                                     obs::QueryProfile* profile) {
  if (options_.sql_inputs.empty() || options_.sql_n <= 0) {
    return ErrorResponse(Status::Unimplemented(
        "this server has no SQL input relations configured"));
  }
  if (request.k <= 0) {
    return ErrorResponse(Status::InvalidArgument("k must be positive"));
  }

  // The SQL system has no Profiled entry point; attach a trace to the
  // session context here so the slowlog gets stage spans for kSql too.
  obs::QueryTrace trace;
  obs::QueryTrace* saved = ctx->trace();
  ctx->set_trace(&trace);
  obs::ScopedTraceAttach attach(&trace);
  QueryResponse response = [&] {
    FormulaPtr formula;
    {
      HTL_OBS_SPAN(span, &trace, "stage.parse");
      auto parsed = ParseFormula(request.query_text);
      if (!parsed.ok()) return ErrorResponse(parsed.status());
      formula = std::move(*parsed);
    }

    HTL_OBS_SPAN(span, &trace, "stage.execute");
    sql::SqlSystem system;
    system.executor().set_exec_context(ctx);
    auto list =
        system.Evaluate(*formula, options_.sql_inputs, options_.sql_n);
    if (!list.ok()) return ErrorResponse(list.status());

    QueryResponse resp;
    const int64_t k = std::min(request.k, options_.max_hits);
    for (const RankedSegment& seg : TopKSegments(*list, k)) {
      resp.hits.push_back(WireHit{0, seg.id, seg.sim.actual, seg.sim.max});
    }
    resp.videos_evaluated = 1;
    return resp;
  }();
  ctx->set_trace(saved);
  if (profile != nullptr) *profile = trace.Finish();
  return response;
}

void QueryServer::AdminLoop() {
  while (!admin_stopping_.load(std::memory_order_acquire)) {
    auto conn = Accept(admin_listener_, DeadlineAfterMs(kAcceptTickMs));
    // The watchdog heartbeat rides the accept tick: it runs whether or not
    // anyone is scraping, so a stall is noticed within ~kAcceptTickMs.
    CheckStalls();
    if (!conn.ok()) {
      if (conn.status().IsDeadlineExceeded()) continue;  // Idle tick.
      if (conn.status().IsUnavailable()) break;  // Listener shut down.
      continue;  // Transient accept failure: keep serving.
    }

    // net.admin.accept: injected accept-time breakage on the admin plane;
    // the connection drops, the loop keeps serving.
    if (FaultRegistry::Armed()) {
      if (!FaultRegistry::Instance().Hit("net.admin.accept").ok()) {
        admin_errors_->Increment();
        continue;  // conn closes via RAII.
      }
    }
    // Served inline: admin answers are small, computed locally, and bounded
    // by the admin transport deadlines, so one loop thread is plenty — and
    // it can never be starved by query-side worker saturation.
    ServeAdminConn(*conn);
  }

  MutexLock lock(&mu_);
  admin_loop_done_ = true;
  drained_cv_.NotifyAll();
}

void QueryServer::ServeAdminConn(const Socket& socket) {
  const SocketDeadline read_deadline =
      DeadlineAfterMs(options_.admin_read_timeout_ms);

  Status torn = Status::OK();
  if (FaultRegistry::Armed()) {
    // net.admin.read_frame: a torn/stalled inbound admin frame.
    torn = FaultRegistry::Instance().Hit("net.admin.read_frame");
  }
  uint8_t header[kFrameHeaderBytes];
  if (torn.ok()) {
    torn = ReadFull(socket, header, sizeof(header), read_deadline);
  }
  if (!torn.ok()) {
    admin_errors_->Increment();  // Nothing trustworthy arrived: close.
    return;
  }

  AdminResponse response;
  auto body_len = CheckFrameHeader(header, options_.max_frame_bytes);
  if (!body_len.ok()) {
    admin_errors_->Increment();
    response = AdminError(body_len.status());
  } else {
    std::string body(*body_len, '\0');
    if (*body_len > 0) {
      const Status read =
          ReadFull(socket, body.data(), body.size(), read_deadline);
      if (!read.ok()) {
        admin_errors_->Increment();  // Slow loris on the admin port: drop.
        return;
      }
    }
    auto request = DecodeAdminRequest(body);
    if (!request.ok()) {
      admin_errors_->Increment();
      response = AdminError(request.status());
    } else {
      admin_requests_->Increment();
      response = HandleAdmin(*request);
    }
  }

  if (FaultRegistry::Armed()) {
    // net.admin.write_frame: the scraper vanished mid-answer.
    if (!FaultRegistry::Instance().Hit("net.admin.write_frame").ok()) {
      admin_errors_->Increment();
      return;
    }
  }
  auto framed =
      FrameMessage(EncodeAdminResponse(response), options_.max_frame_bytes);
  if (!framed.ok()) {
    // Answer larger than the frame cap (a giant slowlog under a tiny cap):
    // degrade to an explicit error rather than a torn frame.
    response = AdminError(Status::ResourceExhausted(
        "admin response exceeded the frame cap; lower the record count"));
    framed =
        FrameMessage(EncodeAdminResponse(response), options_.max_frame_bytes);
    if (!framed.ok()) {
      admin_errors_->Increment();
      return;
    }
  }
  WriteFull(socket, framed->data(), framed->size(),
            DeadlineAfterMs(options_.admin_write_timeout_ms))
      .IgnoreError();  // Best effort: the scraper may already be gone.
}

AdminResponse QueryServer::HandleAdmin(const AdminRequest& request) {
  AdminResponse response;
  switch (request.verb) {
    case AdminVerb::kMetricsText:
      response.body = obs::MetricsRegistry::Instance().Snapshot().ToText();
      break;
    case AdminVerb::kMetricsJson:
      response.body = obs::MetricsRegistry::Instance().Snapshot().ToJson();
      break;
    case AdminVerb::kHealthz:
      response.body = HealthzJson();
      break;
    case AdminVerb::kSlowlog: {
      const int64_t n = request.arg > 0 ? request.arg : 64;
      response.body = query_log_.ToJson(static_cast<size_t>(n));
      break;
    }
    case AdminVerb::kTrace: {
      const uint64_t id =
          request.arg > 0 ? static_cast<uint64_t>(request.arg) : 0;
      auto profile = query_log_.ProfileFor(id);
      if (profile == nullptr) {
        return AdminError(Status::NotFound(
            id == 0 ? std::string("no retained profile in the query log")
                    : StrCat("no retained profile for record ", id)));
      }
      response.body = obs::ProfileToChromeTrace(*profile);
      break;
    }
  }
  return response;
}

std::string QueryServer::HealthzJson() {
  const bool draining = stopping_.load(std::memory_order_acquire);
  const int64_t inflight = in_flight_.load(std::memory_order_acquire);
  const char* state = draining ? "draining"
                     : inflight > options_.soft_watermark ? "shedding"
                                                          : "accepting";
  int64_t stalled = 0;
  {
    MutexLock lock(&mu_);
    stalled = stalled_sessions_;
  }
  const double uptime =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - started_at_)
          .count();
  // "healthy" is the watchdog's verdict alone — shedding and draining are
  // load states a balancer reads from "state", not liveness failures.
  return StrCat(
      "{\"state\": \"", state, "\", \"healthy\": ",
      stalled == 0 ? "true" : "false", ", \"in_flight\": ", inflight,
      ", \"soft_watermark\": ", options_.soft_watermark,
      ", \"hard_watermark\": ", options_.hard_watermark,
      ", \"stalled_sessions\": ", stalled,
      ", \"wide_events\": ", query_log_.total_recorded(),
      ", \"uptime_s\": ", FormatFixed(uptime, 3),
      ", \"query_port\": ", port_, ", \"admin_port\": ", admin_port_, "}");
}

void QueryServer::CheckStalls() {
  if (watchdog_bound_ms_ < 0) return;
  const auto now = std::chrono::steady_clock::now();
  const auto bound = std::chrono::milliseconds(watchdog_bound_ms_);
  MutexLock lock(&mu_);
  for (auto& [id, session] : live_) {
    if (!session.stalled && now - session.start > bound) {
      // Flagged once per session; the flag clears (and healthz heals) when
      // the session deregisters.
      session.stalled = true;
      ++stalled_sessions_;
      watchdog_stalls_->Increment();
      stalled_gauge_->Set(stalled_sessions_);
    }
  }
}

int64_t QueryServer::stalled_sessions() const {
  MutexLock lock(&mu_);
  return stalled_sessions_;
}

void QueryServer::WriteResponseBestEffort(const Socket& socket,
                                          const QueryResponse& response) {
  auto framed =
      FrameMessage(EncodeResponse(response), options_.max_frame_bytes);
  if (!framed.ok()) return;  // Cannot happen for hit-less responses.
  WriteFull(socket, framed->data(), framed->size(),
            DeadlineAfterMs(options_.write_timeout_ms))
      .IgnoreError();  // Best effort: the peer may already be gone.
}

Status QueryServer::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("QueryServer::Shutdown before Start");
  }
  // One drain at a time: a second caller (e.g. the destructor after an
  // explicit Shutdown) parks here and finds running_ already false.
  MutexLock shutdown_lock(&shutdown_mu_);
  if (!running_.load(std::memory_order_acquire)) return Status::OK();
  stopping_.store(true, std::memory_order_release);

  // Unblock the accept loop promptly (it also exits on its next tick).
  listener_.ShutdownBoth();

  // Phase 1 — stop accepting: wait for the accept loop to exit so no new
  // session can be admitted while we drain, then close the listener (safe
  // now: no other thread touches it).
  {
    MutexLock lock(&mu_);
    while (!accept_loop_done_) {
      drained_cv_.WaitFor(mu_, std::chrono::milliseconds(50));
    }
  }
  listener_.Close();

  // Phase 2 — natural drain: in-flight sessions get drain_deadline_ms to
  // finish on their own.
  const auto drain_deadline = DeadlineAfterMs(options_.drain_deadline_ms);
  {
    MutexLock lock(&mu_);
    while (in_flight_.load(std::memory_order_acquire) > 0 &&
           std::chrono::steady_clock::now() < drain_deadline) {
      drained_cv_.WaitFor(mu_, std::chrono::milliseconds(10));
    }
  }

  // Phase 3 — cancel the stragglers: cooperative context cancellation for
  // sessions mid-evaluation, socket shutdown for sessions parked in
  // transport I/O. Sessions dequeued after this point answer "draining".
  drain_cancelled_.store(true, std::memory_order_release);
  {
    MutexLock lock(&mu_);
    for (auto& [id, session] : live_) {
      if (session.ctx != nullptr) session.ctx->Cancel();
      if (session.socket != nullptr) session.socket->ShutdownBoth();
    }
  }

  // Phase 4 — bounded wait for the cancelled sessions, then join.
  const auto cancel_deadline = DeadlineAfterMs(kCancelledDrainSlackMs);
  {
    MutexLock lock(&mu_);
    while (in_flight_.load(std::memory_order_acquire) > 0 &&
           std::chrono::steady_clock::now() < cancel_deadline) {
      drained_cv_.WaitFor(mu_, std::chrono::milliseconds(10));
    }
  }
  const int64_t leaked = in_flight_.load(std::memory_order_acquire);
  if (leaked > 0) {
    // Do NOT destroy the pool with live sessions on it (their joins would
    // block forever); report the bug instead.
    return Status::Internal(
        StrCat("drain leaked ", leaked, " session(s) past the deadline"));
  }

  // Phase 5 — retire the telemetry plane last: the admin loop kept
  // answering (healthz state "draining") through phases 1-4, so a watcher
  // sees the drain happen instead of a dead port.
  admin_stopping_.store(true, std::memory_order_release);
  admin_listener_.ShutdownBoth();
  {
    MutexLock lock(&mu_);
    while (!admin_loop_done_) {
      drained_cv_.WaitFor(mu_, std::chrono::milliseconds(50));
    }
  }
  admin_listener_.Close();

  pool_.reset();  // Drains the (now empty) queue and joins every worker.
  running_.store(false, std::memory_order_release);
  return Status::OK();
}

}  // namespace htl::net
