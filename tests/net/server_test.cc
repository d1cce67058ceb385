// End-to-end QueryServer robustness: happy paths for both systems, deadline
// mapping, malformed/oversized/slow-loris transport abuse, soft/hard
// watermark shedding, injected net.* and engine faults over the wire, the
// client retry policy, and graceful drain under load.

#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/retrieval.h"
#include "model/video.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "sim/sim_list.h"
#include "testing/helpers.h"
#include "util/fault_point.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/random_lists.h"
#include "workload/video_gen.h"

namespace htl::net {
namespace {

constexpr const char* kQuery =
    "exists x (type(x) = 'person') until exists y (type(y) = 'train')";
// Type-2 query whose quantified conjunction goes through the direct
// engine's table joins — the shape that trips `engine.table_join` and
// charges rows against shed budgets.
constexpr const char* kJoinQuery =
    "exists x (present(x) and moving(x) and eventually armed(x))";
constexpr const char* kSqlQuery = "p0() until eventually p1()";
constexpr int64_t kSqlN = 200;

// The generated videos carry their facts on the shot level; levels above it
// are structural only, so queries are asked at the leaf level.
constexpr int kLevel = 3;

MetadataStore MakeStore(int num_videos) {
  MetadataStore store;
  Rng rng(20260808);
  for (int i = 0; i < num_videos; ++i) {
    VideoGenOptions vopts;
    vopts.min_branching = 2;
    vopts.max_branching = 3;
    store.AddVideo(GenerateVideo(rng, vopts));
  }
  return store;
}

std::map<std::string, SimilarityList> MakeSqlInputs() {
  Rng rng(4242);
  RandomListOptions lopts;
  lopts.num_segments = kSqlN;
  lopts.coverage = 0.25;
  std::map<std::string, SimilarityList> inputs;
  inputs["p0"] = GenerateRandomList(rng, lopts);
  inputs["p1"] = GenerateRandomList(rng, lopts);
  return inputs;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().DisableAll(); }
  void TearDown() override {
    FaultRegistry::Instance().DisableAll();
    if (server_ != nullptr && server_->running()) {
      EXPECT_OK(server_->Shutdown());
    }
  }

  /// Starts a server over a `num_videos`-video store with `options`
  /// (port/listener fields overwritten).
  void StartServer(ServerOptions options, int num_videos = 6) {
    store_ = MakeStore(num_videos);
    options.port = 0;
    server_ = std::make_unique<QueryServer>(&store_, options);
    ASSERT_OK(server_->Start());
  }

  QueryClient MakeClient(int max_attempts = 1) {
    ClientOptions copts;
    copts.port = server_->port();
    copts.max_attempts = max_attempts;
    copts.backoff_initial_ms = 1;
    copts.backoff_max_ms = 4;
    return QueryClient(copts);
  }

  /// Writes raw `bytes` to a fresh connection and decodes one framed
  /// response (the transport-abuse tests speak bytes, not QueryRequests).
  Result<QueryResponse> RawExchange(const std::string& bytes) {
    HTL_ASSIGN_OR_RETURN(
        const Socket conn,
        Connect("127.0.0.1", server_->port(), DeadlineAfterMs(2000)));
    HTL_RETURN_IF_ERROR(
        WriteFull(conn, bytes.data(), bytes.size(), DeadlineAfterMs(2000)));
    uint8_t header[kFrameHeaderBytes];
    HTL_RETURN_IF_ERROR(
        ReadFull(conn, header, sizeof(header), DeadlineAfterMs(2000)));
    HTL_ASSIGN_OR_RETURN(const uint32_t body_len,
                         CheckFrameHeader(header, kDefaultMaxFrameBytes));
    std::string body(body_len, '\0');
    HTL_RETURN_IF_ERROR(
        ReadFull(conn, body.data(), body.size(), DeadlineAfterMs(2000)));
    return DecodeResponse(body);
  }

  /// Opens a connection that sends nothing — admitted by the server, it
  /// occupies an in-flight slot until the read deadline. The watermark
  /// tests park several of these to push the server into each band.
  Result<Socket> OpenIdleConnection() {
    return Connect("127.0.0.1", server_->port(), DeadlineAfterMs(2000));
  }

  /// Waits until the server reports at least `n` sessions in flight.
  void AwaitInFlight(int64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server_->in_flight() < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(server_->in_flight(), n);
  }

  MetadataStore store_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServerTest, HtlSegmentsMatchesLocalRetriever) {
  StartServer(ServerOptions{});
  QueryRequest request;
  request.kind = QueryKind::kHtlSegments;
  request.level = kLevel;
  request.k = 10;
  request.query_text = kQuery;
  ASSERT_OK_AND_ASSIGN(QueryResponse response, MakeClient().Query(request));
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_FALSE(response.degraded());
  EXPECT_FALSE(response.partial());
  EXPECT_EQ(response.videos_failed, 0);
  EXPECT_EQ(response.videos_evaluated, store_.num_videos());

  // The wire hits are exactly the local Retriever's ranked hits.
  Retriever local(&store_);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, local.Prepare(kQuery));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval want,
                       local.TopSegmentsWithReport(*f, kLevel, 10));
  ASSERT_EQ(response.hits.size(), want.hits.size());
  for (size_t i = 0; i < want.hits.size(); ++i) {
    EXPECT_EQ(response.hits[i].video, want.hits[i].video) << "hit " << i;
    EXPECT_EQ(response.hits[i].segment, want.hits[i].segment) << "hit " << i;
    EXPECT_EQ(response.hits[i].actual, want.hits[i].sim.actual) << "hit " << i;
    EXPECT_EQ(response.hits[i].max, want.hits[i].sim.max) << "hit " << i;
  }
}

TEST_F(ServerTest, HtlVideosMatchesLocalRetriever) {
  StartServer(ServerOptions{});
  QueryRequest request;
  request.kind = QueryKind::kHtlVideos;
  request.k = 4;
  request.query_text = "eventually exists x (moving(x))";
  ASSERT_OK_AND_ASSIGN(QueryResponse response, MakeClient().Query(request));
  ASSERT_TRUE(response.ok()) << response.message;

  Retriever local(&store_);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, local.Prepare(request.query_text));
  ASSERT_OK_AND_ASSIGN(VideoRetrieval want, local.TopVideosWithReport(*f, 4));
  ASSERT_EQ(response.hits.size(), want.hits.size());
  for (size_t i = 0; i < want.hits.size(); ++i) {
    EXPECT_EQ(response.hits[i].video, want.hits[i].video) << "hit " << i;
    EXPECT_EQ(response.hits[i].actual, want.hits[i].sim.actual) << "hit " << i;
  }
}

TEST_F(ServerTest, SqlKindEvaluatesConfiguredInputs) {
  ServerOptions options;
  options.sql_inputs = MakeSqlInputs();
  options.sql_n = kSqlN;
  StartServer(options);

  QueryRequest request;
  request.kind = QueryKind::kSql;
  request.k = 5;
  request.query_text = kSqlQuery;
  ASSERT_OK_AND_ASSIGN(QueryResponse response, MakeClient().Query(request));
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_FALSE(response.hits.empty());
  for (const WireHit& hit : response.hits) {
    EXPECT_EQ(hit.video, 0);  // SQL hits address the input relations.
    EXPECT_GT(hit.segment, 0);
    EXPECT_LE(hit.segment, kSqlN);
  }
}

TEST_F(ServerTest, SqlKindWithoutInputsIsUnimplemented) {
  StartServer(ServerOptions{});
  QueryRequest request;
  request.kind = QueryKind::kSql;
  request.query_text = kSqlQuery;
  ASSERT_OK_AND_ASSIGN(QueryResponse response, MakeClient().Query(request));
  EXPECT_EQ(response.status, WireStatus::kWireUnimplemented);
}

TEST_F(ServerTest, ParseErrorComesBackOverTheWire) {
  StartServer(ServerOptions{});
  QueryRequest request;
  request.query_text = "exists x ((((";
  ASSERT_OK_AND_ASSIGN(QueryResponse response, MakeClient().Query(request));
  EXPECT_FALSE(response.ok());
  EXPECT_FALSE(response.message.empty());
}

TEST_F(ServerTest, LevelBelowOneIsInvalidArgumentOverTheWire) {
  StartServer(ServerOptions{});
  for (int32_t level : {0, -1}) {
    SCOPED_TRACE(level);
    QueryRequest request;
    request.level = level;
    request.query_text = kQuery;
    ASSERT_OK_AND_ASSIGN(QueryResponse response, MakeClient().Query(request));
    EXPECT_EQ(response.status, WireStatus::kWireInvalidArgument) << response.message;
    EXPECT_FALSE(response.partial());
    EXPECT_TRUE(response.hits.empty());
  }
}

TEST_F(ServerTest, WantProfileAttachesExplainText) {
  StartServer(ServerOptions{});
  QueryRequest request;
  request.level = kLevel;
  request.query_text = kQuery;
  request.flags = kFlagWantProfile;
  ASSERT_OK_AND_ASSIGN(QueryResponse response, MakeClient().Query(request));
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_FALSE(response.message.empty());
}

TEST_F(ServerTest, CacheAndParallelismOptionsAreStable) {
  StartServer(ServerOptions{});
  QueryRequest request;
  request.level = kLevel;
  request.query_text = kQuery;

  ASSERT_OK_AND_ASSIGN(QueryResponse plain, MakeClient().Query(request));
  ASSERT_TRUE(plain.ok()) << plain.message;

  request.use_cache = true;
  ASSERT_OK_AND_ASSIGN(QueryResponse cached1, MakeClient().Query(request));
  ASSERT_OK_AND_ASSIGN(QueryResponse cached2, MakeClient().Query(request));
  request.use_cache = false;
  request.parallelism = 1;
  ASSERT_OK_AND_ASSIGN(QueryResponse serial, MakeClient().Query(request));

  for (const QueryResponse* other : {&cached1, &cached2, &serial}) {
    ASSERT_TRUE(other->ok()) << other->message;
    ASSERT_EQ(other->hits.size(), plain.hits.size());
    for (size_t i = 0; i < plain.hits.size(); ++i) {
      EXPECT_EQ(other->hits[i].video, plain.hits[i].video);
      EXPECT_EQ(other->hits[i].segment, plain.hits[i].segment);
      EXPECT_EQ(other->hits[i].actual, plain.hits[i].actual);
    }
  }
}

TEST_F(ServerTest, ExpiredDefaultDeadlineSurfacesOverTheWire) {
  // default_deadline_ms = 0 maps to an already-expired ExecContext
  // (SetTimeoutMs clamp contract), so every request that relies on the
  // server default must come back kWireDeadlineExceeded — the deterministic
  // proof that deadline_ms really lands on the evaluation context.
  ServerOptions options;
  options.default_deadline_ms = 0;
  StartServer(options);

  QueryRequest request;
  request.level = kLevel;
  request.query_text = kQuery;
  request.deadline_ms = 0;  // "Use the server default" — which is expired.
  ASSERT_OK_AND_ASSIGN(QueryResponse expired, MakeClient().Query(request));
  EXPECT_EQ(expired.status, WireStatus::kWireDeadlineExceeded)
      << expired.message;

  // A generous explicit deadline on the same server succeeds: the request
  // budget, not the server default, is what ran.
  request.deadline_ms = 30'000;
  ASSERT_OK_AND_ASSIGN(QueryResponse fine, MakeClient().Query(request));
  EXPECT_TRUE(fine.ok()) << fine.message;
}

TEST_F(ServerTest, MalformedBodyGetsWellFormedErrorResponse) {
  StartServer(ServerOptions{});
  ASSERT_OK_AND_ASSIGN(const std::string framed,
                       FrameMessage("not a request", kDefaultMaxFrameBytes));
  ASSERT_OK_AND_ASSIGN(QueryResponse response, RawExchange(framed));
  EXPECT_FALSE(response.ok());
  EXPECT_FALSE(response.message.empty());
}

TEST_F(ServerTest, BadMagicGetsErrorResponseAndClose) {
  StartServer(ServerOptions{});
  ASSERT_OK_AND_ASSIGN(QueryResponse response,
                       RawExchange("XXXXXXXXtrailing"));
  EXPECT_EQ(response.status, WireStatus::kWireInvalidArgument);
}

TEST_F(ServerTest, OversizedFrameIsRefusedBeforeAllocation) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  StartServer(options);
  // Valid magic, length far past the server's cap, no body behind it.
  ASSERT_OK_AND_ASSIGN(std::string framed,
                       FrameMessage("x", kDefaultMaxFrameBytes));
  const uint32_t huge = 64u << 20;
  std::memcpy(framed.data() + 4, &huge, sizeof(huge));
  framed.resize(kFrameHeaderBytes);
  ASSERT_OK_AND_ASSIGN(QueryResponse response, RawExchange(framed));
  EXPECT_EQ(response.status, WireStatus::kWireResourceExhausted);
}

TEST_F(ServerTest, SlowLorisIsDroppedAtReadDeadline) {
  ServerOptions options;
  options.read_timeout_ms = 100;
  StartServer(options);

  ASSERT_OK_AND_ASSIGN(
      const Socket conn,
      Connect("127.0.0.1", server_->port(), DeadlineAfterMs(2000)));
  // Half a header, then silence.
  ASSERT_OK(WriteFull(conn, "HTLQ", 4, DeadlineAfterMs(1000)));
  char buf[1];
  const Status read = ReadFull(conn, buf, sizeof(buf), DeadlineAfterMs(5000));
  // The server hung up on us (no response frame) — and promptly.
  EXPECT_TRUE(read.IsUnavailable()) << read.ToString();
  // The slot was released: a normal request right after succeeds.
  QueryRequest request;
  request.level = kLevel;
  request.query_text = kQuery;
  ASSERT_OK_AND_ASSIGN(QueryResponse response, MakeClient().Query(request));
  EXPECT_TRUE(response.ok()) << response.message;
}

TEST_F(ServerTest, SoftWatermarkShedsToDegradedPartialResults) {
  ServerOptions options;
  options.worker_threads = 4;
  options.soft_watermark = 1;
  options.hard_watermark = 16;
  options.read_timeout_ms = 10'000;  // Keep the parked sessions parked.
  options.shed_budgets = ExecBudgets{.max_rows = 1};  // Shed hard: all fail.
  StartServer(options);

  ASSERT_OK_AND_ASSIGN(const Socket idle1, OpenIdleConnection());
  ASSERT_OK_AND_ASSIGN(const Socket idle2, OpenIdleConnection());
  AwaitInFlight(2);

  QueryRequest request;
  request.level = kLevel;
  request.query_text = kQuery;
  ASSERT_OK_AND_ASSIGN(QueryResponse response,
                       MakeClient().QueryOnce(request));
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_TRUE(response.degraded());
  // With a 1-row budget videos blow ResourceExhausted and are skipped: the
  // response is a truthful partial top-k, not an error.
  EXPECT_TRUE(response.partial());
  EXPECT_GT(response.videos_failed, 0);
  EXPECT_EQ(response.videos_failed + response.videos_evaluated,
            store_.num_videos());
  EXPECT_FALSE(response.message.empty());
}

TEST_F(ServerTest, ShedSqlBudgetExhaustionMapsToOverloaded) {
  // SQL statements have no per-video skip path: when the shed budgets fail
  // the whole statement with ResourceExhausted, the server must report the
  // retryable Overloaded refusal (the failure is the server's shedding, not
  // the request — un-shed requests run with unlimited budgets).
  ServerOptions options;
  options.worker_threads = 4;
  options.soft_watermark = 1;
  options.hard_watermark = 16;
  options.read_timeout_ms = 10'000;
  options.shed_budgets = ExecBudgets{.max_rows = 1};
  options.sql_inputs = MakeSqlInputs();
  options.sql_n = kSqlN;
  StartServer(options);

  ASSERT_OK_AND_ASSIGN(const Socket idle1, OpenIdleConnection());
  ASSERT_OK_AND_ASSIGN(const Socket idle2, OpenIdleConnection());
  AwaitInFlight(2);

  QueryRequest request;
  request.kind = QueryKind::kSql;
  request.query_text = kSqlQuery;
  ASSERT_OK_AND_ASSIGN(QueryResponse response,
                       MakeClient().QueryOnce(request));
  EXPECT_EQ(response.status, WireStatus::kWireOverloaded) << response.message;
  EXPECT_TRUE(response.degraded());
}

TEST_F(ServerTest, HardWatermarkRefusesWithOverloaded) {
  ServerOptions options;
  options.worker_threads = 2;
  options.soft_watermark = 1;
  options.hard_watermark = 2;
  options.read_timeout_ms = 10'000;
  StartServer(options);

  ASSERT_OK_AND_ASSIGN(const Socket idle1, OpenIdleConnection());
  ASSERT_OK_AND_ASSIGN(const Socket idle2, OpenIdleConnection());
  AwaitInFlight(2);

  QueryRequest request;
  request.level = kLevel;
  request.query_text = kQuery;
  ASSERT_OK_AND_ASSIGN(QueryResponse response,
                       MakeClient().QueryOnce(request));
  EXPECT_EQ(response.status, WireStatus::kWireOverloaded)
      << response.message;
  EXPECT_FALSE(response.message.empty());
}

TEST_F(ServerTest, NetSessionFaultBecomesWellFormedErrorResponse) {
  StartServer(ServerOptions{});
  FaultRegistry::Instance().Enable(
      "net.session", FaultSpec{.code = StatusCode::kInternal});
  QueryRequest request;
  request.query_text = kQuery;
  ASSERT_OK_AND_ASSIGN(QueryResponse response,
                       MakeClient().QueryOnce(request));
  EXPECT_EQ(response.status, WireStatus::kWireInternal);
  EXPECT_FALSE(response.message.empty());
}

TEST_F(ServerTest, NetReadFrameFaultDropsConnectionCleanly) {
  StartServer(ServerOptions{});
  FaultRegistry::Instance().Enable(
      "net.read_frame", FaultSpec{.code = StatusCode::kInternal});
  QueryRequest request;
  request.query_text = kQuery;
  auto response = MakeClient().QueryOnce(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable())
      << response.status().ToString();

  // Disarm: the server survived and serves normally again.
  FaultRegistry::Instance().DisableAll();
  ASSERT_OK_AND_ASSIGN(QueryResponse ok_response,
                       MakeClient().QueryOnce(request));
  EXPECT_TRUE(ok_response.ok()) << ok_response.message;
}

TEST_F(ServerTest, NetWriteFrameFaultDropsResponseCleanly) {
  StartServer(ServerOptions{});
  FaultRegistry::Instance().Enable(
      "net.write_frame", FaultSpec{.code = StatusCode::kInternal});
  QueryRequest request;
  request.query_text = kQuery;
  auto response = MakeClient().QueryOnce(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable())
      << response.status().ToString();
}

TEST_F(ServerTest, NetAcceptFaultDropsConnectionAndKeepsServing) {
  StartServer(ServerOptions{});
  FaultRegistry::Instance().Enable(
      "net.accept",
      FaultSpec{.code = StatusCode::kInternal, .fire_on_hit = 1, .sticky = false});
  QueryRequest request;
  request.query_text = kQuery;
  auto dropped = MakeClient().QueryOnce(request);
  EXPECT_FALSE(dropped.ok());
  // Fault fired once; the next connection is served.
  ASSERT_OK_AND_ASSIGN(QueryResponse response,
                       MakeClient().QueryOnce(request));
  EXPECT_TRUE(response.ok()) << response.message;
}

// Satellite: a fault injected at engine.table_join must surface over the
// wire as a *degraded* (partial) response with the skipped-video counts
// intact — the RetrievalReport contract does not stop at the process edge.
TEST_F(ServerTest, EngineFaultSurfacesAsPartialResponseOverWire) {
  StartServer(ServerOptions{});
  FaultRegistry::Instance().Enable(
      "engine.table_join", FaultSpec{.code = StatusCode::kInternal});

  QueryRequest request;
  request.level = kLevel;
  request.query_text = kJoinQuery;  // Table joins in every video.
  ASSERT_OK_AND_ASSIGN(QueryResponse response, MakeClient().Query(request));
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_TRUE(response.partial());
  EXPECT_GT(response.videos_failed, 0);

  // The wire counts are exactly what a local run under the same sticky
  // fault reports — skipped-video truth survives the process edge.
  Retriever local(&store_);
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, local.Prepare(kJoinQuery));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval want,
                       local.TopSegmentsWithReport(*f, kLevel, 10));
  EXPECT_EQ(response.videos_failed, want.report.videos_failed);
  EXPECT_EQ(response.videos_evaluated, want.report.videos_evaluated);
  EXPECT_EQ(response.hits.size(), want.hits.size());
  // The summary names the failure so operators can tell shed from broken.
  EXPECT_FALSE(response.message.empty());
}

TEST_F(ServerTest, StartTwiceIsFailedPrecondition) {
  StartServer(ServerOptions{});
  const Status again = server_->Start();
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServerTest, ShutdownIsIdempotent) {
  StartServer(ServerOptions{});
  ASSERT_OK(server_->Shutdown());
  EXPECT_FALSE(server_->running());
  ASSERT_OK(server_->Shutdown());
}

TEST_F(ServerTest, DrainUnderLoadFinishesInFlightAndRefusesNew) {
  ServerOptions options;
  options.worker_threads = 4;
  options.hard_watermark = 64;
  options.default_deadline_ms = 5000;
  options.drain_deadline_ms = 3000;
  StartServer(options, /*num_videos=*/8);
  const uint16_t port = server_->port();

  // Client load: fire requests as fast as they complete, from 4 threads,
  // while the main thread shuts the server down. Every outcome must be
  // well-formed: a decoded response or a clean transport error.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> ok_count{0};
  std::atomic<int64_t> refused_count{0};
  std::atomic<int64_t> transport_count{0};
  std::atomic<int64_t> malformed_count{0};
  {
    ThreadPool clients(ThreadPool::Options{.num_threads = 4});
    for (int t = 0; t < 4; ++t) {
      clients.Schedule([&, t] {
        ClientOptions copts;
        copts.port = port;
        copts.max_attempts = 1;
        const QueryClient client(copts);
        QueryRequest request;
        request.level = kLevel;
        request.k = 5;
        request.query_text = kQuery;
        request.parallelism = 1;
        request.use_cache = (t % 2 == 0);
        while (!stop.load(std::memory_order_acquire)) {
          auto response = client.QueryOnce(request);
          if (response.ok()) {
            if (response->ok() || response->partial()) {
              ok_count.fetch_add(1, std::memory_order_relaxed);
            } else if (response->status == WireStatus::kWireOverloaded) {
              refused_count.fetch_add(1, std::memory_order_relaxed);
            } else {
              malformed_count.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (response.status().IsUnavailable() ||
                     response.status().IsDeadlineExceeded()) {
            transport_count.fetch_add(1, std::memory_order_relaxed);
          } else {
            malformed_count.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    // Let load build, then drain while requests are in the air.
    while (ok_count.load(std::memory_order_relaxed) < 8) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Status drained = server_->Shutdown();
    stop.store(true, std::memory_order_release);
    EXPECT_OK(drained);
  }  // Client pool joins here.

  EXPECT_EQ(server_->in_flight(), 0);
  EXPECT_FALSE(server_->running());
  EXPECT_GE(ok_count.load(), 8);
  EXPECT_EQ(malformed_count.load(), 0)
      << "torn frames or unexpected statuses during drain";
}

class ClientRetryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().DisableAll(); }
  void TearDown() override { FaultRegistry::Instance().DisableAll(); }
};

TEST_F(ClientRetryTest, BackoffScheduleIsCappedExponential) {
  ClientOptions options;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 50;
  options.backoff_multiplier = 2.0;
  EXPECT_EQ(QueryClient::BackoffDelayMs(options, 0), 0);
  EXPECT_EQ(QueryClient::BackoffDelayMs(options, 1), 10);
  EXPECT_EQ(QueryClient::BackoffDelayMs(options, 2), 20);
  EXPECT_EQ(QueryClient::BackoffDelayMs(options, 3), 40);
  EXPECT_EQ(QueryClient::BackoffDelayMs(options, 4), 50);   // Capped.
  EXPECT_EQ(QueryClient::BackoffDelayMs(options, 60), 50);  // Stays capped.

  ClientOptions no_backoff;
  no_backoff.backoff_initial_ms = 0;
  EXPECT_EQ(QueryClient::BackoffDelayMs(no_backoff, 3), 0);
}

TEST_F(ClientRetryTest, RetriesTransportUnavailableExactlyMaxAttempts) {
  // A server whose write path always faults: every attempt reaches the
  // server (the frame is read) and then the connection drops. The trace
  // counts net.read_frame hits == attempts.
  MetadataStore store = MakeStore(2);
  QueryServer server(&store, ServerOptions{});
  ASSERT_OK(server.Start());
  FaultRegistry::Instance().Enable(
      "net.write_frame", FaultSpec{.code = StatusCode::kInternal});
  FaultRegistry::Instance().StartTrace();

  ClientOptions copts;
  copts.port = server.port();
  copts.max_attempts = 3;
  copts.backoff_initial_ms = 1;
  copts.backoff_max_ms = 2;
  const QueryClient client(copts);
  QueryRequest request;
  request.query_text = kQuery;
  auto response = client.Query(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable())
      << response.status().ToString();
  EXPECT_EQ(FaultRegistry::Instance().TraceHits()["net.write_frame"], 3);

  FaultRegistry::Instance().DisableAll();
  ASSERT_OK(server.Shutdown());
}

TEST_F(ClientRetryTest, NeverRetriesDeadlineExceeded) {
  // A listener that accepts nothing: the client's read times out. One
  // connection lands in the backlog; a retry would enqueue a second.
  auto listener = ListenOnLoopback(0, 8);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ASSERT_OK_AND_ASSIGN(const uint16_t port, LocalPort(*listener));

  ClientOptions copts;
  copts.port = port;
  copts.max_attempts = 5;
  copts.io_timeout_ms = 100;
  copts.backoff_initial_ms = 1;
  const QueryClient client(copts);
  QueryRequest request;
  request.query_text = kQuery;
  auto response = client.Query(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded())
      << response.status().ToString();

  // Exactly one connection was attempted: the first accept succeeds, the
  // second finds an empty backlog.
  auto first = Accept(*listener, DeadlineAfterMs(1000));
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  auto second = Accept(*listener, DeadlineAfterMs(100));
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsDeadlineExceeded());
}

TEST_F(ClientRetryTest, FinalOverloadedResponseIsReturnedVerbatim) {
  // Hard watermark 1 + a parked session: every attempt is refused; after
  // max_attempts the client hands back the server's refusal, not a
  // synthetic error.
  MetadataStore store = MakeStore(2);
  ServerOptions options;
  options.worker_threads = 1;
  options.soft_watermark = 1;
  options.hard_watermark = 1;
  options.read_timeout_ms = 10'000;
  QueryServer server(&store, options);
  ASSERT_OK(server.Start());

  ASSERT_OK_AND_ASSIGN(
      const Socket idle,
      Connect("127.0.0.1", server.port(), DeadlineAfterMs(2000)));
  const auto park_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.in_flight() < 1 &&
         std::chrono::steady_clock::now() < park_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.in_flight(), 1);

  ClientOptions copts;
  copts.port = server.port();
  copts.max_attempts = 3;
  copts.backoff_initial_ms = 1;
  const QueryClient client(copts);
  QueryRequest request;
  request.query_text = kQuery;
  ASSERT_OK_AND_ASSIGN(QueryResponse response, client.Query(request));
  EXPECT_EQ(response.status, WireStatus::kWireOverloaded);

  ASSERT_OK(server.Shutdown());
}

}  // namespace
}  // namespace htl::net
