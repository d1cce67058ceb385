#ifndef BENCH_E2E_BENCH_E2E_H_
#define BENCH_E2E_BENCH_E2E_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/retrieval.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "util/result.h"
#include "workloads.h"

namespace e2e {

/// One reported number. `name` and `unit` match BENCHMARK.json.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the required fields of the final JSON line, the
/// metrics that line carries (the end-to-end set, or the per-layer set with
/// --trace), and `extra` numbers that are printed but not compared.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
};

/// Per-request server budget; far above any request's cost, so a deadline
/// miss is a failure, never load shedding by design.
inline constexpr int64_t kDeadlineMs = 10'000;

/// The server configuration shared by every workload: ServerOptions
/// defaults (request tracing on), pruning on, one shard, the default engine
/// mode, and a soft watermark above the client count so nothing is shed.
htl::net::ServerOptions ServerOptionsFor(const Workload& w);

/// One attempt per request (a failure is counted, never retried away),
/// transport deadlines past the request budget.
htl::net::ClientOptions ClientOptionsFor(uint16_t port);

/// The wire request for query `query` of `w`.
htl::net::QueryRequest RequestFor(const Workload& w, int query);

/// Constructs and starts a server on `w.store`, then sends every distinct
/// query once (the warm-up that builds per-video engines and stats).
htl::Result<std::unique_ptr<htl::net::QueryServer>> StartWarmServer(const Workload& w);

/// Retriever hits in wire form.
std::vector<htl::net::WireHit> ToWire(const std::vector<htl::SegmentHit>& hits);

/// True when the wire hits equal `want` bit for bit.
bool SameHits(const std::vector<htl::net::WireHit>& got,
              const std::vector<htl::net::WireHit>& want);

/// Closed-loop load through QueryClient -> QueryServer -> Retriever for
/// `seconds`, spread over several server instances started in turn, then
/// the oracle. Reports the end-to-end metric set.
htl::Result<RunResult> RunLoad(Workload& w, double seconds);

/// Single-thread replay of the workload's seeded request prefix, timing each
/// layer's public functions from outside. Reports the per-layer metric set
/// and writes BENCH_e2e_trace_<workload>.json (Chrome trace_event).
htl::Result<RunResult> RunTrace(Workload& w, double seconds);

}  // namespace e2e

#endif  // BENCH_E2E_BENCH_E2E_H_
