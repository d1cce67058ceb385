// Measures the cost of the observability layer's *disarmed* paths — the
// price every query pays now that spans and counters are compiled into the
// hot kernels. Arms:
//
//   baseline   no ExecContext at all (instrumentation still compiled in;
//              every HTL_OBS_COUNT is one relaxed load + branch, every
//              TraceSpan a null-pointer test);
//   ctx        default ExecContext, no trace attached — the configuration
//              the <2% bar of PR 2 was set against, now also carrying the
//              disarmed trace checks;
//   traced     ExecContext with a QueryTrace attached (informational: what
//              EXPLAIN costs when you ask for it);
//   metrics    no trace, MetricsRegistry enabled (informational: armed
//              counters without spans);
//   querylog   no trace, plus one wide-event QueryLog::Record per query with
//              profile retention disarmed — what the server's query log
//              costs on requests that are not slow/sampled.
//
// The gates: ctx vs baseline AND querylog vs baseline must stay under the
// overhead limit (default 2%, override with HTL_OBS_OVERHEAD_LIMIT).
// Per-arm times are best-of-rounds to fight scheduler noise; the binary
// exits non-zero when a gate fails, so CI can run it directly.

#include <cstdio>
#include <cstdlib>

#include "engine/exec_context.h"
#include "engine/retrieval.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "perf_common.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "workload/video_gen.h"

int main() {
  using namespace htl;

  double limit = 0.02;
  if (const char* env = std::getenv("HTL_OBS_OVERHEAD_LIMIT"); env != nullptr) {
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end != env && parsed > 0) limit = parsed;
  }

  bench::BenchJson json("obs_overhead");
  MetadataStore store;
  Rng rng(2024);
  VideoGenOptions opts;
  opts.levels = 2;
  opts.min_branching = 40;
  opts.max_branching = 60;
  for (int i = 0; i < 32; ++i) store.AddVideo(GenerateVideo(rng, opts));
  Retriever retriever(&store);

  const char* queries[] = {
      "exists p (type(p) = 'person' and armed(p))",
      "exists p (present(p)) until duration >= 90",
      "exists a, b (present(a) and present(b) and fires_at(a, b))",
  };

  constexpr int kReps = 250;
  constexpr int kRounds = 12;
  double total_baseline = 0, total_ctx = 0, total_traced = 0, total_metrics = 0;
  double total_querylog = 0;

  // The disarmed server configuration: a bounded ring, never retaining a
  // profile — every Record is a lock, a struct copy, and a slot overwrite.
  obs::QueryLog::Options qlopts;
  qlopts.slow_threshold_us = -1;
  obs::QueryLog query_log(qlopts);

  std::printf("observability disarmed-path overhead (32 videos, best of %d rounds)\n",
              kRounds);
  std::printf("%-40s %-12s %-12s %-12s %-12s %-12s %s\n", "query", "baseline ms",
              "ctx ms", "traced ms", "metrics ms", "querylog ms", "ctx overhead");

  for (const char* q : queries) {
    auto prepared = retriever.Prepare(q);
    if (!prepared.ok()) {
      std::printf("query error: %s\n", prepared.status().ToString().c_str());
      return 1;
    }
    const Formula& f = *prepared.value();
    // Warm-up pays the per-video atomic indexing once.
    {
      auto warm = retriever.TopSegmentsWithReport(f, 2, 10);
      HTL_CHECK(warm.ok()) << warm.status().ToString();
      HTL_CHECK_OK(warm->report.FirstFailure());
    }
    // One timed pass is kReps queries; `traced` attaches a fresh trace per
    // query (that is what a profiled query costs end to end). Arms are
    // interleaved round-robin inside every round so scheduler drift and
    // frequency scaling hit all of them alike, and each arm keeps its best
    // round.
    auto time_arm = [&](ExecContext* ctx, bool attach_trace) -> double {
      WallTimer timer;
      for (int r = 0; r < kReps; ++r) {
        if (attach_trace) {
          obs::QueryTrace trace;
          ctx->set_trace(&trace);
          auto result = retriever.TopSegmentsWithReport(f, 2, 10, ctx);
          ctx->set_trace(nullptr);
          HTL_CHECK(result.ok()) << result.status().ToString();
          HTL_CHECK_OK(result->report.FirstFailure());
          // Include profile construction in the traced arm's cost.
          const obs::QueryProfile profile = trace.Finish();
          HTL_CHECK(!profile.empty());
        } else {
          auto result = retriever.TopSegmentsWithReport(f, 2, 10, ctx);
          HTL_CHECK(result.ok()) << result.status().ToString();
          HTL_CHECK_OK(result->report.FirstFailure());
        }
      }
      return 1e3 * timer.ElapsedSeconds() / kReps;
    };

    // The querylog arm: the baseline query plus the wide event the server
    // lands for it (fields filled the way src/net/server.cc fills them).
    auto time_querylog_arm = [&]() -> double {
      WallTimer timer;
      for (int r = 0; r < kReps; ++r) {
        auto result = retriever.TopSegmentsWithReport(f, 2, 10, nullptr);
        HTL_CHECK(result.ok()) << result.status().ToString();
        HTL_CHECK_OK(result->report.FirstFailure());
        obs::QueryLogRecord record;
        record.query = q;
        record.fingerprint = static_cast<uint64_t>(r) + 1;
        record.kind = 0;
        record.level = 2;
        record.k = 10;
        record.execute_us = 1;
        record.total_us = 1;
        query_log.Record(std::move(record));
      }
      return 1e3 * timer.ElapsedSeconds() / kReps;
    };

    ExecContext ctx;  // Default: no deadline, unlimited budgets, no trace.
    ExecContext traced_ctx;
    double baseline_ms = 1e99, ctx_ms = 1e99, traced_ms = 1e99, metrics_ms = 1e99;
    double querylog_ms = 1e99;
    for (int round = 0; round < kRounds; ++round) {
      baseline_ms = std::min(baseline_ms, time_arm(nullptr, false));
      ctx_ms = std::min(ctx_ms, time_arm(&ctx, false));
      traced_ms = std::min(traced_ms, time_arm(&traced_ctx, true));
      obs::MetricsRegistry::Instance().SetEnabled(true);
      metrics_ms = std::min(metrics_ms, time_arm(nullptr, false));
      obs::MetricsRegistry::Instance().SetEnabled(false);
      querylog_ms = std::min(querylog_ms, time_querylog_arm());
    }

    total_baseline += baseline_ms;
    total_ctx += ctx_ms;
    total_traced += traced_ms;
    total_metrics += metrics_ms;
    total_querylog += querylog_ms;
    const double overhead = baseline_ms > 0 ? ctx_ms / baseline_ms - 1.0 : 0.0;
    std::printf("%-40s %-12.3f %-12.3f %-12.3f %-12.3f %-12.3f %+.1f%%\n", q,
                baseline_ms, ctx_ms, traced_ms, metrics_ms, querylog_ms,
                1e2 * overhead);
    json.Add(q, {{"baseline_ms", baseline_ms},
                 {"ctx_ms", ctx_ms},
                 {"traced_ms", traced_ms},
                 {"metrics_ms", metrics_ms},
                 {"querylog_ms", querylog_ms},
                 {"disarmed_overhead", overhead}});
  }

  const double overhead =
      total_baseline > 0 ? total_ctx / total_baseline - 1.0 : 0.0;
  const double traced_overhead =
      total_baseline > 0 ? total_traced / total_baseline - 1.0 : 0.0;
  const double metrics_overhead =
      total_baseline > 0 ? total_metrics / total_baseline - 1.0 : 0.0;
  const double querylog_overhead =
      total_baseline > 0 ? total_querylog / total_baseline - 1.0 : 0.0;
  json.Add("aggregate", {{"baseline_ms", total_baseline},
                         {"ctx_ms", total_ctx},
                         {"traced_ms", total_traced},
                         {"metrics_ms", total_metrics},
                         {"querylog_ms", total_querylog},
                         {"disarmed_overhead", overhead},
                         {"traced_overhead", traced_overhead},
                         {"metrics_overhead", metrics_overhead},
                         {"querylog_overhead", querylog_overhead},
                         {"limit", limit}});
  std::printf(
      "\naggregate: disarmed (ctx, no trace) %+.2f%% vs baseline (limit %.0f%%);\n"
      "querylog (wide event, no retention) %+.2f%% (same limit);\n"
      "traced %+.2f%%, metrics-enabled %+.2f%% (informational)\n",
      1e2 * overhead, 1e2 * limit, 1e2 * querylog_overhead,
      1e2 * traced_overhead, 1e2 * metrics_overhead);

  bool failed = false;
  if (overhead > limit) {
    std::printf("FAIL: disarmed observability overhead %.2f%% exceeds limit %.0f%%\n",
                1e2 * overhead, 1e2 * limit);
    failed = true;
  }
  if (querylog_overhead > limit) {
    std::printf("FAIL: disarmed query-log overhead %.2f%% exceeds limit %.0f%%\n",
                1e2 * querylog_overhead, 1e2 * limit);
    failed = true;
  }
  if (failed) return 1;
  std::printf("PASS: disarmed observability and query-log overhead within limit\n");
  return 0;
}
