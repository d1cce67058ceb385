// End-to-end load: closed-loop clients over loopback, then the oracle.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>
#include <utility>

#include "bench_e2e.h"
#include "engine/direct_engine.h"
#include "engine/retrieval.h"
#include "htl/parser.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "sim/topk.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/casablanca.h"

namespace e2e {

using htl::MetadataStore;
using htl::Mutex;
using htl::MutexLock;
using htl::Status;
using htl::net::QueryClient;
using htl::net::QueryKind;
using htl::net::QueryRequest;
using htl::net::QueryResponse;
using htl::net::QueryServer;
using htl::net::WireHit;

namespace {

/// A run measures this many server instances in turn, each for an equal
/// share of the timed phase. Under contention an instance's throughput
/// settles at one of two levels for its whole life (corpus_selective: about
/// 100 or 140 qps, however often its clients restart), so one instance per
/// run would report a single draw: qps and latency_p50_ms pool every
/// instance's requests. The slowest 1% of a run's requests mostly come from
/// one instance that met the slow level or a stall of the host, so
/// latency_p99_ms is the median of the instances' own p99. Each instance's
/// set-up is timed, and setup_s is the median.
constexpr int kInstances = 8;

/// Worker threads the oracle adds beside the calling thread (4 CPUs).
constexpr int kOracleThreads = 3;

/// Table 4 values are decimal transcriptions of the paper.
constexpr double kTable4Tolerance = 1e-9;

/// Serializes store appends against in-flight requests (cached_churn): after
/// every `period` completed requests new requests park until the ones in
/// flight finish, the mutation runs with nothing in flight, and the clients
/// resume at the next epoch. Parked time is outside every latency sample
/// and outside the serving time qps divides by.
///
/// An instance's share of the run ends at the first period boundary past
/// `seconds`, so it always measures whole periods. Most of a period's time
/// is the rebuild after its append.
class MutationGate {
 public:
  MutationGate(int64_t period, int epoch, const htl::WallTimer* clock, double seconds,
               std::function<void(int)> mutate)
      : period_(period),
        clock_(clock),
        seconds_(seconds),
        mutate_(std::move(mutate)),
        epoch_(epoch) {}

  /// Waits out a pending mutation; returns the epoch the next request runs
  /// at, or -1 once the instance's share of the run has ended.
  int Enter() {
    MutexLock lock(&mu_);
    while (pending_) cv_.Wait(mu_);
    if (done_) return -1;
    ++active_;
    return epoch_;
  }

  /// Marks one request done; true when this completion crossed a period
  /// boundary and the caller must run Mutate().
  bool Exit() {
    MutexLock lock(&mu_);
    --active_;
    ++completed_;
    const bool mine = period_ > 0 && completed_ % period_ == 0;
    if (mine) pending_ = true;
    cv_.NotifyAll();
    return mine;
  }

  /// Appends at a period boundary once nothing is in flight, or ends the
  /// instance's share there when `seconds` have passed.
  void Mutate() {
    int next = 0;
    double parked_at = 0;
    {
      MutexLock lock(&mu_);
      while (active_ > 0) cv_.Wait(mu_);
      if (clock_->ElapsedSeconds() >= seconds_) {
        done_ = true;
        pending_ = false;
        cv_.NotifyAll();
        return;
      }
      next = epoch_ + 1;
      parked_at = clock_->ElapsedSeconds();
    }
    mutate_(next);
    MutexLock lock(&mu_);
    parked_s_ += clock_->ElapsedSeconds() - parked_at;
    epoch_ = next;
    pending_ = false;
    cv_.NotifyAll();
  }

  int epoch() {
    MutexLock lock(&mu_);
    return epoch_;
  }

  double parked_s() {
    MutexLock lock(&mu_);
    return parked_s_;
  }

 private:
  const int64_t period_;
  const htl::WallTimer* const clock_;
  const double seconds_;
  const std::function<void(int)> mutate_;
  Mutex mu_;
  htl::CondVar cv_;
  int active_ HTL_GUARDED_BY(mu_) = 0;
  int64_t completed_ HTL_GUARDED_BY(mu_) = 0;
  bool pending_ HTL_GUARDED_BY(mu_) = false;
  bool done_ HTL_GUARDED_BY(mu_) = false;
  int epoch_ HTL_GUARDED_BY(mu_);
  double parked_s_ HTL_GUARDED_BY(mu_) = 0;
};

using Key = std::pair<int, int>;  // (query index, epoch)

/// The first response a client saw for a key, and how many responses
/// matched it bit for bit.
struct Seen {
  std::vector<WireHit> hits;
  int64_t responses = 0;
};

/// One answered request: its latency, whether it was a kSql request, and
/// the server instance that answered it.
struct Sample {
  double ms = 0;
  bool sql = false;
  int instance = 0;
};

/// One client across every instance of a run: its request sequence and
/// what it saw.
struct ClientLog {
  htl::Rng rng;
  std::vector<Sample> samples;
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t transport = 0;   // Transport error, no response.
  int64_t bad_status = 0;  // Non-OK wire status.
  int64_t flagged = 0;     // Degraded or partial response.
  int64_t divergent = 0;   // Differs from this client's earlier answer.
  std::string first_error;
  std::map<Key, Seen> seen;

  void Fail(int64_t* bucket, std::string what) {
    if (first_error.empty()) first_error = std::move(what);
    ++*bucket;
  }
};

void RunClient(const Workload& w, uint16_t port, int instance, const htl::WallTimer& clock,
               double seconds, MutationGate* gate, ClientLog* log) {
  const QueryClient qc(ClientOptionsFor(port));
  while (true) {
    const int query = w.Sample(log->rng);
    const QueryRequest request = RequestFor(w, query);
    int epoch = 0;
    if (gate != nullptr) {
      epoch = gate->Enter();
      if (epoch < 0) break;
    } else if (clock.ElapsedSeconds() >= seconds) {
      break;
    }
    const htl::WallTimer timer;
    htl::Result<QueryResponse> response = qc.QueryOnce(request);
    const double ms = timer.ElapsedSeconds() * 1e3;
    const bool must_mutate = gate != nullptr && gate->Exit();
    ++log->attempted;
    if (!response.ok()) {
      log->Fail(&log->transport, response.status().ToString());
    } else if (!response->ok()) {
      log->Fail(&log->bad_status, htl::StrCat("wire status ", static_cast<int>(response->status),
                                              ": ", response->message));
    } else if (response->degraded() || response->partial()) {
      log->Fail(&log->flagged, htl::StrCat("flagged response: ", response->message));
    } else {
      ++log->ok;
      log->samples.push_back(Sample{ms, request.kind == QueryKind::kSql, instance});
      Seen& seen = log->seen[Key{query, epoch}];
      if (seen.responses == 0) {
        seen.hits = std::move(response->hits);
        seen.responses = 1;
      } else if (SameHits(response->hits, seen.hits)) {
        ++seen.responses;
      } else {
        log->Fail(&log->divergent, htl::StrCat("query ", query, " answered differently at epoch ",
                                               epoch));
      }
    }
    if (must_mutate) gate->Mutate();
  }
}

/// What one instance served: its answered requests, its timed seconds,
/// the part of them spent serving (parked time excluded) and the epoch it
/// ended at.
struct Served {
  int64_t ok = 0;
  double timed_s = 0;
  double service_s = 0;
  int epoch = 0;
};

/// Closed-loop load on `server`, the run's instance `instance`, for
/// `seconds` (cached_churn: to the first period boundary past it), starting
/// at `epoch`.
Served Serve(Workload& w, QueryServer* server, int instance, double seconds, int epoch,
             std::vector<ClientLog>* logs) {
  int64_t before = 0;
  for (const ClientLog& log : *logs) before += log.ok;
  const htl::WallTimer clock;
  MutationGate gate(w.mutate_every, epoch, &clock, seconds, [&w, server](int index) {
    // The gate guarantees no client request is outstanding; the server may
    // still be unwinding the last connection's bookkeeping.
    while (server->in_flight() > 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    w.Append(index, &w.store);
  });
  MutationGate* gate_ptr = w.mutate_every > 0 ? &gate : nullptr;
  {
    htl::ThreadPool clients(htl::ThreadPool::Options{.num_threads = w.clients});
    for (ClientLog& log : *logs) {
      ClientLog* mine = &log;
      const uint16_t port = server->port();
      clients.Schedule([&w, port, instance, &clock, seconds, gate_ptr, mine] {
        RunClient(w, port, instance, clock, seconds, gate_ptr, mine);
      });
    }
  }  // Joins every client loop.
  Served out;
  out.timed_s = clock.ElapsedSeconds();
  out.service_s = out.timed_s - gate.parked_s();
  out.epoch = gate.epoch();
  for (const ClientLog& log : *logs) out.ok += log.ok;
  out.ok -= before;
  return out;
}

/// Nearest-rank quantile of sorted samples.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

/// Median; the mean of the middle two for an even count.
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Every Casablanca hit of paper Query 1 must carry Table 4's value.
bool MatchesTable4(const std::vector<WireHit>& hits, MetadataStore::VideoId casablanca) {
  const htl::SimilarityList table = htl::casablanca::Query1ResultTable();
  for (const WireHit& h : hits) {
    if (h.video != casablanca) continue;
    if (std::abs(h.actual - table.ActualAt(h.segment)) > kTable4Tolerance ||
        std::abs(h.max - table.max()) > kTable4Tolerance) {
      return false;
    }
  }
  return true;
}

/// The Retriever's ranking order: descending fraction, then lower video
/// id, then lower segment id. Keeps the first k.
void RankTopK(std::vector<htl::SegmentHit>* hits, int64_t k) {
  std::sort(hits->begin(), hits->end(), [](const htl::SegmentHit& a, const htl::SegmentHit& b) {
    if (a.sim.fraction() != b.sim.fraction()) return a.sim.fraction() > b.sim.fraction();
    if (a.video != b.video) return a.video < b.video;
    return a.segment < b.segment;
  });
  if (static_cast<int64_t>(hits->size()) > k) hits->resize(static_cast<size_t>(k));
}

/// Videos the store held at `epoch`: cached_churn appends fixed-size batches.
int64_t VideosAt(const Workload& w, const MetadataStore& store, int epoch) {
  return w.mutate_every > 0 ? w.corpus.num_videos + epoch * w.batch.num_videos
                            : store.num_videos();
}

/// Expected answers to one query at each of `epochs` (ascending). kSql:
/// TopKSegments(EvaluateWithLists(...)), so the paper's two systems must
/// agree. HTL: a serial, unpruned, uncached Retriever evaluates each video
/// once (appends never change a video), each epoch ranks the videos that
/// existed then, and the whole-store ranking must equal the Retriever's own
/// TopSegmentsWithReport.
htl::Result<std::vector<std::vector<WireHit>>> Expected(const Workload& w,
                                                        const MetadataStore& store,
                                                        const QuerySpec& spec,
                                                        const std::vector<int>& epochs,
                                                        htl::Retriever* oracle) {
  std::vector<std::vector<WireHit>> out;
  if (spec.kind == QueryKind::kSql) {
    HTL_ASSIGN_OR_RETURN(htl::FormulaPtr f, htl::ParseFormula(spec.text));
    HTL_ASSIGN_OR_RETURN(htl::SimilarityList list, htl::EvaluateWithLists(*f, w.sql_inputs));
    std::vector<WireHit> want;
    for (const htl::RankedSegment& seg : htl::TopKSegments(list, w.k)) {
      want.push_back(WireHit{0, seg.id, seg.sim.actual, seg.sim.max});
    }
    out.assign(epochs.size(), want);
    return out;
  }
  HTL_ASSIGN_OR_RETURN(htl::FormulaPtr f, oracle->Prepare(spec.text));
  std::vector<htl::SegmentHit> best;
  MetadataStore::VideoId next = 1;
  const auto evaluate_through = [&](MetadataStore::VideoId last) -> Status {
    for (; next <= last; ++next) {
      HTL_ASSIGN_OR_RETURN(htl::SimilarityList list,
                           oracle->EvaluateList(next, spec.level, *f));
      for (const htl::RankedSegment& rs : htl::TopKSegments(list, w.k)) {
        best.push_back(htl::SegmentHit{next, rs.id, rs.sim});
      }
      if (static_cast<int64_t>(best.size()) > 4 * w.k) RankTopK(&best, w.k);
    }
    RankTopK(&best, w.k);
    return Status::OK();
  };
  for (const int epoch : epochs) {
    HTL_RETURN_IF_ERROR(evaluate_through(VideosAt(w, store, epoch)));
    out.push_back(ToWire(best));
  }
  HTL_RETURN_IF_ERROR(evaluate_through(store.num_videos()));
  HTL_ASSIGN_OR_RETURN(htl::SegmentRetrieval whole,
                       oracle->TopSegmentsWithReport(*f, spec.level, w.k));
  if (!whole.report.complete() || !SameHits(ToWire(whole.hits), ToWire(best))) {
    return Status::Internal(htl::StrCat("oracle ranking disagrees with the Retriever on ",
                                        spec.text));
  }
  return out;
}

struct Merged {
  std::vector<WireHit> hits;
  int64_t responses = 0;   // Responses equal to `hits`.
  int64_t disagree = 0;    // Responses from other clients that differ.
};

/// Checks every distinct (query, epoch) answer against the oracle; returns
/// the number of responses that carried a wrong answer.
htl::Result<int64_t> RunOracle(const Workload& w, const std::map<Key, Merged>& answers,
                               int epochs) {
  // cached_churn: the final store rebuilt from the seed; epoch e's store is
  // its first VideosAt(e) videos.
  MetadataStore rebuilt;
  const MetadataStore* store = &w.store;
  if (w.mutate_every > 0) {
    rebuilt = w.StoreAt(epochs);
    store = &rebuilt;
  }
  htl::QueryOptions serial;
  serial.parallelism = 1;
  htl::Retriever oracle(store, serial);

  // Keys grouped by query; the map's order makes each group's epochs ascend.
  std::vector<std::vector<const std::pair<const Key, Merged>*>> groups;
  for (const auto& entry : answers) {
    if (groups.empty() || groups.back().front()->first.first != entry.first.first) {
      groups.emplace_back();
    }
    groups.back().push_back(&entry);
  }
  std::vector<int64_t> bad(groups.size(), 0);
  htl::ThreadPool pool(htl::ThreadPool::Options{.num_threads = kOracleThreads});
  HTL_RETURN_IF_ERROR(htl::ParallelFor(
      &pool, static_cast<int64_t>(groups.size()), [&](int64_t g) -> Status {
        const auto& group = groups[static_cast<size_t>(g)];
        const int query = group.front()->first.first;
        const QuerySpec& spec = w.queries[static_cast<size_t>(query)];
        std::vector<int> at;
        for (const auto* entry : group) at.push_back(entry->first.second);
        HTL_ASSIGN_OR_RETURN(const std::vector<std::vector<WireHit>> want,
                             Expected(w, *store, spec, at, &oracle));
        for (size_t i = 0; i < group.size(); ++i) {
          const Merged& merged = group[i]->second;
          bool good = SameHits(merged.hits, want[i]);
          if (spec.label == "query1") good = good && MatchesTable4(merged.hits, w.casablanca);
          if (!good) {
            std::fprintf(stderr, "oracle mismatch: query %d (%s) epoch %d: %s\n", query,
                         spec.label.c_str(), at[i], spec.text.c_str());
            // Responses that disagreed with `hits` are already divergent.
            bad[static_cast<size_t>(g)] += merged.responses;
          }
        }
        return Status::OK();
      }));
  int64_t wrong = 0;
  for (int64_t b : bad) wrong += b;
  return wrong;
}

}  // namespace

htl::net::ClientOptions ClientOptionsFor(uint16_t port) {
  htl::net::ClientOptions options;
  options.port = port;
  options.max_attempts = 1;  // A failure is counted, never retried away.
  options.io_timeout_ms = kDeadlineMs + 2000;
  return options;
}

std::vector<WireHit> ToWire(const std::vector<htl::SegmentHit>& hits) {
  std::vector<WireHit> out;
  for (const htl::SegmentHit& h : hits) {
    out.push_back(WireHit{h.video, h.segment, h.sim.actual, h.sim.max});
  }
  return out;
}

bool SameHits(const std::vector<WireHit>& got, const std::vector<WireHit>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].video != want[i].video || got[i].segment != want[i].segment ||
        std::bit_cast<uint64_t>(got[i].actual) != std::bit_cast<uint64_t>(want[i].actual) ||
        std::bit_cast<uint64_t>(got[i].max) != std::bit_cast<uint64_t>(want[i].max)) {
      return false;
    }
  }
  return true;
}

htl::net::ServerOptions ServerOptionsFor(const Workload& w) {
  htl::net::ServerOptions options;
  options.soft_watermark = w.clients + 4;
  options.default_deadline_ms = kDeadlineMs;
  options.query_options.prune = true;
  options.query_options.num_shards = 1;
  options.sql_inputs = w.sql_inputs;
  options.sql_n = w.sql_n;
  return options;
}

QueryRequest RequestFor(const Workload& w, int query) {
  const QuerySpec& spec = w.queries[static_cast<size_t>(query)];
  QueryRequest request;
  request.kind = spec.kind;
  request.level = spec.level;
  request.k = w.k;
  request.deadline_ms = kDeadlineMs;
  request.use_cache = w.use_cache;
  request.parallelism = w.parallelism;
  request.query_text = spec.text;
  return request;
}

htl::Result<std::unique_ptr<QueryServer>> StartWarmServer(const Workload& w) {
  auto server = std::make_unique<QueryServer>(&w.store, ServerOptionsFor(w));
  HTL_RETURN_IF_ERROR(server->Start());
  const QueryClient qc(ClientOptionsFor(server->port()));
  for (size_t q = 0; q < w.queries.size(); ++q) {
    htl::Result<QueryResponse> response = qc.QueryOnce(RequestFor(w, static_cast<int>(q)));
    if (!response.ok() || !response->ok() || response->degraded() || response->partial()) {
      return Status::Internal(htl::StrCat(
          "warm-up request failed: ", w.queries[q].text, ": ",
          response.ok() ? response->message : response.status().ToString()));
    }
  }
  return server;
}

htl::Result<RunResult> RunLoad(Workload& w, double seconds) {
  htl::obs::MetricsRegistry::Instance().SetEnabled(true);

  std::vector<ClientLog> logs(static_cast<size_t>(w.clients));
  for (size_t c = 0; c < logs.size(); ++c) logs[c].rng = htl::Rng(SubSeed(w.seed, 100 + c));
  std::vector<double> setup_s, instance_qps;
  double service_s = 0, timed_s = 0;
  int epochs = 0;
  for (int i = 0; i < kInstances; ++i) {
    // Hand the last instance's freed heap back, so peak RSS measures one
    // server rather than which malloc arenas the instances spread over.
    malloc_trim(0);
    // Set-up: construction through Start() and the warm-up pass.
    const htl::WallTimer timer;
    HTL_ASSIGN_OR_RETURN(std::unique_ptr<QueryServer> server, StartWarmServer(w));
    setup_s.push_back(timer.ElapsedSeconds());
    if (w.mutate_every > 0) {
      // Every measured period starts with an append, an instance's first
      // too: otherwise it would run on the caches the warm-up filled.
      while (server->in_flight() > 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
      w.Append(++epochs, &w.store);
    }
    const Served served = Serve(w, server.get(), i, seconds / kInstances, epochs, &logs);
    HTL_RETURN_IF_ERROR(server->Shutdown());
    timed_s += served.timed_s;
    service_s += served.service_s;
    epochs = served.epoch;
    instance_qps.push_back(static_cast<double>(served.ok) / served.service_s);
  }
  const double rss = PeakRssMiB();

  // Merge: every client's per-key answer must agree, then the oracle.
  RunResult result;
  std::vector<double> latency;
  std::vector<Sample> samples;
  int64_t ok = 0, transport = 0, bad_status = 0, flagged = 0, divergent = 0;
  std::map<Key, Merged> answers;
  for (ClientLog& log : logs) {
    for (const Sample& s : log.samples) latency.push_back(s.ms);
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
    result.attempted += log.attempted;
    ok += log.ok;
    transport += log.transport;
    bad_status += log.bad_status;
    flagged += log.flagged;
    divergent += log.divergent;
    if (!log.first_error.empty()) std::fprintf(stderr, "client error: %s\n", log.first_error.c_str());
    for (auto& [key, seen] : log.seen) {
      auto [it, fresh] = answers.try_emplace(key);
      if (fresh) {
        it->second.hits = std::move(seen.hits);
        it->second.responses = seen.responses;
      } else if (SameHits(seen.hits, it->second.hits)) {
        it->second.responses += seen.responses;
      } else {
        it->second.disagree += seen.responses;
      }
    }
  }
  for (const auto& [key, merged] : answers) divergent += merged.disagree;
  HTL_ASSIGN_OR_RETURN(const int64_t wrong, RunOracle(w, answers, epochs));

  // Every failure makes the run incorrect: a change that fails requests
  // must not pass for one that answers them faster.
  result.failed = transport + bad_status + flagged + divergent + wrong;
  result.correct = result.failed == 0;
  std::vector<std::vector<double>> by_instance(kInstances);
  for (const Sample& s : samples) by_instance[static_cast<size_t>(s.instance)].push_back(s.ms);
  std::vector<double> instance_p99;
  for (std::vector<double>& ms : by_instance) {
    std::sort(ms.begin(), ms.end());
    instance_p99.push_back(Quantile(ms, 0.99));
  }
  std::sort(latency.begin(), latency.end());
  const double p99 = Median(instance_p99);
  int64_t beyond_p99 = 0, sql_beyond_p99 = 0;
  for (const Sample& s : samples) {
    if (s.ms <= p99) continue;
    ++beyond_p99;
    sql_beyond_p99 += s.sql ? 1 : 0;
  }

  result.metrics = {
      {"qps", static_cast<double>(ok) / service_s, "1/s"},
      {"latency_p50_ms", Quantile(latency, 0.50), "ms"},
      {"latency_p99_ms", p99, "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", rss, "MiB"},
  };
  result.extra = {
      {"error_rate", static_cast<double>(result.failed) /
                         static_cast<double>(std::max<int64_t>(result.attempted, 1)),
       "failed/attempted"},
      {"requests_completed", static_cast<double>(ok), "count"},
      {"latency_p99_pooled_ms", Quantile(latency, 0.99), "ms"},
      {"samples_beyond_p99", static_cast<double>(beyond_p99), "count"},
      {"sql_share_beyond_p99",
       static_cast<double>(sql_beyond_p99) / static_cast<double>(std::max<int64_t>(beyond_p99, 1)),
       "ratio"},
      {"timed_s", timed_s, "s"},
      {"parked_s", timed_s - service_s, "s"},
      {"epochs", static_cast<double>(epochs), "count"},
      {"distinct_answers_checked", static_cast<double>(answers.size()), "count"},
      {"transport_errors", static_cast<double>(transport), "count"},
      {"bad_status", static_cast<double>(bad_status), "count"},
      {"flagged", static_cast<double>(flagged), "count"},
      {"divergent", static_cast<double>(divergent), "count"},
      {"oracle_mismatches", static_cast<double>(wrong), "count"},
  };
  for (size_t i = 0; i < setup_s.size(); ++i) {
    result.extra.push_back({htl::StrCat("instance", i, ".setup_s"), setup_s[i], "s"});
    result.extra.push_back({htl::StrCat("instance", i, ".qps"), instance_qps[i], "1/s"});
    result.extra.push_back({htl::StrCat("instance", i, ".p99_ms"), instance_p99[i], "ms"});
  }
  return result;
}

}  // namespace e2e
