#ifndef BENCH_E2E_WORKLOADS_H_
#define BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "model/video.h"
#include "net/protocol.h"
#include "sim/sim_list.h"
#include "util/result.h"
#include "util/rng.h"
#include "workload/video_gen.h"

namespace e2e {

/// Mixes a run seed with a stream tag so every generator draws from its own
/// reproducible stream (corpus, query pool, client k's request sequence...).
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// One distinct request shape a workload sends.
struct QuerySpec {
  std::string text;
  htl::net::QueryKind kind = htl::net::QueryKind::kHtlSegments;
  int32_t level = 3;
  /// Formula class (htl/classifier.h name), "query1" or "sql".
  std::string label;
};

/// Sizes the workloads scale with. Full() is the benchmark; Smoke() is the
/// ~1 s-per-workload self-check of `bench_e2e --smoke`.
struct Scale {
  int front_end_pool = 256;  // Generated formula texts, 4 classes.
  int64_t selective_videos = 0;
  int64_t broad_videos = 0;
  int64_t churn_videos = 0;
  int64_t churn_period = 0;  // Completed requests between two appends.
  int64_t churn_batch = 0;   // Videos appended per mutation.
  /// Requests the traced run replays after its warm-up, per workload.
  int64_t replay_front_end = 0;
  int64_t replay_selective = 0;
  int64_t replay_broad = 0;
  int64_t replay_churn = 0;

  static Scale Full();
  static Scale Smoke();
};

/// A workload: the generated store and request mix plus the load shape. The
/// program under test only ever sees what is in here.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  htl::MetadataStore store;
  std::vector<QuerySpec> queries;
  /// Cumulative request mix over `queries` (last entry 1).
  std::vector<double> cdf;

  int clients = 1;
  int32_t parallelism = 0;  // 0 = server default, 1 = serial.
  bool use_cache = false;
  int64_t k = 10;

  /// Appends (cached_churn): after every `mutate_every` completed requests
  /// `corpus`-shaped batches of `batch.num_videos` videos are appended.
  int64_t mutate_every = 0;
  htl::CorpusGenOptions corpus;  // num_videos == 0: hand-built store.
  htl::CorpusGenOptions batch;

  int64_t replay_prefix = 0;

  /// kSql input relations and their sequence length.
  std::map<std::string, htl::SimilarityList> sql_inputs;
  int64_t sql_n = 0;

  /// The Casablanca video's id, 0 when the store has none.
  htl::MetadataStore::VideoId casablanca = 0;

  /// Draws the next request's query index.
  int Sample(htl::Rng& rng) const;

  /// Appends mutation `index` (1-based) to `store`: deterministic in the
  /// seed, so the oracle can rebuild the store at any epoch.
  void Append(int index, htl::MetadataStore* target) const;

  /// The store as it stood after `mutations` appends, rebuilt from the seed.
  htl::MetadataStore StoreAt(int mutations) const;
};

/// The four workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload from `seed`. Fails on an unknown name or when
/// a fixed query text no longer parses to its declared class.
htl::Result<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                   const Scale& scale);

}  // namespace e2e

#endif  // BENCH_E2E_WORKLOADS_H_
