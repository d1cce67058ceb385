// Ablation for the section 4.2 claim "the time taken by the direct method
// increases linearly with the size which is in confirmity with our
// complexity analysis": microbenchmarks of the direct list operators across
// input sizes, plus a store-wide retrieval parallelism sweep written to
// BENCH_scaling.json. Run with --benchmark_* flags as usual.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "engine/retrieval.h"
#include "perf_common.h"
#include "sim/list_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/random_lists.h"
#include "workload/video_gen.h"

namespace htl {
namespace {

SimilarityList MakeList(int64_t size, uint64_t seed) {
  Rng rng(seed);
  RandomListOptions opts;
  opts.num_segments = size;
  opts.coverage = 0.1;
  return GenerateRandomList(rng, opts);
}

void BM_AndMerge(benchmark::State& state) {
  const int64_t size = state.range(0);
  SimilarityList a = MakeList(size, 1);
  SimilarityList b = MakeList(size, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AndMerge(a, b));
  }
  state.SetComplexityN(a.length() + b.length());
}
BENCHMARK(BM_AndMerge)->Range(1 << 12, 1 << 20)->Complexity(benchmark::oN);

void BM_UntilMerge(benchmark::State& state) {
  const int64_t size = state.range(0);
  SimilarityList g = MakeList(size, 3);
  SimilarityList h = MakeList(size, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(UntilMerge(g, h, 0.5));
  }
  state.SetComplexityN(g.length() + h.length());
}
BENCHMARK(BM_UntilMerge)->Range(1 << 12, 1 << 20)->Complexity(benchmark::oN);

void BM_Eventually(benchmark::State& state) {
  SimilarityList h = MakeList(state.range(0), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Eventually(h));
  }
  state.SetComplexityN(h.length());
}
BENCHMARK(BM_Eventually)->Range(1 << 12, 1 << 20)->Complexity(benchmark::oN);

void BM_NextShift(benchmark::State& state) {
  SimilarityList a = MakeList(state.range(0), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NextShift(a));
  }
  state.SetComplexityN(a.length());
}
BENCHMARK(BM_NextShift)->Range(1 << 12, 1 << 20)->Complexity(benchmark::oN);

// Store-wide retrieval scaling across worker counts: the per-video fan-out
// of Retriever on a shared ThreadPool. The speedup ceiling is the physical
// core count — on a single-core host the honest expectation is ~1.0x (the
// sweep then mainly bounds the parallel driver's overhead).
void RunParallelismSweep(bench::BenchJson& json) {
  MetadataStore store;
  Rng rng(4242);
  VideoGenOptions opts;
  opts.levels = 2;
  opts.min_branching = 30;
  opts.max_branching = 50;
  for (int i = 0; i < 24; ++i) store.AddVideo(GenerateVideo(rng, opts));
  ThreadPool pool(ThreadPool::Options{8, 0});
  const char* query = "exists p (present(p)) until duration >= 90";
  std::printf("\nretrieval parallelism sweep: 24 videos, %d hardware thread(s)\n",
              ThreadPool::DefaultParallelism());
  std::printf("%-14s %-12s %s\n", "parallelism", "ms/query", "speedup vs p=1");
  double serial_ms = 0;
  for (int parallelism : {1, 2, 4, 8}) {
    QueryOptions options;
    options.parallelism = parallelism;
    options.thread_pool = &pool;
    Retriever retriever(&store, options);
    auto prepared = retriever.Prepare(query);
    HTL_CHECK(prepared.ok()) << prepared.status().ToString();
    // Warm caches.
    HTL_CHECK_OK(retriever.TopSegmentsWithReport(*prepared.value(), 2, 10));
    constexpr int kReps = 20;
    WallTimer timer;
    for (int r = 0; r < kReps; ++r) {
      auto result = retriever.TopSegmentsWithReport(*prepared.value(), 2, 10);
      HTL_CHECK(result.ok()) << result.status().ToString();
      HTL_CHECK_OK(result->report.FirstFailure());
    }
    const double ms = 1e3 * timer.ElapsedSeconds() / kReps;
    if (parallelism == 1) serial_ms = ms;
    const double speedup = ms > 0 ? serial_ms / ms : 0.0;
    std::printf("%-14d %-12.3f %.2fx\n", parallelism, ms, speedup);
    json.Add(StrCat("retrieval sweep p=", parallelism),
             {{"parallelism", static_cast<double>(parallelism)},
              {"videos", 24.0},
              {"ms_per_query", ms},
              {"speedup_vs_serial", speedup}});
  }
}

}  // namespace
}  // namespace htl

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  htl::bench::BenchJson json("scaling");
  htl::RunParallelismSweep(json);
  return 0;
}
