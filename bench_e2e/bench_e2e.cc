// bench_e2e: the repository benchmark. One process runs one workload:
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//   bench_e2e --smoke
//
// --trace 0 drives closed-loop load through QueryClient -> QueryServer ->
// Retriever over loopback and reports the end-to-end metrics; --trace 1
// replays a fixed request prefix on one thread and reports the per-layer
// breakdown. Every metric prints as "metric <name> = <value> <unit>"; the
// last stdout line is one JSON object {correct, attempted, failed, metrics}.
// Exit status: 0 ok, 1 a request failed or an answer differed from the
// oracle, 2 usage or set-up error. See README.md for the workloads and
// metrics.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_e2e.h"
#include "util/parse.h"
#include "util/string_util.h"
#include "workloads.h"

namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  bool smoke = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <%s> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <file>]\n       bench_e2e --smoke\n",
               htl::StrJoin(WorkloadNames(), "|").c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string_view value = argv[++i];
    int64_t n = 0;
    if (flag == "--workload") {
      args->workload = std::string(value);
      have_workload = true;
    } else if (flag == "--seed") {
      if (!htl::ParseInt64(value, &n) || n < 0) return false;
      args->seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds") {
      if (!htl::ParseDouble(value, &args->seconds) || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (!htl::ParseInt64(value, &n) || (n != 0 && n != 1)) return false;
      args->trace = n == 1;
    } else if (flag == "--out") {
      args->out = std::string(value);
    } else {
      return false;
    }
  }
  return args->smoke || have_workload;
}

/// Shortest round-trip decimal form: every digit as measured.
std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += htl::StrCat(i == 0 ? "" : ", ", "\"", metrics[i].name, "\": {\"value\": ",
                       Num(metrics[i].value), ", \"unit\": \"", metrics[i].unit, "\"}");
  }
  return out + "}";
}

std::string ResultJson(const RunResult& r) {
  return htl::StrCat("{\"correct\": ", r.correct ? "true" : "false",
                     ", \"attempted\": ", r.attempted, ", \"failed\": ", r.failed,
                     ", \"metrics\": ", MetricsJson(r.metrics), "}");
}

bool AllFinite(const RunResult& r) {
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) return false;
  }
  for (const Metric& m : r.extra) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

void Print(const RunResult& r) {
  for (const Metric& m : r.metrics) {
    std::printf("metric %s = %s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
  }
  for (const Metric& m : r.extra) {
    std::printf("extra  %s = %s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
  }
}

htl::Result<RunResult> RunOne(const std::string& name, uint64_t seed, double seconds,
                              bool trace, const Scale& scale) {
  HTL_ASSIGN_OR_RETURN(Workload w, MakeWorkload(name, seed, scale));
  std::printf("# bench_e2e workload=%s seed=%llu seconds=%s trace=%d videos=%lld queries=%zu "
              "clients=%d\n",
              name.c_str(), static_cast<unsigned long long>(seed), Num(seconds).c_str(),
              trace ? 1 : 0, static_cast<long long>(w.store.num_videos()), w.queries.size(),
              w.clients);
  return trace ? RunTrace(w, seconds) : RunLoad(w, seconds);
}

int Smoke() {
  const Scale scale = Scale::Smoke();
  bool ok = true;
  for (const std::string& name : WorkloadNames()) {
    for (const bool trace : {false, true}) {
      htl::Result<RunResult> r = RunOne(name, 1, 1.0, trace, scale);
      if (!r.ok()) {
        std::printf("SMOKE FAIL %s trace=%d: %s\n", name.c_str(), trace ? 1 : 0,
                    r.status().ToString().c_str());
        ok = false;
        continue;
      }
      Print(*r);
      std::printf("%s\n", ResultJson(*r).c_str());
      const bool good = r->correct && r->failed == 0 && r->attempted > 0 && AllFinite(*r) &&
                        !r->metrics.empty();
      std::printf("SMOKE %s %s trace=%d\n", good ? "ok" : "FAIL", name.c_str(), trace ? 1 : 0);
      ok = ok && good;
    }
  }
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (args.smoke) return Smoke();
  htl::Result<RunResult> r =
      RunOne(args.workload, args.seed, args.seconds, args.trace, Scale::Full());
  if (!r.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", r.status().ToString().c_str());
    return 2;
  }
  if (!AllFinite(*r)) {
    std::fprintf(stderr, "bench_e2e: a metric is not finite\n");
    return 2;
  }
  Print(*r);
  if (!args.out.empty()) {
    const std::string doc = htl::StrCat(
        "{\"workload\": \"", args.workload, "\", \"seed\": ", args.seed, ", \"trace\": ",
        args.trace ? 1 : 0, ", \"seconds\": ", Num(args.seconds), ", \"correct\": ",
        r->correct ? "true" : "false", ", \"attempted\": ", r->attempted,
        ", \"failed\": ", r->failed, ", \"metrics\": ", MetricsJson(r->metrics),
        ", \"extra\": ", MetricsJson(r->extra), "}\n");
    std::FILE* file = std::fopen(args.out.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.out.c_str());
      return 2;
    }
    std::fwrite(doc.data(), 1, doc.size(), file);
    std::fclose(file);
  }
  std::printf("%s\n", ResultJson(*r).c_str());
  std::fflush(stdout);
  return r->correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
