// Interactive HTL shell — the "user friendly ... interface for specifying
// the temporal queries" the paper's conclusion calls for, in terminal form.
//
//   $ ./example_htl_shell                # interactive
//   $ echo "man_woman() ..." | ./example_htl_shell   # scripted
//
// Commands:
//   :videos              list loaded videos
//   :levels <video>      show a video's levels
//   :level <n>           set the evaluation level (default: deepest)
//   :k <n>               set the number of results (default 10)
//   :explain <query>     show the evaluation plan without running it
//   :save <path>         save the current store's first video
//   :load <path>         load a video file into the store
//   :help                this text
//   :quit                exit
// Anything else is parsed as an HTL query and evaluated across all videos.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "engine/plan.h"
#include "engine/retrieval.h"
#include "htl/classifier.h"
#include "storage/serialization.h"
#include "util/string_util.h"
#include "workload/casablanca.h"

namespace {

using namespace htl;

void PrintHelp() {
  std::printf(
      "commands: :videos :levels <v> :level <n> :k <n> :explain <q> :save <p> "
      ":load <p> :help :quit\nanything else runs as an HTL query, e.g.\n"
      "  exists x, y (present(x) and holds_gun(x) and eventually fires_at(x, y))\n"
      "  man_woman() and eventually moving_train()   # named predicates need facts\n");
}

}  // namespace

int main() {
  MetadataStore store;
  store.AddVideo(casablanca::MakeVideo());
  Retriever retriever(&store);

  int level = 2;
  int64_t k = 10;
  std::printf("HTL shell — %lld video(s) loaded. :help for commands.\n",
              static_cast<long long>(store.num_videos()));

  std::string line;
  while (true) {
    std::printf("htl> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    const std::string input = std::string(StripWhitespace(line));
    if (input.empty()) continue;

    if (input == ":quit" || input == ":q") break;
    if (input == ":help") {
      PrintHelp();
      continue;
    }
    if (input == ":videos") {
      for (MetadataStore::VideoId v = 1; v <= store.num_videos(); ++v) {
        std::printf("  #%lld  %s (%d levels)\n", static_cast<long long>(v),
                    store.Video(v).Title().c_str(), store.Video(v).num_levels());
      }
      continue;
    }
    if (StartsWith(input, ":levels")) {
      std::istringstream is(input.substr(7));
      int64_t v = 1;
      is >> v;
      if (v < 1 || v > store.num_videos()) {
        std::printf("  no such video\n");
        continue;
      }
      const VideoTree& video = store.Video(v);
      for (int l = 1; l <= video.num_levels(); ++l) {
        std::string name;
        for (const auto& [n, lv] : video.level_names()) {
          if (lv == l) name = StrCat(" (", n, ")");
        }
        std::printf("  level %d%s: %lld segments\n", l, name.c_str(),
                    static_cast<long long>(video.NumSegments(l)));
      }
      continue;
    }
    if (StartsWith(input, ":level ")) {
      level = std::atoi(input.c_str() + 7);
      std::printf("  evaluation level = %d\n", level);
      continue;
    }
    if (StartsWith(input, ":k ")) {
      k = std::atoll(input.c_str() + 3);
      std::printf("  k = %lld\n", static_cast<long long>(k));
      continue;
    }
    if (StartsWith(input, ":explain ")) {
      auto f = retriever.Prepare(input.substr(9));
      if (!f.ok()) {
        std::printf("  %s\n", f.status().ToString().c_str());
        continue;
      }
      auto plan = ExplainPlan(store.Video(1), level, *f.value());
      std::printf("%s", plan.ok() ? plan.value().c_str()
                                  : (plan.status().ToString() + "\n").c_str());
      continue;
    }
    if (StartsWith(input, ":save ")) {
      Status s = SaveVideo(store.Video(1), input.substr(6));
      std::printf("  %s\n", s.ok() ? "saved" : s.ToString().c_str());
      continue;
    }
    if (StartsWith(input, ":load ")) {
      auto v = LoadVideo(input.substr(6));
      if (!v.ok()) {
        std::printf("  %s\n", v.status().ToString().c_str());
        continue;
      }
      auto id = store.AddVideo(std::move(v).value());
      std::printf("  loaded as video #%lld\n", static_cast<long long>(id));
      continue;
    }
    if (StartsWith(input, ":")) {
      std::printf("  unknown command; :help\n");
      continue;
    }

    // An HTL query.
    auto f = retriever.Prepare(input);
    if (!f.ok()) {
      std::printf("  %s\n", f.status().ToString().c_str());
      continue;
    }
    std::printf("  class: %s\n",
                std::string(FormulaClassName(Classify(*f.value()))).c_str());
    auto got = retriever.TopSegmentsWithReport(*f.value(), level, k);
    const Status status = got.ok() ? got->report.FirstFailure() : got.status();
    if (!status.ok()) {
      std::printf("  %s\n", status.ToString().c_str());
      continue;
    }
    if (got->hits.empty()) {
      std::printf("  no matching segments\n");
      continue;
    }
    std::printf("  %-6s %-8s %-12s %s\n", "video", "segment", "similarity", "frac");
    for (const SegmentHit& h : got->hits) {
      std::printf("  %-6lld %-8lld %-12.4f %.2f\n", static_cast<long long>(h.video),
                  static_cast<long long>(h.segment), h.sim.actual, h.sim.fraction());
    }
  }
  std::printf("\n");
  return 0;
}
