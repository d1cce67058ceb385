// Quickstart: annotate a tiny video, pose an HTL query, retrieve the best
// matching segments.
//
//   $ ./example_quickstart
//
// Walks through the whole public API surface: building meta-data, parsing
// and binding a query, classifying it, and running similarity retrieval.

#include <cstdio>

#include "engine/retrieval.h"
#include "htl/classifier.h"
#include "model/video.h"
#include "util/string_util.h"

int main() {
  using namespace htl;

  // 1. Build a flat video: one root and six shots, with meta-data.
  //    Shots show a rider (object 7) approaching; in shot 4 he draws a gun;
  //    in shot 5 he fires at the sheriff (object 9).
  VideoTree video = VideoTree::Flat(6);
  video.MutableMeta(1, 1).SetAttribute("title", "Quickstart Western");
  video.MutableMeta(1, 1).SetAttribute("type", "western");
  auto shot = [&](SegmentId s) -> SegmentMeta& { return video.MutableMeta(2, s); };
  for (SegmentId s = 2; s <= 6; ++s) {
    ObjectAppearance rider;
    rider.id = 7;
    rider.attributes["type"] = AttrValue("person");
    rider.attributes["name"] = AttrValue("bandit");
    shot(s).AddObject(std::move(rider));
  }
  for (SegmentId s = 4; s <= 6; ++s) {
    ObjectAppearance sheriff;
    sheriff.id = 9;
    sheriff.attributes["type"] = AttrValue("person");
    sheriff.attributes["name"] = AttrValue("sheriff");
    shot(s).AddObject(std::move(sheriff));
  }
  shot(4).AddFact({"holds_gun", {7}});
  shot(5).AddFact({"holds_gun", {7}});
  shot(5).AddFact({"fires_at", {7, 9}});

  MetadataStore store;
  store.AddVideo(std::move(video));

  // 2. Pose an HTL query: a bandit holding a gun, later firing at someone.
  const std::string query =
      "exists x, y (present(x) and present(y) and holds_gun(x) "
      "and eventually fires_at(x, y))";

  Retriever retriever(&store);
  auto prepared = retriever.Prepare(query);
  if (!prepared.ok()) {
    std::printf("query error: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  std::printf("query:  %s\n", prepared.value()->ToString().c_str());
  std::printf("class:  %s\n",
              std::string(FormulaClassName(Classify(*prepared.value()))).c_str());

  // 3. Retrieve the top 5 shots across the store. A video that fails is
  // skipped and reported; this program wants all or nothing.
  auto shots = retriever.TopSegmentsWithReport(*prepared.value(), /*level=*/2, /*k=*/5);
  const Status status = shots.ok() ? shots->report.FirstFailure() : shots.status();
  if (!status.ok()) {
    std::printf("retrieval error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("\n%-6s %-8s %-10s %s\n", "video", "segment", "similarity", "fraction");
  for (const SegmentHit& hit : shots->hits) {
    std::printf("%-6lld %-8lld %-10.3f %.0f%%\n", static_cast<long long>(hit.video),
                static_cast<long long>(hit.segment), hit.sim.actual,
                100 * hit.sim.fraction());
  }

  // 4. Browsing query at the whole-video level: level 1 holds only the root.
  auto western = retriever.Prepare("type = 'western'");
  if (!western.ok()) {
    std::printf("query error: %s\n", western.status().ToString().c_str());
    return 1;
  }
  auto videos = retriever.TopSegmentsWithReport(*western.value(), /*level=*/1, /*k=*/3);
  if (!videos.ok()) {
    std::printf("retrieval error: %s\n", videos.status().ToString().c_str());
    return 1;
  }
  std::printf("\nwesterns in the store: %zu\n", videos->hits.size());
  return 0;
}
