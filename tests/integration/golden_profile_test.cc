// Golden snapshots of QueryProfile::ToText() for the three cache-lookup
// outcomes on the Casablanca workload: a cold miss (lookup + execute +
// fill), a warm hit (lookup short-circuits the whole execute stage), and a
// lookup after an append (the stale entry is evicted and the query
// recomputes and refills). Timings are normalized away; everything else —
// span structure, units, row/interval/table counts, cache notes — is pinned
// byte for byte.
//
// To regenerate after an intentional profile change, run integration_tests
// with HTL_REGEN_GOLDEN=1 and --gtest_filter='GoldenProfileTest.*', then
// review the diff under tests/integration/golden/ (see CONTRIBUTING.md).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "engine/retrieval.h"
#include "model/video.h"
#include "testing/helpers.h"
#include "workload/casablanca.h"

namespace htl {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(HTL_TEST_SRCDIR) + "/integration/golden/" + name;
}

// Every span timing renders as snprintf("%9.3f ms") — 9 fixed chars before
// " ms". Replace them with a stable placeholder so the snapshot only pins
// structure and counts, never wall time.
std::string NormalizeTimings(std::string text) {
  const std::string marker = " ms";
  size_t pos = 0;
  while ((pos = text.find(marker, pos)) != std::string::npos) {
    if (pos >= 9) text.replace(pos - 9, 9, "    #.###");
    pos += marker.size();
  }
  return text;
}

void CompareToGolden(const std::string& name, const std::string& rendered) {
  const std::string normalized = NormalizeTimings(rendered);
  const std::string path = GoldenPath(name);
  if (std::getenv("HTL_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << normalized;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with HTL_REGEN_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(normalized, want.str())
      << "profile drifted from " << path
      << " — if intentional, regenerate with HTL_REGEN_GOLDEN=1 and review";
}

TEST(GoldenProfileTest, MissHitAndStaleLookupProfiles) {
  MetadataStore store;
  store.AddVideo(casablanca::MakeVideo());

  QueryOptions options;
  options.parallelism = 1;
  options.cache_mode = CacheMode::kReadWrite;
  Retriever r(&store, options);
  FormulaPtr query = casablanca::Query1Full();

  // Cold: lookup misses, the query executes, the result is stored.
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval miss, r.TopSegmentsProfiled(*query, 2, 8));
  ASSERT_TRUE(miss.report.complete());
  CompareToGolden("profile_cache_miss.txt", miss.report.profile.ToText());

  // Warm: the lookup hits and the execute stage never happens.
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval hit, r.TopSegmentsProfiled(*query, 2, 8));
  CompareToGolden("profile_cache_hit.txt", hit.report.profile.ToText());
  ASSERT_EQ(hit.hits.size(), miss.hits.size());
  for (size_t i = 0; i < hit.hits.size(); ++i) {
    EXPECT_EQ(hit.hits[i].sim, miss.hits[i].sim);
  }

  // Invalidated: a video was appended since the fill, so the warm entry is
  // stale — lazily evicted, recomputed and refilled. Casablanca's engine
  // keeps its atomic tables; the appended empty video has no hits, so the
  // ranking is unchanged.
  store.AddVideo(VideoTree::Flat(1));
  ASSERT_OK_AND_ASSIGN(SegmentRetrieval stale, r.TopSegmentsProfiled(*query, 2, 8));
  CompareToGolden("profile_cache_stale.txt", stale.report.profile.ToText());
  for (size_t i = 0; i < stale.hits.size(); ++i) {
    EXPECT_EQ(stale.hits[i].sim, miss.hits[i].sim);
  }
}

}  // namespace
}  // namespace htl
