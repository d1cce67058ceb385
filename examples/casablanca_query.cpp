// The paper's section 4.1 walk-through: "The Making of Casablanca",
// segmented into 50 shots, queried with
//
//   Query 1: { Man-Woman and { eventually Moving-Train } }
//
// Reproduces Tables 1-4 through both systems (direct algorithms and the
// SQL translation) and prints them side by side with the paper's values.
// Exits non-zero unless the two systems agree and Table 4 matches the paper.

#include <cstdio>

#include "engine/direct_engine.h"
#include "htl/binder.h"
#include "picture/picture_system.h"
#include "sim/topk.h"
#include "sql/sql_system.h"
#include "workload/casablanca.h"

namespace {

void PrintTable(const char* title, const htl::SimilarityList& list) {
  std::printf("%s\n", title);
  std::printf("  %-9s %-7s %s\n", "Start-id", "End-id", "Similarity-value");
  for (const htl::RankedEntry& row : htl::RankedEntries(list)) {
    std::printf("  %-9lld %-7lld %.6f\n", static_cast<long long>(row.entry.range.begin),
                static_cast<long long>(row.entry.range.end), row.entry.actual);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace htl;

  VideoTree video = casablanca::MakeVideo();
  std::printf("video: %s (%lld shots after cut detection)\n\n", video.Title().c_str(),
              static_cast<long long>(video.NumSegments(2)));

  // --- Atomic predicates through the picture retrieval system -------------
  PictureSystem pictures(&video);
  AtomicFormula moving_train =
      ExtractAtomic(*casablanca::MovingTrainAtomic()).value();
  AtomicFormula man_woman = ExtractAtomic(*casablanca::ManWomanAtomic()).value();
  SimilarityList t1 = pictures.QueryClosed(2, moving_train).value();
  SimilarityList t2 = pictures.QueryClosed(2, man_woman).value();
  PrintTable("Table 1. Moving-Train", t1);
  PrintTable("Table 2. Man-Woman", t2);

  // --- Query 1 through the direct engine -----------------------------------
  DirectEngine engine(&video);
  FormulaPtr ev = MakeEventually(casablanca::MovingTrainAtomic());
  if (!Bind(ev.get()).ok()) return 1;
  PrintTable("Table 3. Result of eventually operation in Query 1",
             engine.EvaluateList(2, *ev).value());

  FormulaPtr query1 = casablanca::Query1Full();
  if (!Bind(query1.get()).ok()) return 1;
  SimilarityList direct_result = engine.EvaluateList(2, *query1).value();
  PrintTable("Table 4. Final result of Query 1 (direct method)", direct_result);

  // --- The same query through the SQL-based system -------------------------
  sql::SqlSystem sys;
  SimilarityList sql_result =
      sys.Evaluate(*casablanca::Query1Named(),
                   {{"man_woman", t2}, {"moving_train", t1}}, casablanca::kNumShots)
          .value();
  const bool systems_agree = sql_result == direct_result;
  std::printf("SQL-based system result %s the direct method.\n",
              systems_agree ? "matches" : "DIFFERS FROM");

  const bool matches_paper =
      RankedEntries(direct_result).size() == 8 &&
      std::abs(direct_result.ActualAt(1) - 12.382) < 1e-9 &&
      std::abs(direct_result.ActualAt(6) - 11.047) < 1e-9 &&
      std::abs(direct_result.ActualAt(47) - 6.26) < 1e-9;
  std::printf("paper's Table 4 values reproduced: %s\n", matches_paper ? "yes" : "NO");
  return systems_agree && matches_paper ? 0 : 1;
}
