#ifndef HTL_OBS_PROFILE_H_
#define HTL_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace htl::obs {

/// Per-operator counters accumulated inside one trace span: where rows and
/// intervals go during a query (the per-operator cost model of the
/// sequence-retrieval follow-up work — list merges, value-table scans).
struct OpStats {
  int64_t rows = 0;       // Rows processed / charged against the budget.
  int64_t intervals = 0;  // Similarity-list entries (interval runs) produced.
  int64_t tables = 0;     // Intermediate tables materialized.

  bool empty() const { return rows == 0 && intervals == 0 && tables == 0; }
};

/// The finished, immutable form of a QueryTrace: a tree of timed spans over
/// the retrieval stages (parse -> bind -> classify -> per-video execute) and
/// the per-operator kernels, plus every fault point that fired during the
/// query. Attached to RetrievalReport by Retriever::TopSegmentsProfiled
/// and rendered by ToText() — the EXPLAIN ANALYZE of this engine.
struct QueryProfile {
  struct Node {
    std::string name;     // Span name, e.g. "stage.execute", "op.until_join".
    int64_t nanos = 0;    // Wall time (steady clock) spent in the span.
    int64_t unit = -1;    // Work-unit id (video id on per-video spans).
    OpStats stats;
    std::string note;     // Annotation: formula class, failure status, ...
    std::vector<Node> children;
  };

  /// One fault point that fired while the trace was attached (injected via
  /// FaultRegistry or a real failure routed through a fault-point seam).
  struct FaultTrip {
    std::string point;   // Fault-point name, e.g. "picture.query".
    std::string status;  // The Status it produced.
  };

  std::vector<Node> roots;
  std::vector<FaultTrip> fault_trips;

  bool empty() const { return roots.empty() && fault_trips.empty(); }

  /// Sum of the root spans' wall times.
  int64_t TotalNanos() const;

  /// Depth-first search for the first span with `name` (tests, tooling).
  const Node* Find(std::string_view name) const;

  /// Indented tree rendering with per-span timings and operator counts,
  /// ending with the fault trips (if any). Suitable for terminal output.
  std::string ToText() const;
};

}  // namespace htl::obs

#endif  // HTL_OBS_PROFILE_H_
