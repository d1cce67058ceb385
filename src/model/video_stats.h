#ifndef HTL_MODEL_VIDEO_STATS_H_
#define HTL_MODEL_VIDEO_STATS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "model/value.h"

namespace htl {

class VideoTree;

/// Per-video, per-level index statistics backing bound-based top-k pruning
/// (DESIGN.md "Scale-out retrieval"): one linear scan over a video's
/// segments summarizes, for every level, which atomic predicates *could*
/// score at all — whether any object appears, which predicate names/arities
/// are recorded, and the value domains of segment and object attributes.
/// The bound walker (htl/bound.h) combines these over the formula tree into
/// a sound upper bound on the attainable fractional similarity.
/// MetadataStore::AddVideo builds one VideoStats per video, and a video
/// never changes once added, so the summary never goes stale.
///
/// Soundness contract: every query here over-approximates. If
/// CompareSatisfiable / HasFact / HasObjects returns false, no segment at
/// that level can satisfy the constraint (the picture system's semantics:
/// null values satisfy no comparison, facts match by name and arity). The
/// reverse is deliberately not promised — a true answer may still score 0.
class VideoStats {
 public:
  /// Whose attribute map a comparison reads.
  enum class Scope {
    kSegment,  // segment-level attribute (type = 'western')
    kObject,   // attribute function over an object variable (height(x))
  };

  /// Distinct non-null values retained per (level, scope, attribute) before
  /// the domain saturates and equality tests become "maybe" (numeric ranges
  /// stay exact past the cap, so ordered comparisons never weaken).
  static constexpr size_t kMaxDistinctValues = 64;

  /// One pass over every segment of every level.
  static VideoStats Build(const VideoTree& video);

  /// True when any object appears in any segment at `level` (present(x)
  /// can score). Out-of-range levels answer true (never claim impossible).
  bool HasObjects(int level) const;

  /// True when a ground fact named `name` with `arity` arguments is
  /// recorded in any segment at `level`.
  bool HasFact(int level, const std::string& name, size_t arity) const;

  /// Could `attr OP value` hold for some segment/object at `level`? `test`
  /// receives each retained domain value; a saturated domain with a numeric
  /// range falls back to `test_range(num_min, num_max)` for ordered ops —
  /// callers pass a predicate that is monotone over the range endpoints.
  /// Exposed as raw domain access so this model-layer summary stays
  /// ignorant of the HTL comparison operators (htl/bound.cc owns those).
  struct AttrDomain {
    bool saturated = false;          // More than kMaxDistinctValues distinct.
    std::vector<AttrValue> values;   // Retained distinct non-null values.
    bool has_numeric = false;
    double num_min = 0.0;            // Exact over *all* numeric values seen,
    double num_max = 0.0;            // even past the saturation cap.
  };

  /// The value domain of `attr` at `level` in `scope`, or nullptr when no
  /// segment/object there carries a non-null value for it (in which case no
  /// comparison over it can be satisfied). Out-of-range levels return a
  /// saturated universal domain (never claim impossible).
  const AttrDomain* Domain(int level, Scope scope, const std::string& attr) const;

 private:
  struct LevelStats {
    bool has_objects = false;
    std::map<std::string, std::vector<size_t>> fact_arities;  // Sorted, unique.
    std::map<std::string, AttrDomain> segment_attrs;
    std::map<std::string, AttrDomain> object_attrs;
  };

  static void AddValue(AttrDomain& domain, const AttrValue& value);

  // A saturated domain with an unbounded numeric range, returned for levels
  // outside [1, num_levels] so out-of-range lookups stay conservative.
  static const AttrDomain& UniversalDomain();

  std::vector<LevelStats> levels_;  // Index level - 1.
};

}  // namespace htl

#endif  // HTL_MODEL_VIDEO_STATS_H_
