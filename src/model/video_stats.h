#ifndef HTL_MODEL_VIDEO_STATS_H_
#define HTL_MODEL_VIDEO_STATS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/object.h"
#include "model/value.h"
#include "util/interval.h"

namespace htl {

class VideoTree;

/// The one per-video index: for every level, which objects appear where,
/// which attribute values occur, and which facts are recorded. These are
/// the "indices on the meta-data" the paper's picture retrieval system
/// [27, 25, 2] answers atomic formulas from (PictureSystem), and the same
/// per-level questions bound-based top-k pruning asks (htl/bound.h,
/// DESIGN.md "Scale-out retrieval"). MetadataStore::AddVideo builds one per
/// video in one scan, and a video never changes once added, so the index
/// never goes stale.
///
/// Layout: per level, flat sorted vectors (no map node per entry), each
/// row owning a run of a shared array. Values match by
/// AttrValue::operator== (0 and -0.0 are one value), and every distinct
/// non-null value is kept. Levels must lie in [1, num_levels()].
class VideoStats {
 public:
  /// Whose attribute map a comparison reads.
  enum class Scope {
    kSegment,  // segment-level attribute (type = 'western')
    kObject,   // attribute function over an object variable (height(x))
  };

  /// One pass over every segment of every level.
  static VideoStats Build(const VideoTree& video);

  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Every object appearing at `level`, ascending.
  std::span<const ObjectId> Objects(int level) const { return At(level).objects; }

  /// True when any object appears at `level` (present(x) can score).
  bool HasObjects(int level) const { return !At(level).objects.empty(); }

  /// Ascending ids of the segments at `level` where object `id` appears.
  std::span<const SegmentId> Posting(int level, ObjectId id) const;

  /// Distinct non-null values of `attr` at `level` in `scope`, in a strict
  /// weak order that agrees with AttrValue::operator== (numerics by value,
  /// then strings). Empty when nothing there carries the attribute.
  std::span<const AttrValue> Values(int level, Scope scope, std::string_view attr) const;

  /// Ascending objects whose attribute `attr` equals `value` in some
  /// segment at `level`. Drives candidate pruning for type(x) = 'airplane'.
  std::span<const ObjectId> ObjectsWithAttrValue(int level, std::string_view attr,
                                                 const AttrValue& value) const;

  /// True when a ground fact `name` with `arity` arguments is recorded at
  /// `level` (nullary facts included).
  bool HasFact(int level, std::string_view name, size_t arity) const;

  /// Ascending objects in argument position `pos` of some fact `name` with
  /// `arity` arguments at `level`.
  std::span<const ObjectId> ObjectsInFactPosition(int level, std::string_view name,
                                                  size_t arity, size_t pos) const;

 private:
  // A row owns the run of its pool that ends at its `end` and begins at the
  // previous row's end.
  struct Attr {
    std::string name;
    Scope scope;
    uint32_t values_end;  // Into Level::values.
  };
  struct Fact {
    std::string name;
    uint32_t arity;
    uint32_t pos;          // 0 with no objects for a nullary fact.
    uint32_t objects_end;  // Into Level::fact_objects.
  };
  struct Level {
    std::vector<ObjectId> objects;       // Ascending.
    std::vector<uint32_t> segments_end;  // Per object, into segments.
    std::vector<SegmentId> segments;
    std::vector<Attr> attrs;             // By (scope, name).
    std::vector<AttrValue> values;       // Per attribute, ascending, distinct.
    std::vector<uint32_t> holders_end;   // Per value, into holders.
    std::vector<ObjectId> holders;       // Objects holding an object-scope value.
    std::vector<Fact> facts;             // By (name, arity, pos).
    std::vector<ObjectId> fact_objects;
  };

  static Level BuildLevel(const VideoTree& video, int level);
  const Level& At(int level) const;

  std::vector<Level> levels_;  // Index level - 1.
};

}  // namespace htl

#endif  // HTL_MODEL_VIDEO_STATS_H_
