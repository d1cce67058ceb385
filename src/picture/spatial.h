#ifndef HTL_PICTURE_SPATIAL_H_
#define HTL_PICTURE_SPATIAL_H_

#include <optional>
#include <string>

#include "model/segment.h"
#include "util/result.h"

namespace htl {

/// Spatial reasoning for the picture-retrieval substrate. The system the
/// paper builds on ([27] and "Reasoning about spatial relationships in
/// picture retrieval systems" [26]) indexes spatial relationships between
/// the objects of a picture; here they are *derived* from per-object
/// bounding boxes rather than hand-annotated, and materialized as ordinary
/// ground facts so that HTL predicates (left_of(x, y), overlaps(x, y), ...)
/// query them through the normal fact index.

/// Axis-aligned bounding box in image coordinates (origin top-left,
/// y growing downward, as in the scanned-frame convention).
struct BoundingBox {
  double x = 0;  // Left edge.
  double y = 0;  // Top edge.
  double width = 0;
  double height = 0;

  double right() const { return x + width; }
  double bottom() const { return y + height; }
  double area() const { return width * height; }

  bool Valid() const { return width > 0 && height > 0; }

  friend bool operator==(const BoundingBox& a, const BoundingBox& b) {
    return a.x == b.x && a.y == b.y && a.width == b.width && a.height == b.height;
  }

  std::string ToString() const;
};

/// The binary spatial relations derived between two boxes. The directional
/// four use *strict* interval separation (a wholly to the left of b, etc.);
/// kOverlaps is symmetric interior intersection; kInside is proper
/// containment of a in b.
enum class SpatialRelation {
  kLeftOf,
  kRightOf,
  kAbove,
  kBelow,
  kOverlaps,
  kInside,
  kContains,
};

/// Canonical predicate name for a relation ("left_of", "overlaps", ...).
std::string_view SpatialRelationName(SpatialRelation r);

/// True when boxes a and b stand in relation `r` (a r b).
bool HoldsBetween(const BoundingBox& a, const BoundingBox& b, SpatialRelation r);

/// Composition table for directional relations ([26]-style deduction):
/// given a R1 b and b R2 c, returns the relation guaranteed between a and c
/// when one is implied (only same-axis directional relations compose:
/// left_of ∘ left_of = left_of etc.).
std::optional<SpatialRelation> Compose(SpatialRelation r1, SpatialRelation r2);

/// Reads an object's bounding box from its conventional attributes
/// ("bbox_x", "bbox_y", "bbox_w", "bbox_h"); nullopt when absent/invalid.
std::optional<BoundingBox> BoxOf(const ObjectAppearance& object);

/// Writes the box onto an appearance as the conventional attributes.
void SetBox(ObjectAppearance* object, const BoundingBox& box);

/// Derives all pairwise spatial facts between objects of `meta` that carry
/// bounding boxes and records them as ground facts (left_of(a,b), ...).
/// Returns the number of facts added. Idempotent.
int DeriveSpatialFacts(SegmentMeta* meta);

}  // namespace htl

#endif  // HTL_PICTURE_SPATIAL_H_
