#include "picture/spatial.h"

#include <vector>

#include "util/string_util.h"

namespace htl {

std::string BoundingBox::ToString() const {
  return StrCat("[", x, ",", y, " ", width, "x", height, "]");
}

std::string_view SpatialRelationName(SpatialRelation r) {
  switch (r) {
    case SpatialRelation::kLeftOf:
      return "left_of";
    case SpatialRelation::kRightOf:
      return "right_of";
    case SpatialRelation::kAbove:
      return "above";
    case SpatialRelation::kBelow:
      return "below";
    case SpatialRelation::kOverlaps:
      return "overlaps";
    case SpatialRelation::kInside:
      return "inside";
    case SpatialRelation::kContains:
      return "contains";
  }
  return "?";
}

bool HoldsBetween(const BoundingBox& a, const BoundingBox& b, SpatialRelation r) {
  if (!a.Valid() || !b.Valid()) return false;
  switch (r) {
    case SpatialRelation::kLeftOf:
      return a.right() < b.x;
    case SpatialRelation::kRightOf:
      return b.right() < a.x;
    case SpatialRelation::kAbove:
      return a.bottom() < b.y;
    case SpatialRelation::kBelow:
      return b.bottom() < a.y;
    case SpatialRelation::kOverlaps:
      return a.x < b.right() && b.x < a.right() && a.y < b.bottom() && b.y < a.bottom();
    case SpatialRelation::kInside:
      return a.x >= b.x && a.right() <= b.right() && a.y >= b.y &&
             a.bottom() <= b.bottom() && !(a == b);
    case SpatialRelation::kContains:
      return HoldsBetween(b, a, SpatialRelation::kInside);
  }
  return false;
}

std::optional<SpatialRelation> Compose(SpatialRelation r1, SpatialRelation r2) {
  // Directional relations on the same axis compose transitively; inside
  // composes with itself; inside preserves the outer object's directional
  // relations (if a inside b and b left_of c, then a left_of c).
  if (r1 == r2) {
    switch (r1) {
      case SpatialRelation::kLeftOf:
      case SpatialRelation::kRightOf:
      case SpatialRelation::kAbove:
      case SpatialRelation::kBelow:
      case SpatialRelation::kInside:
      case SpatialRelation::kContains:
        return r1;
      default:
        return std::nullopt;
    }
  }
  if (r1 == SpatialRelation::kInside) {
    switch (r2) {
      case SpatialRelation::kLeftOf:
      case SpatialRelation::kRightOf:
      case SpatialRelation::kAbove:
      case SpatialRelation::kBelow:
        return r2;  // a ⊆ b and b strictly beside c ⇒ a strictly beside c.
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<BoundingBox> BoxOf(const ObjectAppearance& object) {
  const AttrValue x = object.Attribute("bbox_x");
  const AttrValue y = object.Attribute("bbox_y");
  const AttrValue w = object.Attribute("bbox_w");
  const AttrValue h = object.Attribute("bbox_h");
  if (!x.is_numeric() || !y.is_numeric() || !w.is_numeric() || !h.is_numeric()) {
    return std::nullopt;
  }
  BoundingBox box{x.AsDouble(), y.AsDouble(), w.AsDouble(), h.AsDouble()};
  if (!box.Valid()) return std::nullopt;
  return box;
}

void SetBox(ObjectAppearance* object, const BoundingBox& box) {
  object->attributes["bbox_x"] = AttrValue(box.x);
  object->attributes["bbox_y"] = AttrValue(box.y);
  object->attributes["bbox_w"] = AttrValue(box.width);
  object->attributes["bbox_h"] = AttrValue(box.height);
}

int DeriveSpatialFacts(SegmentMeta* meta) {
  // Collect boxed objects first (AddFact mutates the fact list only).
  std::vector<std::pair<ObjectId, BoundingBox>> boxed;
  for (const ObjectAppearance& obj : meta->objects()) {
    if (std::optional<BoundingBox> box = BoxOf(obj); box.has_value()) {
      boxed.emplace_back(obj.id, *box);
    }
  }
  int added = 0;
  constexpr SpatialRelation kAll[] = {
      SpatialRelation::kLeftOf,   SpatialRelation::kRightOf,
      SpatialRelation::kAbove,    SpatialRelation::kBelow,
      SpatialRelation::kOverlaps, SpatialRelation::kInside,
      SpatialRelation::kContains,
  };
  for (const auto& [ida, boxa] : boxed) {
    for (const auto& [idb, boxb] : boxed) {
      if (ida == idb) continue;
      for (SpatialRelation r : kAll) {
        if (!HoldsBetween(boxa, boxb, r)) continue;
        PredicateFact fact{std::string(SpatialRelationName(r)), {ida, idb}};
        if (!meta->HasFact(fact)) {
          meta->AddFact(std::move(fact));
          ++added;
        }
      }
    }
  }
  return added;
}

}  // namespace htl
