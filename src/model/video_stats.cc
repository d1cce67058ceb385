#include "model/video_stats.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <tuple>
#include <utility>

#include "model/video.h"
#include "util/logging.h"

namespace htl {

namespace {

bool IsNaN(const AttrValue& v) { return v.is_double() && std::isnan(v.AsDouble()); }

// A strict weak order on non-null values that agrees with operator==:
// numerics by value (so 0 and -0.0 are equivalent), then NaN (all NaNs
// equivalent, though operator== holds for none), then strings by content.
bool ValueLess(const AttrValue& a, const AttrValue& b) {
  const auto rank = [](const AttrValue& v) { return v.is_string() ? 2 : IsNaN(v) ? 1 : 0; };
  const int ra = rank(a);
  const int rb = rank(b);
  if (ra != rb) return ra < rb;
  if (ra == 0) return a.AsDouble() < b.AsDouble();
  if (ra == 2) return a.AsString() < b.AsString();
  return false;
}

uint32_t Size(const auto& v) { return static_cast<uint32_t>(v.size()); }

// pool[begin, end): a row's run begins where the previous row's run ends.
template <typename T>
std::span<const T> Run(const std::vector<T>& pool, uint32_t begin, uint32_t end) {
  return std::span<const T>(pool).subspan(begin, end - begin);
}

// What the scan finds, pointing into the tree (which outlives the build),
// before sorting into the level's tables.
struct ValueHit {
  VideoStats::Scope scope;
  const std::string* attr;
  const AttrValue* value;
  ObjectId holder;  // kInvalidObjectId for a segment attribute.
};
struct FactHit {
  const std::string* name;
  uint32_t arity;
  uint32_t pos;
  ObjectId object;  // kInvalidObjectId for a nullary fact.
};

}  // namespace

VideoStats VideoStats::Build(const VideoTree& video) {
  VideoStats stats;
  stats.levels_.reserve(static_cast<size_t>(video.num_levels()));
  for (int level = 1; level <= video.num_levels(); ++level) {
    stats.levels_.push_back(BuildLevel(video, level));
  }
  return stats;
}

VideoStats::Level VideoStats::BuildLevel(const VideoTree& video, int level) {
  std::vector<std::pair<ObjectId, SegmentId>> appearances;
  std::vector<ValueHit> value_hits;
  std::vector<FactHit> fact_hits;
  const int64_t num_segments = video.NumSegments(level);
  for (SegmentId s = 1; s <= num_segments; ++s) {
    const SegmentMeta& meta = video.Meta(level, s);
    // Null satisfies no comparison, so it never enters the index.
    for (const auto& [name, value] : meta.attributes()) {
      if (!value.is_null()) value_hits.push_back({Scope::kSegment, &name, &value, kInvalidObjectId});
    }
    for (const ObjectAppearance& obj : meta.objects()) {
      appearances.emplace_back(obj.id, s);
      for (const auto& [name, value] : obj.attributes) {
        if (!value.is_null()) value_hits.push_back({Scope::kObject, &name, &value, obj.id});
      }
    }
    for (const PredicateFact& fact : meta.facts()) {
      const uint32_t arity = Size(fact.args);
      if (arity == 0) fact_hits.push_back({&fact.name, 0, 0, kInvalidObjectId});
      for (uint32_t pos = 0; pos < arity; ++pos) {
        fact_hits.push_back({&fact.name, arity, pos, fact.args[pos]});
      }
    }
  }

  Level lv;
  std::sort(appearances.begin(), appearances.end());
  appearances.erase(std::unique(appearances.begin(), appearances.end()), appearances.end());
  for (const auto& [id, segment] : appearances) {
    if (lv.objects.empty() || lv.objects.back() != id) {
      lv.objects.push_back(id);
      lv.segments_end.push_back(0);
    }
    lv.segments.push_back(segment);
    lv.segments_end.back() = Size(lv.segments);
  }

  std::sort(value_hits.begin(), value_hits.end(), [](const ValueHit& a, const ValueHit& b) {
    if (a.scope != b.scope) return a.scope < b.scope;
    if (*a.attr != *b.attr) return *a.attr < *b.attr;
    if (ValueLess(*a.value, *b.value)) return true;
    if (ValueLess(*b.value, *a.value)) return false;
    return a.holder < b.holder;
  });
  for (const ValueHit& h : value_hits) {
    const bool new_attr = lv.attrs.empty() || lv.attrs.back().scope != h.scope ||
                          lv.attrs.back().name != *h.attr;
    if (new_attr) lv.attrs.push_back(Attr{*h.attr, h.scope, 0});
    const bool new_value = new_attr || ValueLess(lv.values.back(), *h.value);
    if (new_value) {
      lv.values.push_back(*h.value);
      lv.holders_end.push_back(0);
      lv.attrs.back().values_end = Size(lv.values);
    }
    if (h.holder != kInvalidObjectId && (new_value || lv.holders.back() != h.holder)) {
      lv.holders.push_back(h.holder);
    }
    lv.holders_end.back() = Size(lv.holders);
  }

  std::sort(fact_hits.begin(), fact_hits.end(), [](const FactHit& a, const FactHit& b) {
    if (*a.name != *b.name) return *a.name < *b.name;
    return std::tie(a.arity, a.pos, a.object) < std::tie(b.arity, b.pos, b.object);
  });
  for (const FactHit& h : fact_hits) {
    const bool new_row = lv.facts.empty() || lv.facts.back().name != *h.name ||
                         lv.facts.back().arity != h.arity || lv.facts.back().pos != h.pos;
    if (new_row) lv.facts.push_back(Fact{*h.name, h.arity, h.pos, 0});
    if (h.object != kInvalidObjectId && (new_row || lv.fact_objects.back() != h.object)) {
      lv.fact_objects.push_back(h.object);
    }
    lv.facts.back().objects_end = Size(lv.fact_objects);
  }
  // The index lives as long as the store: drop the growth slack.
  const auto shrink = [](auto&... v) { (v.shrink_to_fit(), ...); };
  shrink(lv.objects, lv.segments_end, lv.segments, lv.attrs, lv.values, lv.holders_end,
         lv.holders, lv.facts, lv.fact_objects);
  return lv;
}

const VideoStats::Level& VideoStats::At(int level) const {
  HTL_CHECK_GE(level, 1);
  HTL_CHECK_LE(level, num_levels());
  return levels_[static_cast<size_t>(level - 1)];
}

std::span<const SegmentId> VideoStats::Posting(int level, ObjectId id) const {
  const Level& lv = At(level);
  const auto it = std::lower_bound(lv.objects.begin(), lv.objects.end(), id);
  if (it == lv.objects.end() || *it != id) return {};
  const auto i = static_cast<size_t>(it - lv.objects.begin());
  return Run(lv.segments, i == 0 ? 0 : lv.segments_end[i - 1], lv.segments_end[i]);
}

std::span<const AttrValue> VideoStats::Values(int level, Scope scope,
                                              std::string_view attr) const {
  const Level& lv = At(level);
  const auto it = std::lower_bound(
      lv.attrs.begin(), lv.attrs.end(), attr, [scope](const Attr& a, std::string_view name) {
        return a.scope != scope ? a.scope < scope : a.name < name;
      });
  if (it == lv.attrs.end() || it->scope != scope || it->name != attr) return {};
  return Run(lv.values, it == lv.attrs.begin() ? 0 : std::prev(it)->values_end, it->values_end);
}

std::span<const ObjectId> VideoStats::ObjectsWithAttrValue(int level, std::string_view attr,
                                                           const AttrValue& value) const {
  if (value.is_null() || IsNaN(value)) return {};  // Equal to nothing.
  const Level& lv = At(level);
  const std::span<const AttrValue> values = Values(level, Scope::kObject, attr);
  const auto it = std::lower_bound(values.begin(), values.end(), value, ValueLess);
  if (it == values.end() || ValueLess(value, *it)) return {};
  const auto j = static_cast<size_t>(&*it - lv.values.data());
  return Run(lv.holders, j == 0 ? 0 : lv.holders_end[j - 1], lv.holders_end[j]);
}

bool VideoStats::HasFact(int level, std::string_view name, size_t arity) const {
  const Level& lv = At(level);
  const auto it = std::lower_bound(
      lv.facts.begin(), lv.facts.end(), name, [arity](const Fact& f, std::string_view n) {
        return f.name != n ? f.name < n : f.arity < arity;
      });
  return it != lv.facts.end() && it->name == name && it->arity == arity;
}

std::span<const ObjectId> VideoStats::ObjectsInFactPosition(int level, std::string_view name,
                                                            size_t arity, size_t pos) const {
  if (pos >= arity) return {};  // A nullary fact's row holds no objects.
  const Level& lv = At(level);
  const auto it = std::lower_bound(
      lv.facts.begin(), lv.facts.end(), name, [arity, pos](const Fact& f, std::string_view n) {
        if (f.name != n) return f.name < n;
        return f.arity != arity ? f.arity < arity : f.pos < pos;
      });
  if (it == lv.facts.end() || it->name != name || it->arity != arity || it->pos != pos) {
    return {};
  }
  return Run(lv.fact_objects, it == lv.facts.begin() ? 0 : std::prev(it)->objects_end,
             it->objects_end);
}

}  // namespace htl
