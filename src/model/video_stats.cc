#include "model/video_stats.h"

#include <algorithm>
#include <limits>

#include "model/video.h"

namespace htl {

void VideoStats::AddValue(AttrDomain& domain, const AttrValue& value) {
  if (value.is_null()) return;  // Null satisfies no comparison.
  if (value.is_numeric()) {
    const double d = value.AsDouble();
    if (!domain.has_numeric) {
      domain.has_numeric = true;
      domain.num_min = domain.num_max = d;
    } else {
      domain.num_min = std::min(domain.num_min, d);
      domain.num_max = std::max(domain.num_max, d);
    }
  }
  if (domain.saturated) return;
  for (const AttrValue& v : domain.values) {
    if (v == value) return;
  }
  if (domain.values.size() >= kMaxDistinctValues) {
    domain.saturated = true;
    return;
  }
  domain.values.push_back(value);
}

const VideoStats::AttrDomain& VideoStats::UniversalDomain() {
  static const AttrDomain* universal = [] {
    auto* d = new AttrDomain();
    d->saturated = true;
    d->has_numeric = true;
    d->num_min = std::numeric_limits<double>::lowest();
    d->num_max = std::numeric_limits<double>::max();
    return d;
  }();
  return *universal;
}

VideoStats VideoStats::Build(const VideoTree& video) {
  VideoStats stats;
  stats.levels_.resize(static_cast<size_t>(video.num_levels()));
  for (int level = 1; level <= video.num_levels(); ++level) {
    LevelStats& ls = stats.levels_[static_cast<size_t>(level - 1)];
    const int64_t num_segments = video.NumSegments(level);
    for (SegmentId id = 1; id <= num_segments; ++id) {
      const SegmentMeta& meta = video.Meta(level, id);
      if (!meta.objects().empty()) ls.has_objects = true;
      for (const auto& [name, value] : meta.attributes()) {
        AddValue(ls.segment_attrs[name], value);
      }
      for (const ObjectAppearance& obj : meta.objects()) {
        for (const auto& [name, value] : obj.attributes) {
          AddValue(ls.object_attrs[name], value);
        }
      }
      for (const PredicateFact& fact : meta.facts()) {
        std::vector<size_t>& arities = ls.fact_arities[fact.name];
        const size_t arity = fact.args.size();
        auto it = std::lower_bound(arities.begin(), arities.end(), arity);
        if (it == arities.end() || *it != arity) arities.insert(it, arity);
      }
    }
  }
  return stats;
}

bool VideoStats::HasObjects(int level) const {
  if (level < 1 || level > static_cast<int>(levels_.size())) return true;
  return levels_[static_cast<size_t>(level - 1)].has_objects;
}

bool VideoStats::HasFact(int level, const std::string& name, size_t arity) const {
  if (level < 1 || level > static_cast<int>(levels_.size())) return true;
  const LevelStats& ls = levels_[static_cast<size_t>(level - 1)];
  auto it = ls.fact_arities.find(name);
  if (it == ls.fact_arities.end()) return false;
  return std::binary_search(it->second.begin(), it->second.end(), arity);
}

const VideoStats::AttrDomain* VideoStats::Domain(int level, Scope scope,
                                                 const std::string& attr) const {
  if (level < 1 || level > static_cast<int>(levels_.size())) {
    return &UniversalDomain();
  }
  const LevelStats& ls = levels_[static_cast<size_t>(level - 1)];
  const std::map<std::string, AttrDomain>& attrs =
      scope == Scope::kSegment ? ls.segment_attrs : ls.object_attrs;
  auto it = attrs.find(attr);
  return it == attrs.end() ? nullptr : &it->second;
}

}  // namespace htl
