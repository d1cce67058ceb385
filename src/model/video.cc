#include "model/video.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace htl {

int64_t VideoTree::NumSegments(int level) const {
  HTL_CHECK_GE(level, 1);
  HTL_CHECK_LE(level, num_levels());
  return static_cast<int64_t>(levels_[level - 1].size());
}

VideoTree::Node& VideoTree::NodeAt(int level, SegmentId id) {
  HTL_CHECK_GE(level, 1);
  HTL_CHECK_LE(level, num_levels());
  HTL_CHECK_GE(id, 1);
  HTL_CHECK_LE(id, NumSegments(level));
  return levels_[level - 1][static_cast<size_t>(id - 1)];
}

const VideoTree::Node& VideoTree::NodeAt(int level, SegmentId id) const {
  return const_cast<VideoTree*>(this)->NodeAt(level, id);
}

const SegmentMeta& VideoTree::Meta(int level, SegmentId id) const {
  return NodeAt(level, id).meta;
}

SegmentMeta& VideoTree::MutableMeta(int level, SegmentId id) {
  return NodeAt(level, id).meta;
}

SegmentId VideoTree::Parent(int level, SegmentId id) const {
  HTL_CHECK_GE(level, 2);
  return NodeAt(level, id).parent;
}

Interval VideoTree::Children(int level, SegmentId id) const {
  const Node& n = NodeAt(level, id);
  if (n.num_children == 0) return Interval{1, 0};
  return Interval{n.first_child, n.first_child + n.num_children - 1};
}

Interval VideoTree::DescendantsAtLevel(int level, SegmentId id, int target_level) const {
  HTL_CHECK_GE(target_level, level);
  Interval range{id, id};
  for (int l = level; l < target_level; ++l) {
    if (range.empty()) return range;
    Interval first = Children(l, range.begin);
    Interval last = Children(l, range.end);
    if (first.empty()) {
      // Scan forward for the first node in range with children.
      SegmentId s = range.begin;
      while (s <= range.end && Children(l, s).empty()) ++s;
      if (s > range.end) return Interval{1, 0};
      first = Children(l, s);
    }
    if (last.empty()) {
      SegmentId s = range.end;
      while (s >= range.begin && Children(l, s).empty()) --s;
      if (s < range.begin) return Interval{1, 0};
      last = Children(l, s);
    }
    range = Interval{first.begin, last.end};
  }
  return range;
}

Status VideoTree::NameLevel(const std::string& name, int level) {
  if (level < 1 || level > num_levels()) {
    return Status::OutOfRange(
        StrCat("level ", level, " out of range 1..", num_levels()));
  }
  level_names_[name] = level;
  return Status::OK();
}

Result<int> VideoTree::LevelByName(const std::string& name) const {
  auto it = level_names_.find(name);
  if (it == level_names_.end()) {
    return Status::NotFound(StrCat("no level named '", name, "'"));
  }
  return it->second;
}

std::string VideoTree::Title() const {
  if (num_levels() == 0) return "";
  AttrValue title = Meta(1, 1).Attribute("title");
  return title.is_string() ? title.AsString() : "";
}

VideoTree VideoTree::Flat(int64_t num_children) {
  HTL_CHECK_GE(num_children, 0);
  VideoTree v;
  v.levels_.resize(num_children > 0 ? 2 : 1);
  Node root;
  root.first_child = num_children > 0 ? 1 : kInvalidSegmentId;
  root.num_children = num_children;
  v.levels_[0].push_back(std::move(root));
  if (num_children > 0) {
    v.levels_[1].resize(static_cast<size_t>(num_children));
    for (auto& child : v.levels_[1]) child.parent = 1;
  }
  return v;
}

Status VideoTree::CheckInvariants() const {
  if (levels_.empty()) return Status::Internal("video has no levels");
  if (levels_[0].size() != 1) {
    return Status::Internal(
        StrCat("level 1 must hold exactly the root, has ", levels_[0].size()));
  }
  if (levels_[0][0].parent != kInvalidSegmentId) {
    return Status::Internal("root must not have a parent");
  }
  for (int level = 1; level <= num_levels(); ++level) {
    const auto& nodes = levels_[static_cast<size_t>(level - 1)];
    const int64_t next_size =
        level < num_levels()
            ? static_cast<int64_t>(levels_[static_cast<size_t>(level)].size())
            : 0;
    // Children intervals must march left to right across the next level
    // without gaps or overlaps: that contiguity is what makes interval-coded
    // similarity lists valid per level.
    SegmentId next_covered = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const Node& n = nodes[i];
      if (n.num_children < 0) {
        return Status::Internal(StrCat("node (", level, ",", i + 1,
                                       ") has negative child count ", n.num_children));
      }
      if (n.num_children == 0) continue;
      if (level == num_levels()) {
        return Status::Internal(StrCat("node (", level, ",", i + 1,
                                       ") has children below the last level"));
      }
      if (n.first_child != next_covered + 1) {
        return Status::Internal(
            StrCat("node (", level, ",", i + 1, ") children start at ", n.first_child,
                   ", expected ", next_covered + 1, " (gap or overlap)"));
      }
      next_covered = n.first_child + n.num_children - 1;
      if (next_covered > next_size) {
        return Status::Internal(StrCat("node (", level, ",", i + 1,
                                       ") children run to ", next_covered,
                                       " past level ", level + 1, " size ", next_size));
      }
      for (SegmentId c = n.first_child; c <= next_covered; ++c) {
        const Node& child = levels_[static_cast<size_t>(level)][static_cast<size_t>(c - 1)];
        if (child.parent != static_cast<SegmentId>(i + 1)) {
          return Status::Internal(
              StrCat("node (", level + 1, ",", c, ") has parent ", child.parent,
                     " but lies in the children interval of (", level, ",", i + 1, ")"));
        }
      }
    }
    if (next_covered != next_size) {
      return Status::Internal(StrCat("level ", level + 1, " has ", next_size,
                                     " segments but children intervals cover ",
                                     next_covered));
    }
  }
  for (const auto& [name, level] : level_names_) {
    if (level < 1 || level > num_levels()) {
      return Status::Internal(
          StrCat("level name '", name, "' maps to out-of-range level ", level));
    }
  }
  return Status::OK();
}

MetadataStore::VideoId MetadataStore::AddVideo(VideoTree video) {
  VideoStats stats = VideoStats::Build(video);
  videos_.push_back(Record{std::move(video), std::move(stats)});
  return num_videos();
}

const MetadataStore::Record& MetadataStore::At(VideoId id) const {
  HTL_CHECK_GE(id, 1);
  HTL_CHECK_LE(id, num_videos());
  return videos_[static_cast<size_t>(id - 1)];
}

const VideoTree& MetadataStore::Video(VideoId id) const { return At(id).tree; }

const VideoStats& MetadataStore::Stats(VideoId id) const { return At(id).stats; }

}  // namespace htl
