#ifndef HTL_MODEL_VIDEO_H_
#define HTL_MODEL_VIDEO_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "model/segment.h"
#include "model/video_stats.h"
#include "util/interval.h"
#include "util/result.h"
#include "util/status.h"

namespace htl {

/// Reference to a node in the hierarchy: (level, id). Levels are numbered
/// from 1 at the root, as in the paper; ids are 1-based positions within the
/// level's temporal order.
struct NodeRef {
  int level = 1;
  SegmentId id = 1;

  friend bool operator==(const NodeRef& a, const NodeRef& b) {
    return a.level == b.level && a.id == b.id;
  }
};

/// The hierarchical video model of section 2.1: a tree whose nodes are video
/// segments. Level 1 holds the single root (the whole video); each level is
/// a temporally ordered sequence of segments that decomposes the level
/// above; all leaves lie at the same depth. Because every level is a full
/// decomposition of its parent level in order, the descendants of any node
/// at any deeper level form a *contiguous* id interval — which is what makes
/// interval-coded similarity lists work per level.
class VideoTree {
 public:
  /// Number of levels; >= 1. Level numbers run 1..num_levels().
  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Number of segments at `level` (1-based). Level 1 always has 1.
  int64_t NumSegments(int level) const;

  /// Meta-data of node (level, id); ids are 1-based. Checks bounds.
  const SegmentMeta& Meta(int level, SegmentId id) const;
  SegmentMeta& MutableMeta(int level, SegmentId id);

  const SegmentMeta& Meta(const NodeRef& ref) const { return Meta(ref.level, ref.id); }

  /// Parent id (at level-1) of node (level, id); level must be >= 2.
  SegmentId Parent(int level, SegmentId id) const;

  /// Children of node (level, id) as an id interval at level+1; empty when
  /// the node is a leaf or level is the last level.
  Interval Children(int level, SegmentId id) const;

  /// Descendants of node (level, id) at `target_level` (>= level), as a
  /// contiguous id interval at that level. target_level == level yields
  /// [id, id]. Empty if the node has no descendants that deep.
  Interval DescendantsAtLevel(int level, SegmentId id, int target_level) const;

  /// Associates `name` with a level number (e.g. "scene" -> 3, "shot" -> 4,
  /// "frame" -> 5) so queries may use at-scene-level etc.
  Status NameLevel(const std::string& name, int level);

  /// Resolves a level name registered by NameLevel.
  Result<int> LevelByName(const std::string& name) const;

  const std::map<std::string, int>& level_names() const { return level_names_; }

  /// The video's display name (root attribute "title" when set).
  std::string Title() const;

  /// Builds a two-level video (root + `num_children` child segments), the
  /// simplified shape assumed by the algorithms of section 3. Children carry
  /// empty meta-data to be filled by the caller.
  static VideoTree Flat(int64_t num_children);

  /// Validates proper-sequence well-formedness (section 2.1): level 1 holds
  /// exactly the root; every deeper node's parent pointer is in range and
  /// agrees with the parent's children interval; children intervals are
  /// non-overlapping, in temporal order, and together cover the next level
  /// exactly; level names map to existing levels. O(total nodes); production
  /// call sites go through HTL_DCHECK_OK.
  Status CheckInvariants() const;

 private:
  friend class VideoBuilder;

  struct Node {
    SegmentId parent = kInvalidSegmentId;  // Id at the previous level.
    SegmentId first_child = kInvalidSegmentId;
    int64_t num_children = 0;
    SegmentMeta meta;
  };

  Node& NodeAt(int level, SegmentId id);
  const Node& NodeAt(int level, SegmentId id) const;

  std::vector<std::vector<Node>> levels_;
  std::map<std::string, int> level_names_;
};

/// A collection of videos, keyed by a small integer video id — the
/// "meta-data database" of figure 1. Retrieval runs per video and merges
/// results across videos for global top-k.
///
/// Append-only: the analyzer produces each video's meta-data once, and
/// retrieval only reads it. A video never changes after AddVideo, and the
/// videos live in a deque, so an append moves no earlier video: references
/// from Video() and Stats() stay valid for the store's lifetime. Anything
/// derived from one video alone (its engine, its index statistics) is
/// therefore never invalidated; only answers over the whole store change
/// with an append, and num_videos() identifies which store they were
/// computed over.
///
/// Lock discipline (DESIGN.md): the store holds no Mutex capability by
/// design. Concurrent queries only read; AddVideo must be externally
/// serialized against in-flight queries by the caller.
class MetadataStore {
 public:
  using VideoId = int64_t;

  /// Adds a video, builds its VideoStats, and returns its id (ids start
  /// at 1).
  VideoId AddVideo(VideoTree video);

  int64_t num_videos() const { return static_cast<int64_t>(videos_.size()); }

  /// Video by id; checks bounds.
  const VideoTree& Video(VideoId id) const;

  /// The video's index statistics, built once by AddVideo; checks bounds.
  const VideoStats& Stats(VideoId id) const;

 private:
  struct Record {
    VideoTree tree;
    VideoStats stats;
  };

  const Record& At(VideoId id) const;

  std::deque<Record> videos_;
};

}  // namespace htl

#endif  // HTL_MODEL_VIDEO_H_
