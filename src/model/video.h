#ifndef HTL_MODEL_VIDEO_H_
#define HTL_MODEL_VIDEO_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/segment.h"
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
/// Lock discipline (DESIGN.md): the store holds no Mutex capability by
/// design. Concurrent *queries* only read `videos_` and the atomic epoch;
/// *mutations* (AddVideo / MutableVideo / BumpEpoch) must be externally
/// serialized against in-flight queries by the caller, and the epoch is
/// what lets caches detect that serialization point after the fact. The
/// streaming-ingest work (ROADMAP item 4) is where per-video htl::Mutex
/// state lands — born annotated, per the no-raw-mutex ground rule.
class MetadataStore {
 public:
  using VideoId = int64_t;

  MetadataStore() = default;
  // The epoch cell is atomic, so copies and moves (test fixtures return
  // stores by value) are spelled out; they transfer the epoch *value*.
  MetadataStore(const MetadataStore& other)
      : videos_(other.videos_), epoch_(other.epoch()) {}
  MetadataStore(MetadataStore&& other) noexcept
      : videos_(std::move(other.videos_)), epoch_(other.epoch()) {}
  MetadataStore& operator=(const MetadataStore& other) {
    videos_ = other.videos_;
    epoch_.store(other.epoch(), std::memory_order_release);
    return *this;
  }
  MetadataStore& operator=(MetadataStore&& other) noexcept {
    videos_ = std::move(other.videos_);
    epoch_.store(other.epoch(), std::memory_order_release);
    return *this;
  }

  /// Adds a video and returns its id (ids start at 1). Bumps the epoch.
  VideoId AddVideo(VideoTree video);

  int64_t num_videos() const { return static_cast<int64_t>(videos_.size()); }

  /// Video by id; checks bounds.
  const VideoTree& Video(VideoId id) const;
  /// Mutable access; handing out the reference counts as a mutation and
  /// bumps the epoch (conservative — callers take it in order to write).
  VideoTree& MutableVideo(VideoId id);

  /// The store's mutation generation. Every mutation (AddVideo,
  /// MutableVideo, BumpEpoch) advances it; caches stamp entries with the
  /// epoch they were computed at and lazily evict entries whose stamp
  /// fell behind (DESIGN.md "Result caching"). Mutations must still be
  /// externally serialized against in-flight queries; the epoch makes
  /// cached state safe *across* that serialization point.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Manually invalidates all cached state derived from this store (e.g.
  /// after writing through a previously obtained MutableVideo reference).
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::vector<VideoTree> videos_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace htl

#endif  // HTL_MODEL_VIDEO_H_
