#include "picture/picture_system.h"

#include <algorithm>
#include <map>
#include <optional>
#include <span>

#include "obs/metrics.h"
#include "picture/constraint_eval.h"
#include "sim/table_ops.h"
#include "util/fault_point.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace htl {

namespace {

// True when the constraint mentions an attribute variable (range mode).
bool HasAttrVar(const Constraint& c) {
  if (c.kind != Constraint::Kind::kCompare) return false;
  return c.lhs.kind == AttrTerm::Kind::kVariable ||
         c.rhs.kind == AttrTerm::Kind::kVariable;
}

// Object variables a constraint mentions.
std::vector<std::string> ConstraintObjectVars(const Constraint& c) {
  std::vector<std::string> vars;
  auto add = [&](const std::string& v) {
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) vars.push_back(v);
  };
  switch (c.kind) {
    case Constraint::Kind::kPresent:
      add(c.object_var);
      break;
    case Constraint::Kind::kPredicate:
      for (const std::string& a : c.pred_args) add(a);
      break;
    case Constraint::Kind::kCompare:
      for (const AttrTerm* t : {&c.lhs, &c.rhs}) {
        if (t->kind == AttrTerm::Kind::kAttrOfVar) add(t->object_var);
      }
      break;
  }
  return vars;
}

// Merge of sorted id runs.
std::vector<SegmentId> UnionSorted(const std::vector<std::span<const SegmentId>>& inputs) {
  std::vector<SegmentId> out;
  for (const std::span<const SegmentId> v : inputs) out.insert(out.end(), v.begin(), v.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

PictureSystem::PictureSystem(const VideoTree* video, PictureOptions options,
                             const VideoStats* index)
    : video_(video), options_(options), index_(index) {
  HTL_CHECK(video != nullptr);
  if (index_ == nullptr) {
    owned_index_ = std::make_unique<const VideoStats>(VideoStats::Build(*video));
    index_ = owned_index_.get();
  }
  HTL_CHECK_EQ(index_->num_levels(), video->num_levels());
}

Result<SimilarityTable> PictureSystem::Query(int level, const AtomicFormula& atomic) {
  // The I/O-shaped seam of figure 1: in the paper's architecture this call
  // crosses into the external picture retrieval system.
  HTL_OBS_COUNT("picture.queries", 1);
  HTL_FAULT_POINT("picture.query");
  if (level < 1 || level > video_->num_levels()) {
    return Status::OutOfRange(StrCat("level ", level, " out of range"));
  }
  for (const Constraint& c : atomic.constraints) {
    // Reject two-attribute-variable comparisons up front.
    HTL_RETURN_IF_ERROR(ComparisonAttrVar(c).status());
  }
  const VideoStats& index = *index_;
  const int64_t n = video_->NumSegments(level);
  const std::vector<std::string> all_vars = atomic.AllObjectVars();
  const std::vector<std::string> free_vars = atomic.FreeObjectVars();
  const std::vector<std::string> attr_vars = atomic.FreeAttrVars();
  const double max_weight = atomic.MaxWeight();

  // --- Candidate objects per variable -----------------------------------
  // C(v) must contain every object that can satisfy at least one
  // v-mentioning constraint in some segment; objects outside C(v) are
  // covered by the wildcard binding (they satisfy nothing). Equality on an
  // object attribute and fact membership prune via the index; any other
  // v-constraint (present, inequality, attr-var ranges) admits all objects.
  std::map<std::string, std::vector<ObjectId>> candidates;
  for (const std::string& v : all_vars) candidates[v];  // ensure keys
  std::map<std::string, bool> needs_all;
  for (const std::string& v : all_vars) needs_all[v] = false;
  for (const Constraint& c : atomic.constraints) {
    for (const std::string& v : ConstraintObjectVars(c)) {
      switch (c.kind) {
        case Constraint::Kind::kPresent:
          needs_all[v] = true;
          break;
        case Constraint::Kind::kPredicate: {
          for (size_t pos = 0; pos < c.pred_args.size(); ++pos) {
            if (c.pred_args[pos] != v) continue;
            const std::span<const ObjectId> objs =
                index.ObjectsInFactPosition(level, c.pred_name, c.pred_args.size(), pos);
            candidates[v].insert(candidates[v].end(), objs.begin(), objs.end());
          }
          break;
        }
        case Constraint::Kind::kCompare: {
          // attr(v) = literal prunes through the index; anything else
          // (inequalities, attribute variables, attr-to-attr) cannot.
          const bool lhs_of_v = c.lhs.kind == AttrTerm::Kind::kAttrOfVar &&
                                c.lhs.object_var == v;
          const AttrTerm& self = lhs_of_v ? c.lhs : c.rhs;
          const AttrTerm& other = lhs_of_v ? c.rhs : c.lhs;
          if (c.op == CompareOp::kEq && self.kind == AttrTerm::Kind::kAttrOfVar &&
              other.kind == AttrTerm::Kind::kLiteral) {
            const std::span<const ObjectId> objs =
                index.ObjectsWithAttrValue(level, self.name, other.literal);
            candidates[v].insert(candidates[v].end(), objs.begin(), objs.end());
          } else {
            needs_all[v] = true;
          }
          break;
        }
      }
    }
  }
  int64_t binding_count = 1;
  for (const std::string& v : all_vars) {
    if (needs_all[v]) {
      const std::span<const ObjectId> all = index.Objects(level);
      candidates[v].assign(all.begin(), all.end());
    }
    auto& c = candidates[v];
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    binding_count *= static_cast<int64_t>(c.size()) + 1;  // +1: wildcard.
    if (binding_count > options_.max_bindings) {
      return Status::FailedPrecondition(
          StrCat("atomic query would enumerate more than ", options_.max_bindings,
                 " bindings: ", atomic.ToString()));
    }
  }

  // --- Var-free base score ----------------------------------------------
  // Constraints mentioning no object variable contribute the same score to
  // every binding; evaluate them once per segment. Range-mode var-free
  // constraints (e.g. h > 5 or duration > h) are folded into the per-
  // segment range computation below instead.
  std::vector<const Constraint*> boolean_constraints;  // no attr var
  std::vector<const Constraint*> range_constraints;    // one attr var
  for (const Constraint& c : atomic.constraints) {
    (HasAttrVar(c) ? range_constraints : boolean_constraints).push_back(&c);
  }
  const bool scan_all = std::any_of(
      atomic.constraints.begin(), atomic.constraints.end(),
      [](const Constraint& c) { return ConstraintObjectVars(c).empty(); });

  // --- Enumerate bindings -------------------------------------------------
  // Odometer over (C(v) ∪ {wildcard}) per variable.
  const size_t k = all_vars.size();
  std::vector<size_t> odo(k, 0);  // 0 = wildcard, i>0 = candidates[v][i-1].
  SimilarityTable full(all_vars, attr_vars);

  while (true) {
    EvalEnv env;
    std::vector<ObjectId> binding(k, SimilarityTable::kAnyObject);
    std::vector<std::span<const SegmentId>> postings;
    for (size_t i = 0; i < k; ++i) {
      if (odo[i] == 0) continue;
      binding[i] = candidates[all_vars[i]][odo[i] - 1];
      env.objects[all_vars[i]] = binding[i];
      postings.push_back(index.Posting(level, binding[i]));
    }
    // Segments that can score nonzero for this binding.
    std::vector<SegmentId> segments;
    if (scan_all) {
      segments.resize(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) segments[static_cast<size_t>(i)] = i + 1;
    } else {
      segments = UnionSorted(postings);
    }

    // Rows keyed by the attribute-variable range tuple.
    std::map<std::string, std::pair<std::vector<ValueRange>, std::vector<SimEntry>>> rows;
    for (SegmentId s : segments) {
      const SegmentMeta& meta = video_->Meta(level, s);
      double score = 0;
      for (const Constraint* c : boolean_constraints) {
        if (ConstraintSatisfied(*c, meta, env)) score += c->weight;
      }
      // Attribute-variable constraints are hard: all must be jointly
      // satisfiable; their weights count inside the resulting range.
      std::vector<ValueRange> ranges(attr_vars.size(), ValueRange::All());
      bool feasible = true;
      for (const Constraint* c : range_constraints) {
        Result<AttrVarRange> r = CompareToRange(*c, meta, env);
        if (!r.ok()) return r.status();
        auto it = std::find(attr_vars.begin(), attr_vars.end(), r.value().var);
        HTL_CHECK(it != attr_vars.end());
        size_t idx = static_cast<size_t>(it - attr_vars.begin());
        ranges[idx] = ranges[idx].Intersect(r.value().range);
        if (ranges[idx].IsEmpty()) {
          feasible = false;
          break;
        }
        score += c->weight;
      }
      if (!feasible || score <= 0) continue;
      std::string key;
      for (const ValueRange& r : ranges) key += r.ToString() + "|";
      auto& row = rows[key];
      row.first = ranges;
      if (!row.second.empty() && row.second.back().actual == score &&
          row.second.back().range.end + 1 == s) {
        row.second.back().range.end = s;
      } else {
        row.second.push_back(SimEntry{Interval{s, s}, score});
      }
    }
    for (auto& [key, ranges_and_entries] : rows) {
      SimilarityTable::Row row;
      row.objects = binding;
      row.ranges = std::move(ranges_and_entries.first);
      HTL_ASSIGN_OR_RETURN(
          row.list,
          SimilarityList::FromEntries(std::move(ranges_and_entries.second), max_weight));
      full.AddRow(std::move(row));
    }

    // Advance the odometer.
    size_t i = 0;
    for (; i < k; ++i) {
      if (++odo[i] <= candidates[all_vars[i]].size()) break;
      odo[i] = 0;
    }
    if (k == 0 || i == k) break;
  }

  if (atomic.exists_vars.empty()) return full;
  return CollapseExists(full, atomic.exists_vars);
}

Result<SimilarityList> PictureSystem::QueryClosed(int level, const AtomicFormula& atomic) {
  if (!atomic.FreeObjectVars().empty() || !atomic.FreeAttrVars().empty()) {
    return Status::InvalidArgument(
        StrCat("atomic formula is not closed: ", atomic.ToString()));
  }
  HTL_ASSIGN_OR_RETURN(SimilarityTable table, Query(level, atomic));
  return table.ToList(atomic.MaxWeight());
}

Result<ValueTable> PictureSystem::Values(int level, const AttrTerm& q) {
  HTL_OBS_COUNT("picture.value_queries", 1);
  if (level < 1 || level > video_->num_levels()) {
    return Status::OutOfRange(StrCat("level ", level, " out of range"));
  }
  const int64_t n = video_->NumSegments(level);
  if (q.kind == AttrTerm::Kind::kSegmentAttr) {
    ValueTable out{std::vector<std::string>{}};
    // Group segments by the attribute's value.
    std::map<std::string, std::pair<AttrValue, std::vector<Interval>>> groups;
    for (SegmentId s = 1; s <= n; ++s) {
      AttrValue v = video_->Meta(level, s).Attribute(q.name);
      if (v.is_null()) continue;
      auto& g = groups[v.ToString()];
      g.first = v;
      if (!g.second.empty() && g.second.back().end + 1 == s) {
        g.second.back().end = s;
      } else {
        g.second.push_back(Interval{s, s});
      }
    }
    for (auto& [key, g] : groups) {
      out.AddRow(ValueTable::Row{{}, std::move(g.first), std::move(g.second)});
    }
    return out;
  }
  if (q.kind == AttrTerm::Kind::kAttrOfVar) {
    ValueTable out({q.object_var});
    std::map<std::pair<ObjectId, std::string>,
             std::pair<AttrValue, std::vector<Interval>>>
        groups;
    for (SegmentId s = 1; s <= n; ++s) {
      const SegmentMeta& meta = video_->Meta(level, s);
      for (const ObjectAppearance& obj : meta.objects()) {
        AttrValue v = obj.Attribute(q.name);
        if (v.is_null()) continue;
        auto& g = groups[{obj.id, v.ToString()}];
        g.first = v;
        if (!g.second.empty() && g.second.back().end + 1 == s) {
          g.second.back().end = s;
        } else {
          g.second.push_back(Interval{s, s});
        }
      }
    }
    for (auto& [key, g] : groups) {
      out.AddRow(ValueTable::Row{{key.first}, std::move(g.first), std::move(g.second)});
    }
    return out;
  }
  return Status::InvalidArgument(
      "value tables exist for attribute functions and segment attributes only");
}

}  // namespace htl
