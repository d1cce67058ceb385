#include "engine/reference_engine.h"

#include <algorithm>
#include <set>

#include "picture/atomic.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace htl {

namespace {

// The existential domain at one level: every object occurring there, plus
// one id occurring nowhere (the canonical "absent" binding — it makes
// negated presence and partial matches exact).
std::vector<ObjectId> ExistsDomain(const VideoTree& video, int level) {
  std::set<ObjectId> ids;
  ObjectId max_id = 0;
  const int64_t n = video.NumSegments(level);
  for (SegmentId s = 1; s <= n; ++s) {
    for (const ObjectAppearance& obj : video.Meta(level, s).objects()) {
      ids.insert(obj.id);
      max_id = std::max(max_id, obj.id);
    }
  }
  std::vector<ObjectId> out(ids.begin(), ids.end());
  out.push_back(max_id + 1);  // Absent representative.
  return out;
}

// True when the constraint mentions an attribute variable; those are "hard"
// within an atomic conjunction (see picture_system.h).
bool IsRangeConstraint(const Constraint& c) {
  if (c.kind != Constraint::Kind::kCompare) return false;
  return c.lhs.kind == AttrTerm::Kind::kVariable ||
         c.rhs.kind == AttrTerm::Kind::kVariable;
}

}  // namespace

ReferenceEngine::ReferenceEngine(const VideoTree* video, QueryOptions options)
    : video_(video), options_(options) {
  HTL_CHECK(video != nullptr);
}

Result<Sim> ReferenceEngine::Evaluate(int level, const Interval& bounds, SegmentId pos,
                                      const Formula& f, const EvalEnv& env) {
  HTL_ASSIGN_OR_RETURN(double a, Actual(level, bounds, pos, f, env));
  return Sim{a, MaxSimilarity(f)};
}

Result<SimilarityList> ReferenceEngine::EvaluateList(int level, const Formula& f) {
  if (level < 1 || level > video_->num_levels()) {
    return Status::OutOfRange(StrCat("level ", level, " out of range"));
  }
  const Interval bounds{1, video_->NumSegments(level)};
  std::vector<double> dense;
  dense.reserve(static_cast<size_t>(bounds.size()));
  EvalEnv env;
  for (SegmentId pos = bounds.begin; pos <= bounds.end; ++pos) {
    HTL_ASSIGN_OR_RETURN(double a, Actual(level, bounds, pos, f, env));
    dense.push_back(a);
  }
  return SimilarityList::FromDense(dense, MaxSimilarity(f), bounds.begin);
}

Result<double> ReferenceEngine::Actual(int level, const Interval& bounds, SegmentId pos,
                                       const Formula& f, const EvalEnv& env) {
  HTL_CHECK(bounds.Contains(pos));
  // Every (formula, position) recursion step polls the context: the
  // exponential evaluator must stay interruptible and depth-bounded.
  DepthScope depth(exec_);
  HTL_RETURN_IF_ERROR(depth.status());
  // Atomic conjunctions get the dedicated weighted-partial-match scoring
  // with hard attribute-variable constraints; this is the semantics the
  // picture system implements, applied at the maximal atomic subtree (a
  // lone constraint is the degenerate case).
  if (f.kind != FormulaKind::kConstraint && IsAtomicShape(f)) {
    HTL_ASSIGN_OR_RETURN(AtomicFormula atomic, ExtractAtomic(f));
    const SegmentMeta& meta = video_->Meta(level, pos);
    // Enumerate local existential bindings (odometer over the domain).
    const std::vector<ObjectId> domain = ExistsDomain(*video_, level);
    const size_t k = atomic.exists_vars.size();
    std::vector<size_t> odo(k, 0);
    double best = 0;
    while (true) {
      EvalEnv local = env;
      for (size_t i = 0; i < k; ++i) {
        local.objects[atomic.exists_vars[i]] = domain[odo[i]];
      }
      double score = 0;
      bool hard_fail = false;
      for (const Constraint& c : atomic.constraints) {
        const bool sat = ConstraintSatisfied(c, meta, local);
        if (sat) {
          score += c.weight;
        } else if (IsRangeConstraint(c)) {
          hard_fail = true;
          break;
        }
      }
      if (!hard_fail) best = std::max(best, score);
      size_t i = 0;
      for (; i < k; ++i) {
        if (++odo[i] < domain.size()) break;
        odo[i] = 0;
      }
      if (k == 0 || i == k) break;
    }
    return best;
  }

  switch (f.kind) {
    case FormulaKind::kTrue:
      return 1.0;
    case FormulaKind::kFalse:
      return 0.0;
    case FormulaKind::kConstraint: {
      const SegmentMeta& meta = video_->Meta(level, pos);
      return ConstraintSatisfied(f.constraint, meta, env) ? f.constraint.weight : 0.0;
    }
    case FormulaKind::kAnd: {
      HTL_ASSIGN_OR_RETURN(double a, Actual(level, bounds, pos, *f.left, env));
      HTL_ASSIGN_OR_RETURN(double b, Actual(level, bounds, pos, *f.right, env));
      if (options_.and_semantics == AndSemantics::kFuzzyMin) {
        const double mg = MaxSimilarity(*f.left);
        const double mh = MaxSimilarity(*f.right);
        const double frac_g = mg > 0 ? a / mg : 0.0;
        const double frac_h = mh > 0 ? b / mh : 0.0;
        return std::min(frac_g, frac_h) * (mg + mh);
      }
      return a + b;
    }
    case FormulaKind::kOr: {
      HTL_ASSIGN_OR_RETURN(double a, Actual(level, bounds, pos, *f.left, env));
      HTL_ASSIGN_OR_RETURN(double b, Actual(level, bounds, pos, *f.right, env));
      return std::max(a, b);
    }
    case FormulaKind::kNot: {
      HTL_ASSIGN_OR_RETURN(double a, Actual(level, bounds, pos, *f.left, env));
      return MaxSimilarity(*f.left) - a;
    }
    case FormulaKind::kNext: {
      if (pos + 1 > bounds.end) return 0.0;
      return Actual(level, bounds, pos + 1, *f.left, env);
    }
    case FormulaKind::kEventually: {
      double best = 0;
      for (SegmentId u = pos; u <= bounds.end; ++u) {
        HTL_ASSIGN_OR_RETURN(double a, Actual(level, bounds, u, *f.left, env));
        best = std::max(best, a);
      }
      return best;
    }
    case FormulaKind::kUntil: {
      const double g_max = MaxSimilarity(*f.left);
      double best = 0;
      for (SegmentId u = pos; u <= bounds.end; ++u) {
        HTL_ASSIGN_OR_RETURN(double h, Actual(level, bounds, u, *f.right, env));
        best = std::max(best, h);
        HTL_ASSIGN_OR_RETURN(double g, Actual(level, bounds, u, *f.left, env));
        const double frac = g_max > 0 ? g / g_max : 0.0;
        if (frac + 1e-12 < options_.until_threshold) break;
      }
      return best;
    }
    case FormulaKind::kExists: {
      const std::vector<ObjectId> domain = ExistsDomain(*video_, level);
      const size_t k = f.vars.size();
      std::vector<size_t> odo(k, 0);
      double best = 0;
      while (true) {
        EvalEnv local = env;
        for (size_t i = 0; i < k; ++i) local.objects[f.vars[i]] = domain[odo[i]];
        HTL_ASSIGN_OR_RETURN(double a, Actual(level, bounds, pos, *f.left, local));
        best = std::max(best, a);
        size_t i = 0;
        for (; i < k; ++i) {
          if (++odo[i] < domain.size()) break;
          odo[i] = 0;
        }
        if (k == 0 || i == k) break;
      }
      return best;
    }
    case FormulaKind::kFreeze: {
      const SegmentMeta& meta = video_->Meta(level, pos);
      EvalEnv local = env;
      local.attrs[f.freeze_var] = EvalTerm(f.freeze_term, meta, env);
      return Actual(level, bounds, pos, *f.left, local);
    }
    case FormulaKind::kLevel: {
      int target = 0;
      switch (f.level.kind) {
        case LevelSpec::Kind::kNextLevel:
          target = level + 1;
          break;
        case LevelSpec::Kind::kAbsolute:
          target = f.level.level;
          break;
        case LevelSpec::Kind::kNamed: {
          HTL_ASSIGN_OR_RETURN(target, video_->LevelByName(f.level.name));
          break;
        }
      }
      if (target <= level || target > video_->num_levels()) {
        if (f.level.kind == LevelSpec::Kind::kNextLevel &&
            target > video_->num_levels()) {
          return 0.0;  // Leaf segments have no children.
        }
        return Status::InvalidArgument(
            StrCat("level operator targets level ", target, " from level ", level));
      }
      const Interval seq = video_->DescendantsAtLevel(level, pos, target);
      if (seq.empty()) return 0.0;
      return Actual(target, seq, seq.begin, *f.left, env);
    }
  }
  return Status::Internal("unhandled formula kind");
}

}  // namespace htl
