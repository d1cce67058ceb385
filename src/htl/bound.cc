#include "htl/bound.h"

#include <algorithm>
#include <span>

#include "picture/atomic.h"
#include "picture/constraint_eval.h"

namespace htl {
namespace {

// One side of a comparison, reduced to what the index can check: a literal,
// the distinct values an attribute takes at the level, or "anything"
// (attribute variables bound by freeze, unresolved names — conservatively
// satisfiable).
struct TermView {
  enum class Kind { kLiteral, kDomain, kAny } kind = Kind::kAny;
  const AttrValue* literal = nullptr;
  std::span<const AttrValue> domain;  // Empty: nothing carries the attribute.
};

TermView ViewTerm(const AttrTerm& term, const VideoStats& stats, int level) {
  TermView view;
  switch (term.kind) {
    case AttrTerm::Kind::kLiteral:
      view.kind = TermView::Kind::kLiteral;
      view.literal = &term.literal;
      break;
    case AttrTerm::Kind::kSegmentAttr:
      view.kind = TermView::Kind::kDomain;
      view.domain = stats.Values(level, VideoStats::Scope::kSegment, term.name);
      break;
    case AttrTerm::Kind::kAttrOfVar:
      view.kind = TermView::Kind::kDomain;
      view.domain = stats.Values(level, VideoStats::Scope::kObject, term.name);
      break;
    case AttrTerm::Kind::kVariable:  // Freeze-bound: any frozen value.
    case AttrTerm::Kind::kName:      // Unbound name: never claim impossible.
      view.kind = TermView::Kind::kAny;
      break;
  }
  return view;
}

// Whether `c` could be satisfied by some segment/object/binding at `level`.
// Independent per constraint: joint satisfiability (one object providing
// every conjunct) is not required for an upper bound on the weighted sum.
// A comparison against a literal is exact: the index keeps every distinct
// value, and Compare is the one the picture system evaluates with.
bool ConstraintSatisfiable(const Constraint& c, const VideoStats& stats, int level) {
  switch (c.kind) {
    case Constraint::Kind::kPresent:
      return stats.HasObjects(level);
    case Constraint::Kind::kPredicate:
      return stats.HasFact(level, c.pred_name, c.pred_args.size());
    case Constraint::Kind::kCompare: {
      const TermView lhs = ViewTerm(c.lhs, stats, level);
      const TermView rhs = ViewTerm(c.rhs, stats, level);
      if (lhs.kind == TermView::Kind::kAny || rhs.kind == TermView::Kind::kAny) {
        return true;
      }
      if (lhs.kind == TermView::Kind::kLiteral &&
          rhs.kind == TermView::Kind::kLiteral) {
        return Compare(*lhs.literal, c.op, *rhs.literal);
      }
      if (lhs.kind == TermView::Kind::kDomain &&
          rhs.kind == TermView::Kind::kLiteral) {
        return std::any_of(lhs.domain.begin(), lhs.domain.end(), [&](const AttrValue& v) {
          return Compare(v, c.op, *rhs.literal);
        });
      }
      if (lhs.kind == TermView::Kind::kLiteral &&
          rhs.kind == TermView::Kind::kDomain) {
        return std::any_of(rhs.domain.begin(), rhs.domain.end(), [&](const AttrValue& v) {
          return Compare(*lhs.literal, c.op, v);
        });
      }
      // Domain-to-domain (two attributes): checking cross products would
      // need joint per-object reasoning; widen to satisfiable.
      return true;
    }
  }
  return true;
}

double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

double Bound(const Formula& f, const VideoTree& video, const VideoStats& stats,
             int level, const BoundOptions& options) {
  // Maximal atomic-shaped subtrees are one picture query scored by weighted
  // partial matching — regardless of the and-semantics knob, exactly as the
  // engine folds them (DirectEngine::EvalTable). The bound is
  // the weight fraction of the independently-satisfiable constraints.
  if (f.kind != FormulaKind::kTrue && f.kind != FormulaKind::kFalse &&
      IsAtomicShape(f)) {
    Result<AtomicFormula> atomic = ExtractAtomic(f);
    if (!atomic.ok()) return 1.0;  // Shape drift: never prune on uncertainty.
    double satisfiable = 0.0;
    double total = 0.0;
    for (const Constraint& c : atomic.value().constraints) {
      total += c.weight;
      if (ConstraintSatisfiable(c, stats, level)) satisfiable += c.weight;
    }
    if (total <= 0.0) return 1.0;
    return Clamp01(satisfiable / total);
  }
  switch (f.kind) {
    case FormulaKind::kTrue:
      return 1.0;
    case FormulaKind::kFalse:
      return 0.0;
    case FormulaKind::kAnd: {
      const double ub_l = Bound(*f.left, video, stats, level, options);
      const double ub_r = Bound(*f.right, video, stats, level, options);
      if (options.fuzzy_and) return std::min(ub_l, ub_r);  // FuzzyMinAndMerge.
      // AndMerge: actuals add, max = ml + mr (partial satisfaction keeps
      // one-sided values, still bounded by the weighted sum).
      const double ml = MaxSimilarity(*f.left);
      const double mr = MaxSimilarity(*f.right);
      if (ml + mr <= 0.0) return 1.0;
      return Clamp01((ub_l * ml + ub_r * mr) / (ml + mr));
    }
    case FormulaKind::kOr: {
      // OrMerge: pointwise max of actuals, max = max(ml, mr).
      const double ub_l = Bound(*f.left, video, stats, level, options);
      const double ub_r = Bound(*f.right, video, stats, level, options);
      const double ml = MaxSimilarity(*f.left);
      const double mr = MaxSimilarity(*f.right);
      const double m = std::max(ml, mr);
      if (m <= 0.0) return 1.0;
      return Clamp01(std::max(ub_l * ml, ub_r * mr) / m);
    }
    case FormulaKind::kNot:
      // Complement: actual' = max - actual. Bounding it from above needs a
      // *lower* bound on the body, which the stats do not derive.
      return 1.0;
    case FormulaKind::kNext:       // NextShift: values move, never grow.
    case FormulaKind::kEventually:  // Suffix max of the body's values.
    case FormulaKind::kExists:      // MultiMax over bindings of the body.
    case FormulaKind::kFreeze:      // Body with the variable frozen ("any").
      return Bound(*f.left, video, stats, level, options);
    case FormulaKind::kUntil:
      // UntilMerge: f(u) = max(h(u), gate * f(u+1)), max = h.max — the left
      // operand only gates, so the attainable fraction is the right's.
      return Bound(*f.right, video, stats, level, options);
    case FormulaKind::kLevel: {
      // Mirror DirectEngine::ResolveLevel; an unresolvable target makes the
      // engine fail the video, which pruning must not mask — widen to 1.
      int target = level + 1;
      switch (f.level.kind) {
        case LevelSpec::Kind::kNextLevel:
          target = level + 1;
          break;
        case LevelSpec::Kind::kAbsolute:
          target = f.level.level;
          break;
        case LevelSpec::Kind::kNamed: {
          Result<int> named = video.LevelByName(f.level.name);
          if (!named.ok()) return 1.0;
          target = named.value();
          break;
        }
      }
      if (target <= level || target > video.num_levels()) return 1.0;
      // Each parent position scores the body's value at one descendant, so
      // the parent fraction is bounded by the body's bound at the target.
      return Bound(*f.left, video, stats, target, options);
    }
    case FormulaKind::kConstraint:
      break;  // Atomic-shaped; handled above. Fall through conservatively.
  }
  return 1.0;
}

}  // namespace

double UpperBoundFraction(const Formula& f, const VideoTree& video,
                          const VideoStats& stats, int level,
                          const BoundOptions& options) {
  // The index answers only for levels the video has; elsewhere, "maybe".
  if (level < 1 || level > video.num_levels()) return 1.0;
  return Bound(f, video, stats, level, options);
}

}  // namespace htl
