#include "htl/ast.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace htl {

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

AttrTerm AttrTerm::Literal(AttrValue v) {
  AttrTerm t;
  t.kind = Kind::kLiteral;
  t.literal = std::move(v);
  return t;
}

AttrTerm AttrTerm::Name(std::string n) {
  AttrTerm t;
  t.kind = Kind::kName;
  t.name = std::move(n);
  return t;
}

AttrTerm AttrTerm::Variable(std::string n) {
  AttrTerm t;
  t.kind = Kind::kVariable;
  t.name = std::move(n);
  return t;
}

AttrTerm AttrTerm::AttrOf(std::string attr, std::string object_var) {
  AttrTerm t;
  t.kind = Kind::kAttrOfVar;
  t.name = std::move(attr);
  t.object_var = std::move(object_var);
  return t;
}

AttrTerm AttrTerm::SegmentAttr(std::string attr) {
  AttrTerm t;
  t.kind = Kind::kSegmentAttr;
  t.name = std::move(attr);
  return t;
}

std::string AttrTerm::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kName:
    case Kind::kVariable:
    case Kind::kSegmentAttr:
      return name;
    case Kind::kAttrOfVar:
      return StrCat(name, "(", object_var, ")");
  }
  return "?";
}

std::string Constraint::ToString() const {
  std::string body;
  switch (kind) {
    case Kind::kPresent:
      body = StrCat("present(", object_var, ")");
      break;
    case Kind::kCompare:
      body = StrCat(lhs.ToString(), " ", CompareOpName(op), " ", rhs.ToString());
      break;
    case Kind::kPredicate:
      body = StrCat(pred_name, "(", StrJoin(pred_args, ", "), ")");
      break;
  }
  if (weight != 1.0) body = StrCat(body, " @ ", FormatRoundTrip(weight));
  return body;
}

std::string LevelSpec::ToString() const {
  switch (kind) {
    case Kind::kNextLevel:
      return "at-next-level";
    case Kind::kAbsolute:
      return StrCat("at-level-", level);
    case Kind::kNamed:
      return StrCat("at-", name, "-level");
  }
  return "?";
}

FormulaPtr Formula::Clone() const {
  auto f = std::make_unique<Formula>();
  f->kind = kind;
  if (left) f->left = left->Clone();
  if (right) f->right = right->Clone();
  f->constraint = constraint;
  f->vars = vars;
  f->freeze_var = freeze_var;
  f->freeze_term = freeze_term;
  f->level = level;
  return f;
}

std::string Formula::ToString() const {
  switch (kind) {
    case FormulaKind::kTrue:
      return "true";
    case FormulaKind::kFalse:
      return "false";
    case FormulaKind::kConstraint:
      return constraint.ToString();
    case FormulaKind::kAnd:
      return StrCat("(", left->ToString(), " and ", right->ToString(), ")");
    case FormulaKind::kOr:
      return StrCat("(", left->ToString(), " or ", right->ToString(), ")");
    case FormulaKind::kNot:
      return StrCat("not (", left->ToString(), ")");
    case FormulaKind::kNext:
      return StrCat("next (", left->ToString(), ")");
    case FormulaKind::kEventually:
      return StrCat("eventually (", left->ToString(), ")");
    case FormulaKind::kUntil:
      return StrCat("(", left->ToString(), " until ", right->ToString(), ")");
    case FormulaKind::kExists:
      return StrCat("exists ", StrJoin(vars, ", "), " (", left->ToString(), ")");
    case FormulaKind::kFreeze:
      return StrCat("[", freeze_var, " <- ", freeze_term.ToString(), "] (",
                    left->ToString(), ")");
    case FormulaKind::kLevel:
      return StrCat(level.ToString(), " (", left->ToString(), ")");
  }
  return "?";
}

FormulaPtr MakeTrue() {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kTrue;
  return f;
}

FormulaPtr MakeFalse() {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kFalse;
  return f;
}

FormulaPtr MakeConstraint(Constraint c) {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kConstraint;
  f->constraint = std::move(c);
  return f;
}

FormulaPtr MakePresent(std::string var, double weight) {
  Constraint c;
  c.kind = Constraint::Kind::kPresent;
  c.object_var = std::move(var);
  c.weight = weight;
  return MakeConstraint(std::move(c));
}

FormulaPtr MakeCompare(AttrTerm lhs, CompareOp op, AttrTerm rhs, double weight) {
  Constraint c;
  c.kind = Constraint::Kind::kCompare;
  c.lhs = std::move(lhs);
  c.op = op;
  c.rhs = std::move(rhs);
  c.weight = weight;
  return MakeConstraint(std::move(c));
}

FormulaPtr MakePredicate(std::string name, std::vector<std::string> args, double weight) {
  Constraint c;
  c.kind = Constraint::Kind::kPredicate;
  c.pred_name = std::move(name);
  c.pred_args = std::move(args);
  c.weight = weight;
  return MakeConstraint(std::move(c));
}

namespace {
FormulaPtr MakeBinary(FormulaKind kind, FormulaPtr a, FormulaPtr b) {
  HTL_CHECK(a != nullptr);
  HTL_CHECK(b != nullptr);
  auto f = std::make_unique<Formula>();
  f->kind = kind;
  f->left = std::move(a);
  f->right = std::move(b);
  return f;
}
FormulaPtr MakeUnary(FormulaKind kind, FormulaPtr a) {
  HTL_CHECK(a != nullptr);
  auto f = std::make_unique<Formula>();
  f->kind = kind;
  f->left = std::move(a);
  return f;
}
}  // namespace

FormulaPtr MakeAnd(FormulaPtr a, FormulaPtr b) {
  return MakeBinary(FormulaKind::kAnd, std::move(a), std::move(b));
}
FormulaPtr MakeOr(FormulaPtr a, FormulaPtr b) {
  return MakeBinary(FormulaKind::kOr, std::move(a), std::move(b));
}
FormulaPtr MakeNot(FormulaPtr a) { return MakeUnary(FormulaKind::kNot, std::move(a)); }
FormulaPtr MakeNext(FormulaPtr a) { return MakeUnary(FormulaKind::kNext, std::move(a)); }
FormulaPtr MakeEventually(FormulaPtr a) {
  return MakeUnary(FormulaKind::kEventually, std::move(a));
}
FormulaPtr MakeUntil(FormulaPtr a, FormulaPtr b) {
  return MakeBinary(FormulaKind::kUntil, std::move(a), std::move(b));
}

FormulaPtr MakeExists(std::vector<std::string> vars, FormulaPtr body) {
  auto f = MakeUnary(FormulaKind::kExists, std::move(body));
  f->vars = std::move(vars);
  return f;
}

FormulaPtr MakeFreeze(std::string var, AttrTerm term, FormulaPtr body) {
  auto f = MakeUnary(FormulaKind::kFreeze, std::move(body));
  f->freeze_var = std::move(var);
  f->freeze_term = std::move(term);
  return f;
}

FormulaPtr MakeAtNextLevel(FormulaPtr body) {
  auto f = MakeUnary(FormulaKind::kLevel, std::move(body));
  f->level.kind = LevelSpec::Kind::kNextLevel;
  return f;
}

FormulaPtr MakeAtLevel(int level, FormulaPtr body) {
  auto f = MakeUnary(FormulaKind::kLevel, std::move(body));
  f->level.kind = LevelSpec::Kind::kAbsolute;
  f->level.level = level;
  return f;
}

FormulaPtr MakeAtNamedLevel(std::string name, FormulaPtr body) {
  auto f = MakeUnary(FormulaKind::kLevel, std::move(body));
  f->level.kind = LevelSpec::Kind::kNamed;
  f->level.name = std::move(name);
  return f;
}

namespace {

void AddUnique(std::vector<std::string>& out, const std::string& v) {
  if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
}

void CollectObjectVars(const Formula& f, std::vector<std::string>& bound,
                       std::vector<std::string>& out) {
  auto is_bound = [&](const std::string& v) {
    return std::find(bound.begin(), bound.end(), v) != bound.end();
  };
  switch (f.kind) {
    case FormulaKind::kConstraint: {
      const Constraint& c = f.constraint;
      if (c.kind == Constraint::Kind::kPresent) {
        if (!is_bound(c.object_var)) AddUnique(out, c.object_var);
      } else if (c.kind == Constraint::Kind::kPredicate) {
        for (const std::string& a : c.pred_args) {
          if (!is_bound(a)) AddUnique(out, a);
        }
      } else {
        for (const AttrTerm* t : {&c.lhs, &c.rhs}) {
          if (t->kind == AttrTerm::Kind::kAttrOfVar && !is_bound(t->object_var)) {
            AddUnique(out, t->object_var);
          }
        }
      }
      return;
    }
    case FormulaKind::kExists: {
      size_t before = bound.size();
      for (const std::string& v : f.vars) bound.push_back(v);
      CollectObjectVars(*f.left, bound, out);
      bound.resize(before);
      return;
    }
    case FormulaKind::kFreeze: {
      if (f.freeze_term.kind == AttrTerm::Kind::kAttrOfVar &&
          !is_bound(f.freeze_term.object_var)) {
        AddUnique(out, f.freeze_term.object_var);
      }
      CollectObjectVars(*f.left, bound, out);
      return;
    }
    default:
      if (f.left) CollectObjectVars(*f.left, bound, out);
      if (f.right) CollectObjectVars(*f.right, bound, out);
      return;
  }
}

void CollectAttrVars(const Formula& f, std::vector<std::string>& bound,
                     std::vector<std::string>& out) {
  auto is_bound = [&](const std::string& v) {
    return std::find(bound.begin(), bound.end(), v) != bound.end();
  };
  switch (f.kind) {
    case FormulaKind::kConstraint: {
      const Constraint& c = f.constraint;
      if (c.kind == Constraint::Kind::kCompare) {
        for (const AttrTerm* t : {&c.lhs, &c.rhs}) {
          if (t->kind == AttrTerm::Kind::kVariable && !is_bound(t->name)) {
            AddUnique(out, t->name);
          }
        }
      }
      return;
    }
    case FormulaKind::kFreeze: {
      bound.push_back(f.freeze_var);
      CollectAttrVars(*f.left, bound, out);
      bound.pop_back();
      return;
    }
    default:
      if (f.left) CollectAttrVars(*f.left, bound, out);
      if (f.right) CollectAttrVars(*f.right, bound, out);
      return;
  }
}

}  // namespace

std::vector<std::string> FreeObjectVars(const Formula& f) {
  std::vector<std::string> bound, out;
  CollectObjectVars(f, bound, out);
  return out;
}

std::vector<std::string> FreeAttrVars(const Formula& f) {
  std::vector<std::string> bound, out;
  CollectAttrVars(f, bound, out);
  return out;
}

bool IsNonTemporal(const Formula& f) {
  switch (f.kind) {
    case FormulaKind::kNext:
    case FormulaKind::kEventually:
    case FormulaKind::kUntil:
    case FormulaKind::kLevel:
      return false;
    default:
      if (f.left && !IsNonTemporal(*f.left)) return false;
      if (f.right && !IsNonTemporal(*f.right)) return false;
      return true;
  }
}

double MaxSimilarity(const Formula& f) {
  switch (f.kind) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return 1.0;
    case FormulaKind::kConstraint:
      return f.constraint.weight;
    case FormulaKind::kAnd:
      return MaxSimilarity(*f.left) + MaxSimilarity(*f.right);
    case FormulaKind::kOr:
      return std::max(MaxSimilarity(*f.left), MaxSimilarity(*f.right));
    case FormulaKind::kNot:
    case FormulaKind::kNext:
    case FormulaKind::kEventually:
    case FormulaKind::kExists:
    case FormulaKind::kFreeze:
    case FormulaKind::kLevel:
      return MaxSimilarity(*f.left);
    case FormulaKind::kUntil:
      return MaxSimilarity(*f.right);
  }
  return 0.0;
}

}  // namespace htl
