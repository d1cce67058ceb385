#include "htl/parser.h"

#include <gtest/gtest.h>

#include "testing/helpers.h"

namespace htl {
namespace {

FormulaPtr MustParse(std::string_view text) {
  auto r = ParseFormula(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
  return r.ok() ? std::move(r).value() : nullptr;
}

TEST(ParserTest, TrueAndFalse) {
  EXPECT_EQ(MustParse("true")->kind, FormulaKind::kTrue);
  EXPECT_EQ(MustParse("false")->kind, FormulaKind::kFalse);
}

TEST(ParserTest, Present) {
  FormulaPtr f = MustParse("present(x)");
  ASSERT_EQ(f->kind, FormulaKind::kConstraint);
  EXPECT_EQ(f->constraint.kind, Constraint::Kind::kPresent);
  EXPECT_EQ(f->constraint.object_var, "x");
  EXPECT_EQ(f->constraint.weight, 1.0);
}

TEST(ParserTest, WeightAnnotation) {
  FormulaPtr f = MustParse("present(x) @ 2.5");
  EXPECT_EQ(f->constraint.weight, 2.5);
}

TEST(ParserTest, Predicate) {
  FormulaPtr f = MustParse("fires_at(x, y)");
  ASSERT_EQ(f->kind, FormulaKind::kConstraint);
  EXPECT_EQ(f->constraint.kind, Constraint::Kind::kPredicate);
  EXPECT_EQ(f->constraint.pred_name, "fires_at");
  EXPECT_EQ(f->constraint.pred_args, (std::vector<std::string>{"x", "y"}));
}

TEST(ParserTest, NullaryPredicate) {
  FormulaPtr f = MustParse("man_woman()");
  ASSERT_EQ(f->kind, FormulaKind::kConstraint);
  EXPECT_EQ(f->constraint.pred_name, "man_woman");
  EXPECT_TRUE(f->constraint.pred_args.empty());
}

TEST(ParserTest, AttributeComparison) {
  FormulaPtr f = MustParse("type(x) = 'airplane'");
  ASSERT_EQ(f->kind, FormulaKind::kConstraint);
  const Constraint& c = f->constraint;
  EXPECT_EQ(c.kind, Constraint::Kind::kCompare);
  EXPECT_EQ(c.lhs.kind, AttrTerm::Kind::kAttrOfVar);
  EXPECT_EQ(c.lhs.name, "type");
  EXPECT_EQ(c.lhs.object_var, "x");
  EXPECT_EQ(c.op, CompareOp::kEq);
  EXPECT_EQ(c.rhs.literal, AttrValue("airplane"));
}

TEST(ParserTest, SegmentAttributeComparison) {
  FormulaPtr f = MustParse("type = 'western'");
  const Constraint& c = f->constraint;
  EXPECT_EQ(c.lhs.kind, AttrTerm::Kind::kName);  // Binder resolves later.
  EXPECT_EQ(c.lhs.name, "type");
}

TEST(ParserTest, AllComparisonOps) {
  EXPECT_EQ(MustParse("height(x) < 5")->constraint.op, CompareOp::kLt);
  EXPECT_EQ(MustParse("height(x) <= 5")->constraint.op, CompareOp::kLe);
  EXPECT_EQ(MustParse("height(x) > 5")->constraint.op, CompareOp::kGt);
  EXPECT_EQ(MustParse("height(x) >= 5")->constraint.op, CompareOp::kGe);
  EXPECT_EQ(MustParse("height(x) != 5")->constraint.op, CompareOp::kNe);
}

TEST(ParserTest, AndOrPrecedence) {
  // and binds tighter than or.
  FormulaPtr f = MustParse("a() or b() and c()");
  ASSERT_EQ(f->kind, FormulaKind::kOr);
  EXPECT_EQ(f->left->kind, FormulaKind::kConstraint);
  EXPECT_EQ(f->right->kind, FormulaKind::kAnd);
}

TEST(ParserTest, UntilBindsLoosest) {
  FormulaPtr f = MustParse("a() and b() until c()");
  ASSERT_EQ(f->kind, FormulaKind::kUntil);
  EXPECT_EQ(f->left->kind, FormulaKind::kAnd);
}

TEST(ParserTest, UntilIsRightAssociative) {
  FormulaPtr f = MustParse("a() until b() until c()");
  ASSERT_EQ(f->kind, FormulaKind::kUntil);
  EXPECT_EQ(f->left->kind, FormulaKind::kConstraint);
  EXPECT_EQ(f->right->kind, FormulaKind::kUntil);
}

TEST(ParserTest, UnaryOperators) {
  EXPECT_EQ(MustParse("not a()")->kind, FormulaKind::kNot);
  EXPECT_EQ(MustParse("next a()")->kind, FormulaKind::kNext);
  EXPECT_EQ(MustParse("eventually a()")->kind, FormulaKind::kEventually);
}

TEST(ParserTest, PaperFormulaA) {
  // M1 and next (M2 until M3), asserted at the shot level.
  FormulaPtr f = MustParse("at-shot-level(m1() and next (m2() until m3()))");
  ASSERT_EQ(f->kind, FormulaKind::kLevel);
  EXPECT_EQ(f->level.kind, LevelSpec::Kind::kNamed);
  EXPECT_EQ(f->level.name, "shot");
  ASSERT_EQ(f->left->kind, FormulaKind::kAnd);
  EXPECT_EQ(f->left->right->kind, FormulaKind::kNext);
  EXPECT_EQ(f->left->right->left->kind, FormulaKind::kUntil);
}

TEST(ParserTest, PaperFormulaB) {
  FormulaPtr f = MustParse(
      "exists x, y (present(x) and present(y) and name(x) = 'JohnWayne' and "
      "type(y) = 'bandit' and holds_gun(x) and holds_gun(y) and "
      "eventually (fires_at(x, y) and eventually on_floor(y)))");
  ASSERT_EQ(f->kind, FormulaKind::kExists);
  EXPECT_EQ(f->vars, (std::vector<std::string>{"x", "y"}));
}

TEST(ParserTest, PaperFormulaCFreeze) {
  FormulaPtr f = MustParse(
      "exists z (present(z) and type(z) = 'airplane' and "
      "[h <- height(z)] eventually (present(z) and height(z) > h))");
  ASSERT_EQ(f->kind, FormulaKind::kExists);
  const Formula* freeze = f->left.get();
  // Walk to the freeze node (right side of the and-chain).
  while (freeze->kind == FormulaKind::kAnd) freeze = freeze->right.get();
  ASSERT_EQ(freeze->kind, FormulaKind::kFreeze);
  EXPECT_EQ(freeze->freeze_var, "h");
  EXPECT_EQ(freeze->freeze_term.kind, AttrTerm::Kind::kAttrOfVar);
  EXPECT_EQ(freeze->freeze_term.name, "height");
  EXPECT_EQ(freeze->freeze_term.object_var, "z");
  EXPECT_EQ(freeze->left->kind, FormulaKind::kEventually);
}

TEST(ParserTest, LevelOperators) {
  EXPECT_EQ(MustParse("at-next-level(true)")->level.kind, LevelSpec::Kind::kNextLevel);
  FormulaPtr abs = MustParse("at-level-3(true)");
  EXPECT_EQ(abs->level.kind, LevelSpec::Kind::kAbsolute);
  EXPECT_EQ(abs->level.level, 3);
  FormulaPtr named = MustParse("at-frame-level(true)");
  EXPECT_EQ(named->level.kind, LevelSpec::Kind::kNamed);
  EXPECT_EQ(named->level.name, "frame");
}

TEST(ParserTest, FreezeOfSegmentAttribute) {
  FormulaPtr f = MustParse("[d <- duration] eventually duration > d");
  ASSERT_EQ(f->kind, FormulaKind::kFreeze);
  EXPECT_EQ(f->freeze_term.kind, AttrTerm::Kind::kSegmentAttr);
  EXPECT_EQ(f->freeze_term.name, "duration");
}

TEST(ParserTest, ParenthesesGroup) {
  FormulaPtr f = MustParse("(a() or b()) and c()");
  ASSERT_EQ(f->kind, FormulaKind::kAnd);
  EXPECT_EQ(f->left->kind, FormulaKind::kOr);
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* queries[] = {
      "present(x)",
      "(man_woman() and eventually (moving_train()))",
      "exists x, y (present(x) and fires_at(x, y))",
      "at-shot-level ((m1() until m2()))",
      "[h <- height(z)] (eventually (height(z) > h))",
      // Literals and weights print at full precision, quotes escaped.
      "type(x) = 'it''s'",
      "height(x) > 1234567.5",
      "height(x) > 100000000000000000000.0",
      "type = 'a' @ 0.00001",
      "present(x) @ 1.0000001",
  };
  for (const char* q : queries) {
    FormulaPtr f1 = MustParse(q);
    ASSERT_NE(f1, nullptr);
    FormulaPtr f2 = MustParse(f1->ToString());
    ASSERT_NE(f2, nullptr) << "failed to reparse: " << f1->ToString();
    EXPECT_EQ(f1->ToString(), f2->ToString());
  }
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseFormula("").ok());
  EXPECT_FALSE(ParseFormula("and").ok());
  EXPECT_FALSE(ParseFormula("present(").ok());
  EXPECT_FALSE(ParseFormula("present(x) extra").ok());
  EXPECT_FALSE(ParseFormula("exists (present(x))").ok());
  EXPECT_FALSE(ParseFormula("[h <- 5] present(x)").ok());  // Literal freeze.
  EXPECT_FALSE(ParseFormula("height(x) <").ok());
  EXPECT_FALSE(ParseFormula("at-level-2(").ok());
  EXPECT_FALSE(ParseFormula("present(x) @ 'w'").ok());  // Non-numeric weight.
}

TEST(ParserTest, ErrorsCarryParseErrorCode) {
  auto r = ParseFormula("present(x) garbage garbage");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, CloneProducesEqualTree) {
  FormulaPtr f = MustParse("exists x (present(x) and eventually type(x) = 'train')");
  FormulaPtr g = f->Clone();
  EXPECT_EQ(f->ToString(), g->ToString());
}

}  // namespace
}  // namespace htl
