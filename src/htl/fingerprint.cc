#include "htl/fingerprint.h"

#include <utility>

#include "util/string_util.h"

namespace htl {

std::string CanonicalFormulaKey(const Formula& f) {
  switch (f.kind) {
    case FormulaKind::kTrue:
      return "true";
    case FormulaKind::kFalse:
      return "false";
    case FormulaKind::kConstraint:
      return f.constraint.ToString();  // Includes the weight ("@ w").
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::string a = CanonicalFormulaKey(*f.left);
      std::string b = CanonicalFormulaKey(*f.right);
      // Commutative: order the operands by their canonical form so
      // `a and b` and `b and a` share one key (see the header for why the
      // swap is bit-exact).
      if (b < a) std::swap(a, b);
      return StrCat("(", a, f.kind == FormulaKind::kAnd ? " and " : " or ", b, ")");
    }
    case FormulaKind::kNot:
      return StrCat("not (", CanonicalFormulaKey(*f.left), ")");
    case FormulaKind::kNext:
      return StrCat("next (", CanonicalFormulaKey(*f.left), ")");
    case FormulaKind::kEventually:
      return StrCat("eventually (", CanonicalFormulaKey(*f.left), ")");
    case FormulaKind::kUntil:
      return StrCat("(", CanonicalFormulaKey(*f.left), " until ",
                    CanonicalFormulaKey(*f.right), ")");
    case FormulaKind::kExists:
      return StrCat("exists ", StrJoin(f.vars, ","), " (",
                    CanonicalFormulaKey(*f.left), ")");
    case FormulaKind::kFreeze:
      return StrCat("[", f.freeze_var, " <- ", f.freeze_term.ToString(), "] (",
                    CanonicalFormulaKey(*f.left), ")");
    case FormulaKind::kLevel:
      return StrCat(f.level.ToString(), " (", CanonicalFormulaKey(*f.left), ")");
  }
  return f.ToString();  // Unreachable; keeps -Wswitch quiet without a default.
}

uint64_t FingerprintKey(std::string_view key) {
  // FNV-1a 64: offset basis / prime per the reference parameters.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : key) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace htl
