#ifndef HTL_HTL_FINGERPRINT_H_
#define HTL_HTL_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "htl/ast.h"

namespace htl {

/// Canonical cache key of `f`: the concrete-syntax serialization (which
/// carries constraint weights, literals and freeze terms verbatim; numbers
/// print as their shortest round-trip text) with the operands of the
/// commutative connectives `and` / `or` ordered by their own canonical
/// form. Two formulas with equal canonical keys evaluate to
/// bit-identical similarity lists: the engines combine `and` by IEEE
/// addition of actuals (or the fuzzy min of fractions) and `or` by max,
/// all symmetric at a single node, so swapping one node's operands never
/// reaches the result bits. Non-commutative operators (`until`, `next`,
/// quantifiers, level modalities) keep their order. Apply AFTER Rewrite():
/// the rewriter is idempotent and performs every other normalization, so
/// prepared queries that rewrite to the same shape share one key.
std::string CanonicalFormulaKey(const Formula& f);

/// FNV-1a 64-bit fingerprint of an arbitrary key string — stable across
/// processes and platforms.
uint64_t FingerprintKey(std::string_view key);

}  // namespace htl

#endif  // HTL_HTL_FINGERPRINT_H_
