#ifndef HTL_VM_COMPILER_H_
#define HTL_VM_COMPILER_H_

#include "engine/query_options.h"
#include "htl/ast.h"
#include "util/result.h"
#include "vm/bytecode.h"

namespace htl {
namespace vm {

/// Compiles a bound, rewritten formula into a register program. Nothing
/// executes programs (DESIGN.md "One executor"): the compiler and the
/// disassembler remain only because bench_e2e times this call for its
/// `vm.compile_us` layer metric.
///
/// What the compiler bakes in:
///   - Register typing: a register is an arena similarity list iff the
///     node's *static* variable schema is empty, a SimilarityTable
///     otherwise. Runtime schemas can only shrink below the static set
///     (an unused freeze variable passes through; a level body can come
///     back column-free), so the static set is a sound upper bound — a
///     table register may carry a var-free table, never the reverse.
///     Schema-sensitive behavior (the kNegate closedness check, the
///     top-level free-variable error) therefore stays at runtime, on the
///     runtime table, exactly like the interpreter.
///   - Static maxima: MaxSimilarity() of every node and its children,
///     because the engine invariant (sim/sim_table.h CheckInvariants)
///     guarantees runtime list maxima equal the static values.
///   - Options: and-semantics (kFlagFuzzy) and cache eligibility; the
///     options fingerprint keys the result caches, so one program serves
///     one option set.
///   - Common sub-plans: closed, level-free duplicate subtrees (equal
///     PR-5 canonical fingerprints) share destination registers; the
///     duplicate's instructions carry kFlagMaySkip, which skips the kernel
///     when the value is already computed while still firing the
///     interpreter's charges, counters, spans and fault points.
///
/// Fails only on formulas the interpreter would also reject structurally;
/// per-video errors (budgets, level resolution, open negation) surface at
/// execution time with the interpreter's exact status.
Result<Program> Compile(const Formula& f, const QueryOptions& options);

}  // namespace vm
}  // namespace htl

#endif  // HTL_VM_COMPILER_H_
