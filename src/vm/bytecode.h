#ifndef HTL_VM_BYTECODE_H_
#define HTL_VM_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "htl/ast.h"
#include "htl/classifier.h"
#include "picture/atomic.h"

namespace htl {
namespace vm {

/// One opcode per evaluation-node kind of the tree-walk interpreter
/// (engine/direct_engine.cc EvalNode), plus kEnter/kEmit framing. The
/// instruction stream is the interpreter's recursion linearized in
/// post-order: for every formula node the compiler emits one kEnter
/// (depth-budget poll + optional similarity-list-cache probe) followed by
/// the node's children and then its compute opcode — so depth charges,
/// row/table charges, fault points, cache traffic, and obs spans would fire
/// in exactly the interpreter's order. No executor runs the stream
/// (DESIGN.md "One executor"); the compiler (vm/compiler.cc) and the
/// disassembler (vm/disasm.cc) handle every enumerator.
enum class OpCode : uint8_t {
  kEnter,           // Depth poll; cache probe when key >= 0 (hit jumps skip_to).
  kLoadAtomic,      // dst <- picture query (atomic-table cache), clipped to bounds.
  kLoadTrue,        // dst <- {bounds : 1.0}.
  kLoadFalse,       // dst <- empty.
  kAndMerge,        // dst <- lhs ∧ rhs (sum or fuzzy-min per kFlagFuzzy).
  kOrMerge,         // dst <- lhs ∨ rhs (max-merge).
  kUntilMerge,      // dst <- lhs U rhs (threshold sweep).
  kNextShift,       // dst <- next(lhs), clipped to bounds.
  kEventually,      // dst <- eventually(lhs).
  kExistsCollapse,  // dst <- lhs with quantified columns collapsed.
  kFreezeJoin,      // dst <- lhs joined with the value table of its term.
  kNegate,          // dst <- complement(lhs) over bounds (closed only).
  kLevelEval,       // dst <- body subprogram swept over descendant sequences.
  kEmit,            // Finish: the result is register lhs.
};

const char* OpCodeName(OpCode op);

/// Instruction flags.
enum : uint8_t {
  /// dst is a list register (closed subformula — the arena fast path);
  /// unset means dst is a SimilarityTable register (free variables).
  kFlagList = 1 << 0,
  /// kAndMerge combines with fuzzy-min semantics (QueryOptions baked in at
  /// compile time; the options fingerprint keys the caches).
  kFlagFuzzy = 1 << 1,
  /// Common-sub-plan duplicate (same canonical fingerprint as an earlier
  /// node): dst already holds the value when the defining occurrence ran,
  /// so the kernel may be skipped — but charges, fault points, counters and
  /// spans still fire so the event stream stays identical.
  kFlagMaySkip = 1 << 2,
};

struct Instruction {
  OpCode op = OpCode::kEnter;
  uint8_t flags = 0;
  uint16_t dst = 0;   // Result register.
  uint16_t lhs = 0;   // First operand register.
  uint16_t rhs = 0;   // Second operand register (joins only).
  int32_t aux = -1;   // Pool index: atomics / freezes / exists_sets / levels.
  int32_t key = -1;   // Index into keys (canonical fingerprint), -1 = uncacheable.
  int32_t skip_to = -1;  // kEnter probe hit: continue at this pc.
  double static_max = 0.0;   // MaxSimilarity of this node.
  double lhs_max = 0.0;      // MaxSimilarity of the left child (joins/negate).
  double rhs_max = 0.0;      // MaxSimilarity of the right child (joins).

  bool is_list() const { return (flags & kFlagList) != 0; }
  bool fuzzy() const { return (flags & kFlagFuzzy) != 0; }
  bool may_skip() const { return (flags & kFlagMaySkip) != 0; }
};

/// One maximal atomic subtree: the picture query payload plus the exact
/// text key the interpreter uses for its per-engine atomic-table cache.
struct AtomicSlot {
  AtomicFormula atomic;
  std::string text;  // f.ToString() of the subtree — the cache key.
};

/// One freeze join: variable, value term, and the term's cache text.
struct FreezeSlot {
  std::string var;
  AttrTerm term;
  std::string term_text;  // term.ToString() — the value-table cache key.
};

/// One level-modal operator: spec resolved per video at runtime, body
/// compiled as a subprogram executed per parent position.
struct LevelSlot {
  LevelSpec spec;
  int subprogram = -1;
  double body_max = 0.0;
};

/// Whether a register holds an arena list (closed node) or a
/// SimilarityTable (free variables) — fixed at compile time.
struct RegisterInfo {
  bool is_list = false;
  double static_max = 0.0;
};

/// A compiled formula: flat instruction stream plus the constant pools.
/// Compiled once per (engine, formula text); immutable afterwards, so one
/// program may be executed concurrently by readers (DirectEngine
/// serializes per video slot anyway). Owns deep copies of everything it
/// needs — no pointers into the source Formula survive compilation.
struct Program {
  std::vector<Instruction> code;
  std::vector<AtomicSlot> atomics;
  std::vector<FreezeSlot> freezes;
  std::vector<std::vector<std::string>> exists_sets;
  std::vector<LevelSlot> levels;
  std::vector<std::string> keys;  // Canonical fingerprints for cache probes.
  std::vector<Program> subprograms;  // Level-operator bodies.
  std::vector<RegisterInfo> registers;
  /// Node text per pc (empty for kEnter/kEmit) — disassembly labels only.
  std::vector<std::string> node_text;

  uint16_t root_reg = 0;
  double root_max = 0.0;          // MaxSimilarity of the whole formula.
  std::string formula_text;       // ToString() of the compiled formula.
  FormulaClass formula_class = FormulaClass::kType1;

  int num_registers() const { return static_cast<int>(registers.size()); }
};

/// Human-readable program listing for goldens (tests/integration/golden/):
/// registers, instruction stream with operands and maxima, constant pools,
/// and subprograms indented beneath their parent. Stable across runs.
std::string Disassemble(const Program& program);

}  // namespace vm
}  // namespace htl

#endif  // HTL_VM_BYTECODE_H_
