#ifndef HTL_SQL_TRANSLATOR_H_
#define HTL_SQL_TRANSLATOR_H_

#include <map>
#include <string>
#include <vector>

#include "htl/ast.h"
#include "util/result.h"

namespace htl::sql {

/// Tuning for the HTL → SQL translation.
struct TranslateOptions {
  /// Fractional threshold for the left operand of `until` (must match the
  /// direct engine's QueryOptions::until_threshold for result parity).
  double until_threshold = 0.5;
};

/// The result of translating one formula: an ordered SQL script computing
/// the similarity relation of the formula from input relations.
struct Translation {
  /// Input relations the caller must load before running: (predicate name,
  /// table name). A predicate with k argument variables loads as a relation
  /// with columns (<var1>, ..., <vark>[, <attr>_lo, <attr>_hi]..., beg,
  /// end, act) — one row per (binding[, range], interval entry); a 0-ary
  /// predicate without attribute variables is the plain interval relation
  /// (beg, end, act). The id domain relation `seq(id)` = {1..n} must be
  /// loaded too.
  std::vector<std::pair<std::string, std::string>> inputs;

  /// Value-table relations required by freeze quantifiers: (freeze-term
  /// key, table name), columns (<var>..., val, beg, end) — see
  /// TableFromValueTable.
  std::vector<std::pair<std::string, std::string>> value_inputs;

  /// Statements to execute in order (includes DROP TABLE IF EXISTS cleanup
  /// so a script can be re-run).
  std::vector<std::string> statements;

  /// Name of the final relation, columns (id, act): one row per segment
  /// with non-zero similarity — the expanded form of the similarity list.
  std::string result_table;

  /// Static max similarity of the whole formula (for list reconstruction).
  double result_max = 0;

  /// All statements joined with ";\n", a script ParseScript reads back.
  std::string Script() const;
};

/// Translates a type (2) formula — named-predicate leaves with object-
/// variable arguments, combined by and/or/next/eventually/until, with
/// existential quantifiers over the variables — into SQL, mirroring the
/// paper's SQL-based system ("it uses translations into SQL for computation
/// of the similarity tables for any conjunctive formula", section 4).
/// Type (1) formulas (0-ary predicates, no variables) are the special case
/// with no variable columns.
///
/// `input_max` gives each predicate's max similarity (thresholds and
/// per-operator maxima derive from it). `prefix` namespaces the generated
/// table names. The formula must be closed: every variable bound by an
/// exists.
///
/// Representation: every operator materializes an *expanded* relation
/// (<vars>..., id, act) — one row per (binding, covered segment). This is
/// what makes the translation expressible in plain SQL and why "the
/// intermediate relations may become quite large" (section 4).
///
/// Semantics note: one-sided rows of a join carry SQL NULL in the columns
/// of variables the contributing side does not bind; NULL never matches a
/// later equality join (the direct engine's wildcard rows, by contrast,
/// match anything). The two systems agree exactly whenever every leaf of
/// the formula uses the same variable tuple — in particular on all
/// variable-free (type (1)) formulas; for mixed-tuple formulas the SQL
/// result is a pointwise lower bound that drops only partially matched
/// cross-binding combinations.
Result<Translation> TranslateToSql(const Formula& f,
                                   const std::map<std::string, double>& input_max,
                                   const std::string& prefix,
                                   const TranslateOptions& options = {});

/// Schema information for the full conjunctive translation.
struct ConjunctiveSpec {
  struct Leaf {
    double max = 0;
    /// Attribute variables the leaf's similarity table constrains; its
    /// relation carries <v>_lo / <v>_hi columns for each (closed integer
    /// bounds, NULL for unbounded — section 3.3 restricts attribute-
    /// variable predicates to integer attributes).
    std::vector<std::string> attr_vars;
  };
  /// Per predicate name.
  std::map<std::string, Leaf> leaves;
  /// Object variables of each freeze term's value table, keyed by the
  /// term's ToString() (e.g. "height(z)" -> {"z"}).
  std::map<std::string, std::vector<std::string>> value_vars;
};

/// Translates a *conjunctive* formula — type (2) plus freeze quantifiers —
/// into SQL, realizing section 3.3's value-table join relationally
/// ("translations into SQL for computation of the similarity tables for any
/// conjunctive formula", section 4). Restrictions, reported as errors:
/// `until` operands must be free of attribute variables (a per-value chain
/// computation does not decompose into plain joins), and range bounds must
/// be integers. Range joins use the paper's inner intersection semantics;
/// the exactness caveats of TranslateToSql apply.
Result<Translation> TranslateConjunctiveToSql(const Formula& f,
                                              const ConjunctiveSpec& spec,
                                              const std::string& prefix,
                                              const TranslateOptions& options = {});

}  // namespace htl::sql

#endif  // HTL_SQL_TRANSLATOR_H_
