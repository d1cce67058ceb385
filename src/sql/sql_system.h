#ifndef HTL_SQL_SQL_SYSTEM_H_
#define HTL_SQL_SQL_SYSTEM_H_

#include <map>
#include <string>

#include "sim/sim_list.h"
#include "sim/sim_table.h"
#include "sim/value_table.h"
#include "sql/executor.h"
#include "sql/translator.h"
#include "util/result.h"

namespace htl::sql {

/// The paper's "second system" (section 4): evaluates HTL formulas by
/// translating them to SQL and running the statements on the relational
/// engine. Loading (inputs + id domain) is split from execution so the
/// benchmark can time exactly what the paper timed — "the time for
/// executing the sequence of SQL queries".
class SqlSystem {
 public:
  SqlSystem() = default;

  Catalog& catalog() { return catalog_; }
  Executor& executor() { return executor_; }

  /// Loads the input interval relations named by `translation.inputs` from
  /// `inputs`, and the id domain relation seq(id) = {1..n}. Replaces any
  /// previous contents.
  Status LoadInputs(const Translation& translation,
                    const std::map<std::string, SimilarityList>& inputs, int64_t n);

  /// Executes the translation's statements in order and reads back the
  /// result relation as a similarity list.
  Result<SimilarityList> Run(const Translation& translation);

  /// Convenience: translate + load + run in one call (type (1): 0-ary
  /// predicate leaves keyed into `inputs`).
  Result<SimilarityList> Evaluate(const Formula& f,
                                  const std::map<std::string, SimilarityList>& inputs,
                                  int64_t n, const TranslateOptions& options = {});

  /// One named similarity-table input for the type (2) path.
  struct TableInput {
    SimilarityTable table;
    double max = 0;  // Static max of the atomic predicate.
  };

  /// Loads similarity-table inputs (relations with variable columns).
  Status LoadTableInputs(const Translation& translation,
                         const std::map<std::string, TableInput>& inputs, int64_t n);

  /// Convenience for type (2) and the full conjunctive class: similarity-
  /// table leaves (which may carry attribute-variable range columns) plus
  /// the value tables consumed by the formula's freeze quantifiers, keyed by
  /// the freeze term's ToString() (e.g. "height(z)"). A type (2) formula
  /// has no freeze quantifiers and passes no value tables.
  Result<SimilarityList> EvaluateConjunctive(
      const Formula& f, const std::map<std::string, TableInput>& inputs,
      const std::map<std::string, ValueTable>& values, int64_t n,
      const TranslateOptions& options = {});

 private:
  Catalog catalog_;
  Executor executor_{&catalog_};
};

}  // namespace htl::sql

#endif  // HTL_SQL_SQL_SYSTEM_H_
