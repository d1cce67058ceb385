#include "sql/sql_system.h"

#include "sql/bridge.h"
#include "util/string_util.h"

namespace htl::sql {

Status SqlSystem::LoadInputs(const Translation& translation,
                             const std::map<std::string, SimilarityList>& inputs,
                             int64_t n) {
  for (const auto& [pred, table] : translation.inputs) {
    auto it = inputs.find(pred);
    if (it == inputs.end()) {
      return Status::NotFound(StrCat("no input list for predicate '", pred, "'"));
    }
    catalog_.CreateOrReplace(table, TableFromList(it->second));
  }
  catalog_.CreateOrReplace("seq", MakeSeqTable(n));
  return Status::OK();
}

Result<SimilarityList> SqlSystem::Run(const Translation& translation) {
  for (const std::string& stmt : translation.statements) {
    HTL_RETURN_IF_ERROR(executor_.ExecuteSql(stmt).status());
  }
  HTL_ASSIGN_OR_RETURN(const Table* result, catalog_.Get(translation.result_table));
  return ListFromExpandedTable(*result, translation.result_max);
}

Status SqlSystem::LoadTableInputs(const Translation& translation,
                                  const std::map<std::string, TableInput>& inputs,
                                  int64_t n) {
  for (const auto& [pred, table] : translation.inputs) {
    auto it = inputs.find(pred);
    if (it == inputs.end()) {
      return Status::NotFound(StrCat("no input table for predicate '", pred, "'"));
    }
    HTL_ASSIGN_OR_RETURN(Table relation, TableFromSimilarityTable(it->second.table));
    catalog_.CreateOrReplace(table, std::move(relation));
  }
  catalog_.CreateOrReplace("seq", MakeSeqTable(n));
  return Status::OK();
}

Result<SimilarityList> SqlSystem::EvaluateConjunctive(
    const Formula& f, const std::map<std::string, TableInput>& inputs,
    const std::map<std::string, ValueTable>& values, int64_t n,
    const TranslateOptions& options) {
  ConjunctiveSpec spec;
  for (const auto& [name, input] : inputs) {
    spec.leaves[name] = ConjunctiveSpec::Leaf{input.max, input.table.attr_vars()};
  }
  for (const auto& [key, table] : values) {
    spec.value_vars[key] = table.object_vars();
  }
  HTL_ASSIGN_OR_RETURN(Translation translation,
                       TranslateConjunctiveToSql(f, spec, "q", options));
  HTL_RETURN_IF_ERROR(LoadTableInputs(translation, inputs, n));
  for (const auto& [key, table_name] : translation.value_inputs) {
    auto it = values.find(key);
    if (it == values.end()) {
      return Status::NotFound(StrCat("no value table for freeze term '", key, "'"));
    }
    catalog_.CreateOrReplace(table_name, TableFromValueTable(it->second));
  }
  return Run(translation);
}

Result<SimilarityList> SqlSystem::Evaluate(
    const Formula& f, const std::map<std::string, SimilarityList>& inputs, int64_t n,
    const TranslateOptions& options) {
  std::map<std::string, double> input_max;
  for (const auto& [name, list] : inputs) input_max[name] = list.max();
  HTL_ASSIGN_OR_RETURN(Translation translation, TranslateToSql(f, input_max, "q", options));
  HTL_RETURN_IF_ERROR(LoadInputs(translation, inputs, n));
  return Run(translation);
}

}  // namespace htl::sql
