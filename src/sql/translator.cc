#include "sql/translator.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "util/string_util.h"

namespace htl::sql {

namespace {

// Rounds of pointer-doubling used to compute contiguous-run reach inside
// the `until` translation. Round r extends reach to runs of length 2^r, so
// 20 rounds handle runs up to 2^20 ids, far beyond any practical sequence.
// (Plain 1990s SQL has no recursion, so bounded unrolling is the honest
// translation.)
constexpr int kCoalesceRounds = 20;

bool IsSafeIdentifier(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  // Reserved relation column names and keywords that would collide.
  static const std::set<std::string>& reserved = *new std::set<std::string>{
      "id",  "act",   "beg",   "end",  "val",  "reach", "select", "from", "where",
      "and", "or",    "not",   "join", "on",   "group", "by",     "union",
      "all", "limit", "order", "as",   "in",   "between"};
  return reserved.count(AsciiToLower(name)) == 0;
}

std::string Lo(const std::string& v) { return v + "_lo"; }
std::string Hi(const std::string& v) { return v + "_hi"; }

std::vector<std::string> SortedUnion(const std::vector<std::string>& a,
                                     const std::vector<std::string>& b) {
  std::vector<std::string> out = a;
  for (const std::string& v : b) {
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Common(const std::vector<std::string>& a,
                                const std::vector<std::string>& b) {
  std::vector<std::string> out;
  for (const std::string& v : a) {
    if (std::find(b.begin(), b.end(), v) != b.end()) out.push_back(v);
  }
  return out;
}

bool Contains(const std::vector<std::string>& vs, const std::string& v) {
  return std::find(vs.begin(), vs.end(), v) != vs.end();
}

class Translator {
 public:
  Translator(const ConjunctiveSpec& spec, std::string prefix,
             const TranslateOptions& options)
      : spec_(spec), prefix_(std::move(prefix)), options_(options) {}

  Result<Translation> Run(const Formula& f) {
    HTL_ASSIGN_OR_RETURN(NodeResult root, Visit(f));
    if (!root.vars.empty() || !root.attr_vars.empty()) {
      return Status::InvalidArgument(
          StrCat("formula has unquantified variables (",
                 StrJoin(root.vars, ","), " ", StrJoin(root.attr_vars, ","),
                 "); SQL translation requires a closed formula"));
    }
    out_.result_table = root.table;
    out_.result_max = root.max;
    return std::move(out_);
  }

 private:
  struct NodeResult {
    std::string table;  // Relation (<vars>..., [<y>_lo, <y>_hi]..., id, act).
    double max = 0;
    std::vector<std::string> vars;       // Sorted object-variable columns.
    std::vector<std::string> attr_vars;  // Sorted attribute-variable columns.
  };

  std::string NewTable() { return StrCat(prefix_, "_t", ++counter_); }

  void Emit(std::string stmt) { out_.statements.push_back(std::move(stmt)); }

  // DROP + CREATE TABLE <name> AS <select>.
  std::string Materialize(const std::string& select) {
    std::string name = NewTable();
    Emit(StrCat("DROP TABLE IF EXISTS ", name));
    Emit(StrCat("CREATE TABLE ", name, " AS ", select));
    return name;
  }

  // "a.x AS x, " for owned columns, "NULL AS x, " otherwise; attr vars
  // expand to their _lo/_hi pair.
  static std::string ProjectCols(const std::vector<std::string>& out_vars,
                                 const std::vector<std::string>& out_attrs,
                                 const std::vector<std::string>& have_vars,
                                 const std::vector<std::string>& have_attrs,
                                 const std::string& alias) {
    std::string cols;
    for (const std::string& v : out_vars) {
      cols += Contains(have_vars, v) ? StrCat(alias, ".", v, " AS ", v, ", ")
                                     : StrCat("NULL AS ", v, ", ");
    }
    for (const std::string& y : out_attrs) {
      if (Contains(have_attrs, y)) {
        cols += StrCat(alias, ".", Lo(y), " AS ", Lo(y), ", ", alias, ".", Hi(y),
                       " AS ", Hi(y), ", ");
      } else {
        cols += StrCat("NULL AS ", Lo(y), ", NULL AS ", Hi(y), ", ");
      }
    }
    return cols;
  }

  // Bare "x, x_lo, x_hi, " column list (same relation).
  static std::string PlainCols(const std::vector<std::string>& vars,
                               const std::vector<std::string>& attrs,
                               const std::string& alias = "") {
    std::string cols;
    const std::string dot = alias.empty() ? "" : alias + ".";
    for (const std::string& v : vars) cols += StrCat(dot, v, ", ");
    for (const std::string& y : attrs) cols += StrCat(dot, Lo(y), ", ", dot, Hi(y), ", ");
    return cols;
  }

  // " AND r.x = l.x ..." over common object variables.
  static std::string VarEqualities(const std::vector<std::string>& common,
                                   const std::string& left, const std::string& right) {
    std::string cond;
    for (const std::string& v : common) {
      cond += StrCat(" AND ", right, ".", v, " = ", left, ".", v);
    }
    return cond;
  }

  // " AND (a.y_lo IS NULL OR b.y_hi IS NULL OR a.y_lo <= b.y_hi) AND ..."
  // — ranges must intersect, over common attribute variables.
  static std::string RangeCompat(const std::vector<std::string>& common,
                                 const std::string& a, const std::string& b) {
    std::string cond;
    for (const std::string& y : common) {
      cond += StrCat(" AND (", a, ".", Lo(y), " IS NULL OR ", b, ".", Hi(y),
                     " IS NULL OR ", a, ".", Lo(y), " <= ", b, ".", Hi(y), ")");
      cond += StrCat(" AND (", b, ".", Lo(y), " IS NULL OR ", a, ".", Hi(y),
                     " IS NULL OR ", b, ".", Lo(y), " <= ", a, ".", Hi(y), ")");
    }
    return cond;
  }

  // The three-branch outer combination shared by AND and OR, now with
  // attribute-variable range columns: matched pairs intersect ranges.
  Result<NodeResult> OuterCombine(const NodeResult& l, const NodeResult& r,
                                  const std::string& matched_act, double out_max) {
    const std::vector<std::string> out_vars = SortedUnion(l.vars, r.vars);
    const std::vector<std::string> out_attrs = SortedUnion(l.attr_vars, r.attr_vars);
    const std::vector<std::string> common_v = Common(l.vars, r.vars);
    const std::vector<std::string> common_a = Common(l.attr_vars, r.attr_vars);
    const std::string on = StrCat("b.id = a.id", VarEqualities(common_v, "a", "b"),
                                  RangeCompat(common_a, "a", "b"));
    // Matched branch columns.
    std::string matched_cols;
    for (const std::string& v : out_vars) {
      matched_cols += StrCat(Contains(l.vars, v) ? "a." : "b.", v, " AS ", v, ", ");
    }
    for (const std::string& y : out_attrs) {
      const bool in_l = Contains(l.attr_vars, y);
      const bool in_r = Contains(r.attr_vars, y);
      if (in_l && in_r) {
        // Intersection with NULL = unbounded: GREATEST/LEAST return NULL if
        // any argument is NULL, so fall back through COALESCE.
        matched_cols += StrCat("COALESCE(GREATEST(a.", Lo(y), ", b.", Lo(y), "), a.",
                               Lo(y), ", b.", Lo(y), ") AS ", Lo(y), ", ");
        matched_cols += StrCat("COALESCE(LEAST(a.", Hi(y), ", b.", Hi(y), "), a.",
                               Hi(y), ", b.", Hi(y), ") AS ", Hi(y), ", ");
      } else {
        const char* side = in_l ? "a." : "b.";
        matched_cols += StrCat(side, Lo(y), " AS ", Lo(y), ", ", side, Hi(y), " AS ",
                               Hi(y), ", ");
      }
    }
    std::string t = Materialize(StrCat(
        "SELECT ", matched_cols, "a.id AS id, ", matched_act, " AS act FROM ", l.table,
        " a JOIN ", r.table, " b ON ", on,
        " UNION ALL SELECT ",
        ProjectCols(out_vars, out_attrs, l.vars, l.attr_vars, "a"),
        "a.id AS id, a.act AS act FROM ", l.table, " a LEFT JOIN ", r.table, " b ON ",
        on, " WHERE b.id IS NULL",
        " UNION ALL SELECT ",
        ProjectCols(out_vars, out_attrs, r.vars, r.attr_vars, "b"),
        "b.id AS id, b.act AS act FROM ", r.table, " b LEFT JOIN ", l.table, " a ON ",
        StrCat("a.id = b.id", VarEqualities(common_v, "b", "a"),
               RangeCompat(common_a, "b", "a")),
        " WHERE a.id IS NULL"));
    return NodeResult{t, out_max, out_vars, out_attrs};
  }

  Result<NodeResult> Visit(const Formula& f) {
    switch (f.kind) {
      case FormulaKind::kConstraint:
        return VisitLeaf(f);
      case FormulaKind::kAnd: {
        HTL_ASSIGN_OR_RETURN(NodeResult l, Visit(*f.left));
        HTL_ASSIGN_OR_RETURN(NodeResult r, Visit(*f.right));
        return OuterCombine(l, r, "a.act + b.act", l.max + r.max);
      }
      case FormulaKind::kOr: {
        HTL_ASSIGN_OR_RETURN(NodeResult l, Visit(*f.left));
        HTL_ASSIGN_OR_RETURN(NodeResult r, Visit(*f.right));
        return OuterCombine(l, r, "GREATEST(a.act, b.act)", std::max(l.max, r.max));
      }
      case FormulaKind::kNext: {
        HTL_ASSIGN_OR_RETURN(NodeResult l, Visit(*f.left));
        std::string t = Materialize(StrCat("SELECT ", PlainCols(l.vars, l.attr_vars),
                                           "id - 1 AS id, act FROM ", l.table,
                                           " WHERE id >= 2"));
        return NodeResult{t, l.max, l.vars, l.attr_vars};
      }
      case FormulaKind::kEventually: {
        HTL_ASSIGN_OR_RETURN(NodeResult l, Visit(*f.left));
        // Per (binding, range) suffix max — matches the direct engine's
        // per-row Eventually.
        const std::string group = PlainCols(l.vars, l.attr_vars, "f");
        std::string cols;
        for (const std::string& v : l.vars) cols += StrCat("f.", v, " AS ", v, ", ");
        for (const std::string& y : l.attr_vars) {
          cols += StrCat("f.", Lo(y), " AS ", Lo(y), ", f.", Hi(y), " AS ", Hi(y), ", ");
        }
        std::string t = Materialize(StrCat(
            "SELECT ", cols, "s.id AS id, MAX(f.act) AS act FROM ", l.table,
            " f JOIN seq s ON s.id <= f.id GROUP BY ", group, "s.id"));
        return NodeResult{t, l.max, l.vars, l.attr_vars};
      }
      case FormulaKind::kUntil:
        return VisitUntil(f);
      case FormulaKind::kExists: {
        HTL_ASSIGN_OR_RETURN(NodeResult l, Visit(*f.left));
        std::vector<std::string> kept;
        for (const std::string& v : l.vars) {
          if (!Contains(f.vars, v)) kept.push_back(v);
        }
        const std::string cols = PlainCols(kept, l.attr_vars);
        std::string t = Materialize(StrCat("SELECT ", cols, "id, MAX(act) AS act FROM ",
                                           l.table, " GROUP BY ", cols, "id"));
        return NodeResult{t, l.max, kept, l.attr_vars};
      }
      case FormulaKind::kFreeze:
        return VisitFreeze(f);
      default:
        return Status::InvalidArgument(
            StrCat("not SQL-translatable (conjunctive named-predicate formulas): ",
                   f.ToString()));
    }
  }

  Result<NodeResult> VisitLeaf(const Formula& f) {
    if (f.constraint.kind != Constraint::Kind::kPredicate) {
      return Status::InvalidArgument(
          StrCat("SQL translation expects named predicates as leaves, got: ",
                 f.constraint.ToString()));
    }
    const std::string& name = f.constraint.pred_name;
    auto it = spec_.leaves.find(name);
    if (it == spec_.leaves.end()) {
      return Status::NotFound(
          StrCat("no input spec registered for predicate '", name, "'"));
    }
    std::vector<std::string> vars = f.constraint.pred_args;
    std::sort(vars.begin(), vars.end());
    if (std::adjacent_find(vars.begin(), vars.end()) != vars.end()) {
      return Status::InvalidArgument(
          StrCat("repeated variable in predicate ", name, "(...)"));
    }
    std::vector<std::string> attrs = it->second.attr_vars;
    std::sort(attrs.begin(), attrs.end());
    for (const std::string& v : vars) {
      if (!IsSafeIdentifier(v)) {
        return Status::InvalidArgument(
            StrCat("variable '", v, "' is not usable as a SQL column"));
      }
    }
    for (const std::string& y : attrs) {
      if (!IsSafeIdentifier(y)) {
        return Status::InvalidArgument(
            StrCat("attribute variable '", y, "' is not usable as a SQL column"));
      }
    }
    const std::string input = StrCat(prefix_, "_in_", name);
    bool known = false;
    for (const auto& [pred, table] : out_.inputs) known |= pred == name;
    if (!known) out_.inputs.emplace_back(name, input);
    std::string t = Materialize(StrCat("SELECT ", PlainCols(vars, attrs, "a"),
                                       "s.id AS id, a.act AS act FROM ", input,
                                       " a JOIN seq s ON s.id >= a.beg AND s.id <= "
                                       "a.end"));
    return NodeResult{t, it->second.max, std::move(vars), std::move(attrs)};
  }

  Result<NodeResult> VisitUntil(const Formula& f) {
    HTL_ASSIGN_OR_RETURN(NodeResult g, Visit(*f.left));
    HTL_ASSIGN_OR_RETURN(NodeResult h, Visit(*f.right));
    if (!g.attr_vars.empty() || !h.attr_vars.empty()) {
      return Status::Unimplemented(
          "until over attribute-variable operands is not SQL-translatable "
          "(the per-value chain computation does not decompose into joins)");
    }
    const double cutoff = options_.until_threshold * g.max;
    const std::vector<std::string> out_vars = SortedUnion(g.vars, h.vars);
    const std::vector<std::string> common = Common(g.vars, h.vars);
    const std::string gcols = PlainCols(g.vars, {});
    // 1. Ids (per binding) where g clears the threshold.
    std::string gth = Materialize(StrCat("SELECT DISTINCT ", gcols, "id FROM ", g.table,
                                         " WHERE act >= ", FormatFixed(cutoff, 12)));
    // 2. reach(binding, id) by pointer doubling within each binding.
    std::string reach = Materialize(StrCat("SELECT ", gcols, "id, id AS reach FROM ",
                                           gth));
    for (int round = 0; round < kCoalesceRounds; ++round) {
      std::string acols;
      for (const std::string& v : g.vars) acols += StrCat("a.", v, " AS ", v, ", ");
      reach = Materialize(StrCat(
          "SELECT ", acols, "a.id AS id, COALESCE(b.reach, a.reach) AS reach FROM ",
          reach, " a LEFT JOIN ", reach, " b ON b.id = a.reach + 1",
          VarEqualities(g.vars, "a", "b")));
    }
    // 3. Best h reachable within the run extended by one.
    std::string sel_cols, group_cols;
    for (const std::string& v : out_vars) {
      const char* side = Contains(g.vars, v) ? "g." : "h.";
      sel_cols += StrCat(side, v, " AS ", v, ", ");
      group_cols += StrCat(side, v, ", ");
    }
    std::string contrib = Materialize(StrCat(
        "SELECT ", sel_cols, "g.id AS id, MAX(h.act) AS act FROM ", reach, " g JOIN ",
        h.table, " h ON h.id >= g.id AND h.id <= g.reach + 1",
        VarEqualities(common, "g", "h"), " GROUP BY ", group_cols, "g.id"));
    // 4. Plus h alone (the u'' == u case), max-merged per (binding, id).
    std::string unioned = Materialize(StrCat(
        "SELECT ", PlainCols(out_vars, {}, "c"), "c.id AS id, c.act AS act FROM ",
        contrib, " c UNION ALL SELECT ", ProjectCols(out_vars, {}, h.vars, {}, "h"),
        "h.id AS id, h.act AS act FROM ", h.table, " h"));
    const std::string plain = PlainCols(out_vars, {});
    std::string t = Materialize(StrCat("SELECT ", plain, "id, MAX(act) AS act FROM ",
                                       unioned, " GROUP BY ", plain, "id"));
    return NodeResult{t, h.max, out_vars, {}};
  }

  Result<NodeResult> VisitFreeze(const Formula& f) {
    HTL_ASSIGN_OR_RETURN(NodeResult body, Visit(*f.left));
    const std::string& y = f.freeze_var;
    if (!Contains(body.attr_vars, y)) return body;  // Variable unused.
    const std::string term_key = f.freeze_term.ToString();
    auto vit = spec_.value_vars.find(term_key);
    if (vit == spec_.value_vars.end()) {
      return Status::NotFound(
          StrCat("no value table registered for freeze term '", term_key, "'"));
    }
    std::vector<std::string> vvars = vit->second;
    std::sort(vvars.begin(), vvars.end());
    for (const std::string& v : vvars) {
      if (!IsSafeIdentifier(v)) {
        return Status::InvalidArgument(
            StrCat("value-table variable '", v, "' is not usable as a SQL column"));
      }
    }
    // Register and expand the value relation over the id domain.
    const std::string vin = StrCat(prefix_, "_val", ++value_counter_);
    out_.value_inputs.emplace_back(term_key, vin);
    std::string vexp = Materialize(StrCat(
        "SELECT ", PlainCols(vvars, {}, "r"), "r.val AS val, s.id AS id FROM ", vin,
        " r JOIN seq s ON s.id >= r.beg AND s.id <= r.end"));

    const std::vector<std::string> out_vars = SortedUnion(body.vars, vvars);
    std::vector<std::string> out_attrs;
    for (const std::string& a : body.attr_vars) {
      if (a != y) out_attrs.push_back(a);
    }
    const std::vector<std::string> common_v = Common(body.vars, vvars);

    // Bounded rows join the value table at their own id ("the value of q at
    // u"); rows with both bounds NULL are unconstrained and pass through
    // (the value of q, defined or not, is irrelevant).
    std::string join_cols;
    for (const std::string& v : out_vars) {
      join_cols += StrCat(Contains(body.vars, v) ? "t." : "v.", v, " AS ", v, ", ");
    }
    for (const std::string& a : out_attrs) {
      join_cols += StrCat("t.", Lo(a), " AS ", Lo(a), ", t.", Hi(a), " AS ", Hi(a),
                          ", ");
    }
    std::string joined = Materialize(StrCat(
        "SELECT ", join_cols, "t.id AS id, t.act AS act FROM ", body.table,
        " t JOIN ", vexp, " v ON v.id = t.id", VarEqualities(common_v, "t", "v"),
        " AND (t.", Lo(y), " IS NULL OR v.val >= t.", Lo(y), ")",
        " AND (t.", Hi(y), " IS NULL OR v.val <= t.", Hi(y), ")",
        " WHERE t.", Lo(y), " IS NOT NULL OR t.", Hi(y), " IS NOT NULL",
        " UNION ALL SELECT ",
        ProjectCols(out_vars, out_attrs, body.vars, out_attrs, "t"),
        "t.id AS id, t.act AS act FROM ", body.table, " t WHERE t.", Lo(y),
        " IS NULL AND t.", Hi(y), " IS NULL"));
    // Dedup: several values of q may land in a row's range.
    const std::string plain = PlainCols(out_vars, out_attrs);
    std::string t = Materialize(StrCat("SELECT ", plain, "id, MAX(act) AS act FROM ",
                                       joined, " GROUP BY ", plain, "id"));
    return NodeResult{t, body.max, out_vars, out_attrs};
  }

  const ConjunctiveSpec& spec_;
  const std::string prefix_;
  const TranslateOptions options_;
  Translation out_;
  int counter_ = 0;
  int value_counter_ = 0;
};

}  // namespace

std::string Translation::Script() const { return StrJoin(statements, ";\n"); }

Result<Translation> TranslateToSql(const Formula& f,
                                   const std::map<std::string, double>& input_max,
                                   const std::string& prefix,
                                   const TranslateOptions& options) {
  ConjunctiveSpec spec;
  for (const auto& [name, max] : input_max) {
    spec.leaves[name] = ConjunctiveSpec::Leaf{max, {}};
  }
  Translator t(spec, prefix, options);
  return t.Run(f);
}

Result<Translation> TranslateConjunctiveToSql(const Formula& f,
                                              const ConjunctiveSpec& spec,
                                              const std::string& prefix,
                                              const TranslateOptions& options) {
  Translator t(spec, prefix, options);
  return t.Run(f);
}

}  // namespace htl::sql
