#include "pattern/compile.h"

#include <algorithm>
#include <sstream>

namespace sqlts {
namespace {

/// Applies the enable_next ablation: keep shift, degrade next to the
/// always-sound 0/1 form.
void DegradeNext(SearchTables* tables) {
  for (size_t j = 1; j < tables->next.size(); ++j) {
    tables->next[j] =
        tables->shift[j] == static_cast<int>(j) ? 0 : 1;
    tables->presatisfied[j] = false;
  }
}

}  // namespace

StatusOr<PatternPlan> CompilePattern(const CompiledQuery& query,
                                     const CompileOptions& options) {
  const int m = query.pattern_length();
  if (m == 0) return Status::InvalidArgument("empty pattern");
  VariableCatalog catalog;
  std::vector<PredicateAnalysis> preds;
  std::vector<bool> star(m + 1, false);
  std::vector<ExprPtr> predicates(m + 1);
  // The GSW positive-domain mode (Sec 6: ratio atoms via the log
  // transform, plus x > 0 edges in the linear graph) assumes every
  // variable ranges over the strictly positive reals.  That holds only
  // when each column any predicate touches is declared POSITIVE, so the
  // gate is computed over all pattern predicates and applied to the
  // whole compile.  Conservative per-pattern granularity: one
  // non-positive column (grp = 0 is a satisfiable predicate!) disables
  // the mode for every element.
  bool all_positive = true;
  bool anchored = false;
  bool looks_ahead = false;
  int min_offset = 0;
  auto read_back = [&](const ColumnRef& r) {
    min_offset =
        std::min(min_offset, r.relative ? r.total_offset : r.nav_offset);
  };
  for (int i = 0; i < m; ++i) {
    const PatternElement& el = query.elements[i];
    star[i + 1] = el.star;
    predicates[i + 1] = el.predicate;
    if (el.predicate != nullptr) {
      VisitColumnRefs(el.predicate, [&](const ColumnRef& r) {
        if (r.column_index < 0 ||
            !query.input_schema.column(r.column_index).positive) {
          all_positive = false;
        }
        if (!r.relative) anchored = true;
        if (r.relative && r.total_offset > 0) looks_ahead = true;
        read_back(r);
      });
    }
    preds.push_back(
        AnalyzePredicate(el.predicate, query.input_schema, &catalog));
  }
  for (const SelectItem& item : query.select) {
    VisitColumnRefs(item.expr, read_back);
  }
  PatternPlan plan;
  plan.m = m;
  plan.star = std::move(star);
  plan.predicates = std::move(predicates);
  for (int j = 1; j <= m; ++j) plan.has_star |= plan.star[j];
  plan.anchored_refs = anchored;
  plan.min_offset = min_offset;
  plan.looks_ahead = looks_ahead;

  OracleOptions oracle_options = options.oracle;
  oracle_options.gsw.positive_domain &= all_positive;
  ImplicationOracle oracle(oracle_options);
  plan.matrices = BuildThetaPhi(preds, oracle);
  plan.analyses = std::move(preds);
  plan.tables = plan.has_star ? BuildStarTables(plan.matrices, plan.star)
                              : BuildStarFreeTables(plan.matrices);
  if (!options.enable_next) DegradeNext(&plan.tables);
  return plan;
}

std::string PatternPlan::ToString() const {
  std::ostringstream os;
  os << "pattern length m = " << m << (has_star ? " (with star)" : "")
     << "\n";
  os << "theta =\n" << matrices.theta.ToString();
  os << "phi =\n" << matrices.phi.ToString();
  if (!tables.s_matrix.empty()) {
    os << "S =\n" << tables.s_matrix.ToString(/*include_diagonal=*/false);
  }
  os << "j      :";
  for (int j = 1; j <= m; ++j) os << " " << j;
  os << "\nstar   :";
  for (int j = 1; j <= m; ++j) os << " " << (star[j] ? "*" : ".");
  os << "\nshift  :";
  for (int j = 1; j <= m; ++j) os << " " << tables.shift[j];
  os << "\nnext   :";
  for (int j = 1; j <= m; ++j) os << " " << tables.next[j];
  os << "\npresat :";
  for (int j = 1; j <= m; ++j) os << " " << (tables.presatisfied[j] ? "y" : ".");
  os << "\n";
  return os.str();
}

}  // namespace sqlts
