#ifndef SQLTS_ANALYSIS_LINTER_H_
#define SQLTS_ANALYSIS_LINTER_H_

#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "common/statusor.h"
#include "parser/analyzer.h"
#include "pattern/compile.h"
#include "pattern/theta_phi.h"

namespace sqlts {

/// Knobs for the static query analyzer.  The GSW positive-domain mode
/// is gated per-query exactly like pattern compilation: it only stays
/// on when every column the pattern (or a hoisted cluster filter)
/// touches is declared POSITIVE.
struct LintOptions {
  OracleOptions oracle;
};

/// The analyzer's verdicts over one compiled query.
struct LintResult {
  std::vector<Diagnostic> diagnostics;

  bool has_errors() const;
  bool has_warnings() const;
  /// Diagnostics with the given code, in emission order.
  std::vector<Diagnostic> with_code(std::string_view code) const;
};

/// Statically analyzes a resolved query between semantic analysis
/// (parser/analyzer.h) and pattern compilation (pattern/compile.h),
/// reusing the θ/φ implication oracle — GSW difference-constraint
/// closure, interval sets, and the 3VL nullable gating — to prove:
///
/// E-codes (the query provably returns zero rows):
///   E001  an element's predicate is unsatisfiable (alone or under the
///         SEQUENCE BY ordering axioms)
///   E002  consecutive non-star elements' combined constraints
///         contradict under the difference-graph closure
///   E003  a hoisted cluster filter contradicts an element predicate
///   E004  a star group's continuation predicate is unsatisfiable while
///         a later non-star element requires the group non-empty
///   E005  a hoisted cluster filter is itself unsatisfiable
///
/// W-codes (wasted work; results provably unaffected):
///   W001  a conjunct is implied by its sibling conjuncts (redundant)
///   W002  an explicitly written always-true conjunct
///   W003  FIRST()/LAST() applied to a non-star element in SELECT
///   W004  a comparison already entailed by the SEQUENCE BY ordering
///   W005  LIMIT 0 discards every match
///   W006  a star element's predicate is unsatisfiable (group always
///         empty) without any element requiring it
///
/// Every answer is conservative: an E-code is a theorem ("this query
/// cannot match"), checked continuously against the naive execution
/// oracle by the differential fuzzer.
LintResult LintQuery(const CompiledQuery& query,
                     const LintOptions& options = {});

/// Convenience: parse + analyze + lint.  Fails only when the query does
/// not compile (parse/semantic errors); lint findings are in the result.
StatusOr<LintResult> LintQueryText(std::string_view text,
                                   const Schema& schema,
                                   const LintOptions& options = {});

/// "[E001] message; [E003] message" — for refusal Status messages.
std::string SummarizeErrors(const LintResult& result);

/// The executors' CompileOptions::refuse_provably_empty gate: OK unless
/// that option is set and the linter proves the query returns zero
/// rows, which yields InvalidArgument("query is provably empty: ...").
Status RefuseProvablyEmpty(const CompiledQuery& query,
                           const CompileOptions& options);

}  // namespace sqlts

#endif  // SQLTS_ANALYSIS_LINTER_H_
