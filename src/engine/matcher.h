#ifndef SQLTS_ENGINE_MATCHER_H_
#define SQLTS_ENGINE_MATCHER_H_

#include <vector>

#include "common/governance.h"
#include "engine/match.h"
#include "engine/shared_eval.h"
#include "pattern/compile.h"
#include "storage/sequence.h"

namespace sqlts {

/// Search knobs shared by the matchers.
struct SearchOptions {
  /// Stop after this many matches (0 = unlimited).  Early exit is exact:
  /// the first `max_matches` left-maximal matches are returned.
  int64_t max_matches = 0;
  /// When set (not owned; must outlive the search), the advance loop
  /// polls cancellation every iteration and the deadline periodically,
  /// returning the matches found so far on trigger.  The caller is
  /// expected to re-check governance and discard the partial result.
  const ExecGovernance* governance = nullptr;
  /// When set (not owned; must outlive the search), element predicate
  /// tests are delegated to this evaluator instead of evaluating
  /// plan.predicates[j] directly — the multi-query seam (shared
  /// per-tuple memoization across queries; see engine/shared_eval.h).
  /// The delegate must be answer-preserving, so results and stats stay
  /// bit-identical.
  ElementEvaluator* evaluator = nullptr;
  /// When set (not owned; must outlive the search), a bitmap over
  /// sequence positions — LSB-first 64-bit words, bit p of word p/64 —
  /// marking the attempt-start positions that can possibly begin a
  /// match.  The matchers advance every (re)start to the next set bit,
  /// never attempting a cleared position.  The caller must guarantee
  /// soundness (a cleared bit proves no match starts there; the
  /// columnar probe planner derives this from the anchor element's
  /// vectorized verdicts) and supply at least ceil(size/64) words.
  /// Match rows are unchanged; evaluation counts shrink.
  const std::vector<uint64_t>* candidate_starts = nullptr;
};

/// Baseline backtracking search (the paper's "naive algorithm"): try a
/// greedy match at every start position; on failure restart one tuple
/// later.  Matches are reported left-maximally (scan left to right;
/// after a match, resume after its last tuple).
///
/// `trace`, when non-null, records every predicate test for the
/// Figure-5 path curves.
std::vector<Match> NaiveSearch(const SequenceView& seq,
                               const PatternPlan& plan, SearchStats* stats,
                               SearchTrace* trace = nullptr,
                               const SearchOptions& options = {});

/// The paper's OPS algorithm (Sec 4.2.1 for star-free patterns, Sec 5's
/// counter-based generalization for star patterns), driven by the
/// compiled shift/next tables: the OpsCore state machine
/// (engine/ops_core.h) run over the whole buffered sequence, then closed
/// at end of input.  Produces exactly the same matches as NaiveSearch
/// while testing far fewer (input, element) pairs.
std::vector<Match> OpsSearch(const SequenceView& seq,
                             const PatternPlan& plan, SearchStats* stats,
                             SearchTrace* trace = nullptr,
                             const SearchOptions& options = {});

}  // namespace sqlts

#endif  // SQLTS_ENGINE_MATCHER_H_
