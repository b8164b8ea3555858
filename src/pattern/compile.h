#ifndef SQLTS_PATTERN_COMPILE_H_
#define SQLTS_PATTERN_COMPILE_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "constraints/catalog.h"
#include "parser/analyzer.h"
#include "pattern/shift_next.h"
#include "pattern/star_graph.h"
#include "pattern/theta_phi.h"

namespace sqlts {

/// Compilation knobs; the defaults give the full OPS optimizer.  The
/// ablation benchmarks flip these.
struct CompileOptions {
  OracleOptions oracle;
  /// When false, `next` degrades to 0/1 (shift-only optimization) — the
  /// E8 ablation that quantifies how much the resume-point analysis
  /// contributes on top of the shift analysis.
  bool enable_next = true;
  /// When true, the executors run the static analyzer (analysis/linter.h)
  /// before searching and refuse queries it proves return zero rows
  /// (E-level diagnostics) with InvalidArgument instead of silently
  /// scanning for matches that cannot exist.
  bool refuse_provably_empty = false;
};

/// Everything the OPS matcher needs at run time, plus the intermediate
/// matrices for inspection, testing, and EXPLAIN output.
struct PatternPlan {
  int m = 0;                        ///< number of pattern elements
  std::vector<bool> star;           ///< 1-based
  std::vector<ExprPtr> predicates;  ///< 1-based; null = TRUE
  std::vector<PredicateAnalysis> analyses;  ///< 0-based (element i-1)
  ThetaPhi matrices;
  SearchTables tables;
  bool has_star = false;
  /// True when some predicate carries an anchored (non-relative) column
  /// reference, e.g. a later element naming FIRST-of-group X.price.
  /// Such a predicate's value depends on the attempt's group extents,
  /// not just on the tuple under test — so a restart *inside* a star
  /// group, or after running out of input, can succeed where the
  /// original attempt failed.  The matchers take conservative
  /// tuple-by-tuple restarts on those paths only when this is set; for
  /// purely relative (tuple-local) patterns the replayed trajectory is
  /// provably identical and the aggressive jumps stay sound.
  bool anchored_refs = false;
  /// Most negative tuple offset, relative to an attempt's first tuple,
  /// that a predicate or the SELECT list reads (0 when none): how far
  /// back the streaming matcher must retain tuples.
  int min_offset = 0;
  /// True when a predicate reads a tuple after the one under test (a
  /// positive relative offset), which streaming cannot serve.
  bool looks_ahead = false;

  /// Human-readable compilation report (matrices + shift/next arrays).
  std::string ToString() const;
};

/// Compiles the pattern part of an analyzed query: derives θ/φ from the
/// per-element predicates via GSW + intervals, then shift/next via the
/// S-matrix (star-free) or the implication graph (star).
StatusOr<PatternPlan> CompilePattern(const CompiledQuery& query,
                                     const CompileOptions& options = {});

}  // namespace sqlts

#endif  // SQLTS_PATTERN_COMPILE_H_
