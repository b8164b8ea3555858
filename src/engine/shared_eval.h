#ifndef SQLTS_ENGINE_SHARED_EVAL_H_
#define SQLTS_ENGINE_SHARED_EVAL_H_

#include <memory>
#include <string>

#include "expr/eval.h"
#include "storage/sequence.h"

namespace sqlts {

/// Delegate for pattern-element predicate tests, the seam the
/// multi-query subsystem (src/multiquery/) plugs into: when a matcher
/// runs with an ElementEvaluator, every element test goes through
/// Test() instead of evaluating plan.predicates[j] directly, which lets
/// a workload-level driver answer repeated tests of the same canonical
/// predicate against the same tuple from a shared per-cluster cache.
///
/// Contract: Test(j, seq, pos, spans, abs_pos) must return exactly what
/// EvalPredicate(*plan.predicates[j], {seq, pos, spans}) would — the
/// delegate may only change *how* the answer is produced (memoization,
/// implication inference), never the answer itself.  The matchers'
/// search paths, and therefore their output and SearchStats, are
/// bit-identical with and without a delegate.
///
/// `pos` is the position within `seq` (the matcher's working view);
/// `abs_pos` is the stable position of the same tuple counted from the
/// start of the cluster's stream — equal to `pos` in batch execution,
/// `base + pos` in streaming, where the working view may have evicted a
/// prefix.  Caches must key on `abs_pos`: it names the tuple
/// consistently across queries whose buffers are in different states.
/// Both implementations (VectorizedPlanEval's evaluator, and
/// MultiQueryEvaluator over a SharedClusterCache) keep kernel verdicts
/// in one VerdictStore (engine/verdict_store.h) keyed by `abs_pos`.
class ElementEvaluator {
 public:
  virtual ~ElementEvaluator() = default;

  /// Evaluates pattern element `j` (1-based) at `pos`; never called for
  /// TRUE elements (plan.predicates[j] == nullptr).
  virtual bool Test(int j, const SequenceView& seq, int64_t pos,
                    const std::vector<GroupSpan>& spans, int64_t abs_pos) = 0;
};

/// Builds one ElementEvaluator per cluster for a streaming query.  The
/// executor calls MakeEvaluator when it creates a cluster's matcher;
/// `encoded_cluster_key` (see EncodeClusterKey) identifies the cluster
/// consistently across every query of a shared scan, so implementations
/// can hand matchers of different queries views onto one shared
/// per-cluster cache.  MakeEvaluator may be called from shard worker
/// threads and must be thread-safe; the returned evaluator is used only
/// by the matcher it was created for (single-threaded), but several
/// evaluators of the same cluster may Test concurrently from different
/// queries' workers — the shared state behind them must synchronize.
class ElementEvaluatorFactory {
 public:
  virtual ~ElementEvaluatorFactory() = default;

  virtual std::unique_ptr<ElementEvaluator> MakeEvaluator(
      const std::string& encoded_cluster_key) = 0;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_SHARED_EVAL_H_
