#ifndef SQLTS_MULTIQUERY_SHARED_CACHE_H_
#define SQLTS_MULTIQUERY_SHARED_CACHE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "engine/shared_eval.h"
#include "engine/verdict_store.h"
#include "expr/eval.h"
#include "multiquery/predicate_catalog.h"
#include "parser/analyzer.h"

namespace sqlts {

/// One query's pattern elements mapped into a shared predicate id
/// space: element j's conjuncts, each carrying its catalog id (or -1
/// when the conjunct is private to the query and always evaluated
/// directly).
struct QueryConjuncts {
  struct Conjunct {
    ExprPtr expr;
    int shared_id = -1;
  };
  /// Indexed by 1-based pattern element (slot 0 unused), mirroring
  /// PatternPlan::predicates.
  std::vector<std::vector<Conjunct>> elements;
};

/// Registers every pattern-element conjunct of `query` in `catalog`.
QueryConjuncts RegisterQueryConjuncts(const CompiledQuery& query,
                                      SharedPredicateCatalog* catalog);

/// Scan-group signature of a query: the resolved column indexes of its
/// CLUSTER BY and SEQUENCE BY lists.  Queries with equal signatures
/// partition the input identically, so they share one clustering pass,
/// one predicate catalog, and per-cluster caches.
StatusOr<std::string> ScanGroupSignature(const Schema& schema,
                                         const CompiledQuery& query);

/// Memo of shared-predicate verdicts for one cluster: the multi-query
/// policy over a VerdictStore (engine/verdict_store.h) with one slot
/// per catalog predicate.  Cached values are query-independent (a
/// tuple-local conjunct shared by two queries reads the same tuple
/// neighborhood in both — see docs/MULTIQUERY.md for the buffered-view
/// argument).  Single owner, no lock: batch builds one per cluster body
/// and only that body's worker touches it; streaming, where workers of
/// different queries share a cluster, keeps it in a SharedCacheSlot
/// behind the slot's mutex.
class SharedClusterCache {
 public:
  /// Positions each predicate's ring holds before it wraps; sized to
  /// the cluster length in batch mode (exact once-per-tuple
  /// memoization) and to a fixed horizon in streaming mode.
  SharedClusterCache(const SharedPredicateCatalog* catalog, int64_t window);

  /// Returns the TRUE-collapsed verdict of predicate `pred_id` at
  /// absolute position `abs_pos`, evaluating under `ctx` only on a
  /// miss (a kernel predicate fills by the store's rule).  Every lane
  /// a miss finds TRUE seeds the same lane of every predicate the
  /// catalog proves subsumed.  Counts the lookup in `tally`.
  bool Test(int pred_id, const EvalContext& ctx, int64_t abs_pos,
            MultiQueryTally* tally);

 private:
  const SharedPredicateCatalog* catalog_;
  VerdictStore store_;
};

/// ElementEvaluator for one (query, cluster) pair: splits the element
/// predicate into its conjuncts, answering shared ones through the
/// cluster cache and private ones directly.  Answer-preserving: under
/// Kleene semantics the AND of conjuncts is TRUE iff every conjunct is
/// TRUE, which is exactly the per-conjunct collapse this reproduces.
/// Single owner, like its cache: it counts into a plain tally and adds
/// it to `counters` once, when destroyed (batch: once per (query,
/// cluster) pair); streaming's LockedMultiQueryEvaluator publishes
/// after every test instead.
class MultiQueryEvaluator : public ElementEvaluator {
 public:
  MultiQueryEvaluator(const QueryConjuncts* conjuncts,
                      SharedClusterCache* cache,
                      MultiQueryCounters* counters)
      : conjuncts_(conjuncts), cache_(cache), counters_(counters) {}
  MultiQueryEvaluator(const MultiQueryEvaluator&) = delete;
  MultiQueryEvaluator& operator=(const MultiQueryEvaluator&) = delete;
  ~MultiQueryEvaluator() override { Publish(); }

  bool Test(int j, const SequenceView& seq, int64_t pos,
            const std::vector<GroupSpan>& spans, int64_t abs_pos) override;

  /// Adds the tally so far to the counters.
  void Publish() { tally_.PublishTo(counters_); }

 private:
  const QueryConjuncts* conjuncts_;
  SharedClusterCache* cache_;
  MultiQueryCounters* counters_;
  MultiQueryTally tally_;
};

/// One streaming cluster's cache next to the mutex that guards it:
/// shard workers of different per-query executors shard by the same
/// cluster-key hash, so they may probe one cluster concurrently.
struct SharedCacheSlot {
  SharedCacheSlot(const SharedPredicateCatalog* catalog, int64_t window)
      : cache(catalog, window) {}

  ts::Mutex mu;
  SharedClusterCache cache GUARDED_BY(mu);
};

/// Streaming's evaluator: the batch MultiQueryEvaluator run under its
/// slot's mutex, taken once per element test.  It publishes the tally
/// before unlocking, so counters read between pushes (stats(),
/// checkpoints, server METRICS) are current while matchers live.
class LockedMultiQueryEvaluator : public ElementEvaluator {
 public:
  LockedMultiQueryEvaluator(const QueryConjuncts* conjuncts,
                            SharedCacheSlot* slot,
                            MultiQueryCounters* counters)
      : slot_(slot), inner_(conjuncts, &slot->cache, counters) {}

  bool Test(int j, const SequenceView& seq, int64_t pos,
            const std::vector<GroupSpan>& spans, int64_t abs_pos) override {
    ts::MutexLock lock(slot_->mu);
    const bool sat = inner_.Test(j, seq, pos, spans, abs_pos);
    inner_.Publish();
    return sat;
  }

 private:
  SharedCacheSlot* slot_;
  MultiQueryEvaluator inner_ GUARDED_BY(slot_->mu);
};

/// Streaming shared-evaluation state for one scan group (queries with
/// identical CLUSTER BY / SEQUENCE BY): the predicate catalog, one
/// locked cache slot per cluster (keyed by encoded cluster key, the
/// identity stable across per-query executors), and the workload
/// counters its evaluators publish into after every element test.  The
/// only place a SharedClusterCache is shared between threads.
class SharedEvalManager {
 public:
  SharedEvalManager(const Schema& schema, OracleOptions oracle,
                    int64_t window);

  /// Registers a query's conjuncts; call on the control thread only.
  QueryConjuncts Register(const CompiledQuery& query) {
    return RegisterQueryConjuncts(query, &catalog_);
  }

  /// Cache slot for `encoded_key`'s cluster, created on first use.
  /// Thread-safe (shard workers of different queries race here).
  SharedCacheSlot* SlotFor(const std::string& encoded_key);

  /// Frees every cache namespaced to `epoch` (keys the factories build
  /// as "<epoch>\x1f<cluster key>").  Only call once no live query of
  /// this scan group holds that epoch: evaluators keep raw cache
  /// pointers for the life of their matcher, so releasing an epoch
  /// with a live member would dangle them.  MultiStreamExecutor calls
  /// this when RemoveQuery drops the last query of an epoch.
  void ReleaseEpoch(int64_t epoch);

  /// Live cluster caches across every epoch (registry-invariant probe
  /// for tests: removal of a whole epoch must return this to the sum
  /// of the remaining epochs' caches).
  int64_t num_caches() const;

  const SharedPredicateCatalog& catalog() const { return catalog_; }
  MultiQueryCounters* counters() { return &counters_; }
  const MultiQueryCounters& counters_ref() const { return counters_; }

 private:
  /// Registered on the control thread only; workers read the immutable
  /// parts through their evaluators (see Register), so not guarded.
  SharedPredicateCatalog catalog_;
  int64_t window_;
  MultiQueryCounters counters_;  // atomics
  mutable ts::Mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<SharedCacheSlot>> caches_
      GUARDED_BY(mu_);
};

/// Binds one registered query to its scan group's manager: the factory
/// a StreamingQueryExecutor consults (via ExecOptions::shared_eval) to
/// equip each cluster matcher with a shared evaluator.
///
/// `epoch` namespaces the per-cluster caches by registration point: a
/// streaming matcher reports positions relative to the tuples *it* has
/// seen of a cluster, so two queries may only share a cache when their
/// matchers joined the stream at the same position (equal sub-streams
/// per cluster ⇒ aligned position spaces).  Queries added mid-stream
/// get a fresh epoch and share with each other, not with earlier ones.
class QuerySharedEvalFactory : public ElementEvaluatorFactory {
 public:
  QuerySharedEvalFactory(std::shared_ptr<SharedEvalManager> manager,
                         QueryConjuncts conjuncts, int64_t epoch = 0)
      : manager_(std::move(manager)),
        conjuncts_(std::move(conjuncts)),
        epoch_(epoch) {}

  std::unique_ptr<ElementEvaluator> MakeEvaluator(
      const std::string& encoded_cluster_key) override {
    return std::make_unique<LockedMultiQueryEvaluator>(
        &conjuncts_,
        manager_->SlotFor(std::to_string(epoch_) + '\x1f' +
                          encoded_cluster_key),
        manager_->counters());
  }

 private:
  std::shared_ptr<SharedEvalManager> manager_;
  QueryConjuncts conjuncts_;
  int64_t epoch_;
};

}  // namespace sqlts

#endif  // SQLTS_MULTIQUERY_SHARED_CACHE_H_
