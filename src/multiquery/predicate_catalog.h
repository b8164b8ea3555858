#ifndef SQLTS_MULTIQUERY_PREDICATE_CATALOG_H_
#define SQLTS_MULTIQUERY_PREDICATE_CATALOG_H_

#include <atomic>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "constraints/catalog.h"
#include "expr/expr.h"
#include "expr/kernel.h"
#include "expr/normalize.h"
#include "pattern/theta_phi.h"
#include "types/schema.h"

namespace sqlts {

/// One canonical predicate of a multi-query workload: a pattern-element
/// conjunct that at least one registered query tests, deduplicated
/// across queries so the shared evaluation cache computes it at most
/// once per tuple.
struct SharedPredicate {
  int id = -1;
  /// Representative expression (the first registration's tree; merged
  /// registrations may have syntactically different but provably
  /// equivalent trees).
  ExprPtr expr;
  std::string fingerprint;
  /// Constraint-form analysis under the workload-wide variable catalog.
  PredicateAnalysis analysis;
  /// Sorted, deduplicated (column_index, total_offset) pairs the
  /// expression reads.  The sharing and subsumption gates key on this:
  /// two predicates only interchange when their boundary/NULL behavior
  /// provably matches, and reference sets are how that is proved.
  std::vector<std::pair<int, int>> refs;
  /// Eligible for oracle-based (semantic) merging and subsumption: the
  /// analysis captured every conjunct, there are no OR groups, and no
  /// reference touches a declared-NULLABLE column — the gates under
  /// which two-valued reasoning over the reals coincides with the
  /// engine's 3-valued TRUE-collapse (see docs/MULTIQUERY.md).
  bool semantic_ok = false;
  /// Every referenced column is declared POSITIVE, so the GSW log-domain
  /// (ratio) mode is sound for oracle calls involving this predicate.
  bool all_positive = true;
  /// Ids this predicate subsumes: when this predicate evaluates TRUE on
  /// a tuple, each listed predicate is TRUE on that tuple too (oracle
  /// implication + reference-set containment), so the cache records
  /// their results without evaluating them.
  std::vector<int> implies;
  /// How many registered conjuncts (across all queries) map to this id.
  int registrations = 0;
  /// Type-specialized batch kernel for this predicate (expr/kernel.h),
  /// compiled once at registration; null when the expression is not
  /// vectorizable (strings, unsupported shapes).  Shared predicates are
  /// tuple-local by construction, so the kernel's verdict at a position
  /// is the interpreter's verdict — the cluster cache uses it to fill
  /// the rest of a block per miss instead of interpreting one position.
  std::unique_ptr<PredicateKernel> kernel;
};

/// Registration-time accounting for one predicate catalog.
struct CatalogStats {
  int conjuncts_registered = 0;  ///< Register() calls
  int unshareable = 0;           ///< anchored/aggregate conjuncts (id -1)
  int distinct_predicates = 0;   ///< catalog entries
  int structural_merges = 0;     ///< fingerprint-identical registrations
  int semantic_merges = 0;       ///< oracle-proved-equivalent registrations
  int subsumption_edges = 0;     ///< implication edges recorded
  int kernels_compiled = 0;      ///< entries with a vectorized kernel
};

/// Run-time counters shared by every evaluator of one multi-query
/// execution (batch or streaming).  Atomics: evaluators on different
/// workers publish into them; none counts here per lookup (see
/// MultiQueryTally).
struct MultiQueryCounters {
  std::atomic<int64_t> shared_lookups{0};  ///< cache consultations
  std::atomic<int64_t> shared_evals{0};    ///< actual EvalPredicate runs
  std::atomic<int64_t> cache_hits{0};      ///< answered from the memo
  std::atomic<int64_t> inferred_hits{0};   ///< hits seeded by subsumption
  std::atomic<int64_t> private_evals{0};   ///< unshareable conjunct runs
};

/// One evaluator's unpublished share of MultiQueryCounters, in plain
/// integers: lookups count here without synchronization, and PublishTo
/// adds the tally to the shared atomics in one go.
struct MultiQueryTally {
  int64_t shared_lookups = 0;
  int64_t shared_evals = 0;
  int64_t cache_hits = 0;
  int64_t inferred_hits = 0;
  int64_t private_evals = 0;

  /// Adds every nonzero field to `counters` and zeroes the tally.
  void PublishTo(MultiQueryCounters* counters);
};

/// Workload-level accounting for one multi-query execution, surfaced
/// through EXPLAIN, the CLI, and the benchmarks: how much evaluation
/// work the shared scan and the predicate cache saved.
struct MultiQueryStats {
  int num_queries = 0;
  int num_scan_groups = 0;
  /// Input rows consumed — once, no matter how many queries ran.
  int64_t tuples_scanned = 0;
  /// Registration-time catalog accounting, summed over scan groups.
  CatalogStats catalog;
  /// Run-time cache accounting (snapshot of the workload counters).
  int64_t shared_lookups = 0;
  int64_t shared_evals = 0;
  int64_t cache_hits = 0;
  int64_t inferred_hits = 0;
  int64_t private_evals = 0;

  /// Shared-predicate evaluations avoided by the memo.
  int64_t evals_saved() const { return cache_hits; }
  /// Fraction of shared-predicate tests answered without evaluating.
  double dedup_hit_rate() const {
    return shared_lookups > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(shared_lookups)
               : 0.0;
  }

  void AddCatalog(const CatalogStats& s);
  void SnapshotCounters(const MultiQueryCounters& c);

  std::string ToString() const;
  std::string ToJson() const;
};

/// Canonicalizes pattern-element conjuncts across the queries of one
/// scan group (same CLUSTER BY / SEQUENCE BY, same input schema) into a
/// workload-wide predicate id space.
///
/// Three levels of sharing, each individually proved answer-preserving:
///  1. Structural: resolved-tree fingerprints (column indexes and
///     offsets, not variable names) — always sound, NULLs included,
///     because both queries evaluate the identical expression on the
///     identical tuple neighborhood.
///  2. Semantic: the GSW + interval implication oracle proves mutual
///     implication over the reals.  Gated on complete OR-free analyses,
///     equal reference sets, and no NULLABLE references; the GSW
///     positive (log) domain is enabled per pair only when both sides
///     read only POSITIVE columns (ColumnDef::positive).
///  3. Subsumption: p ⇒ q with refs(q) ⊆ refs(p) records an edge so a
///     TRUE verdict for p seeds q's verdict there.  Only the positive
///     direction is used — p evaluating TRUE certifies every value p
///     reads exists and is non-NULL, which covers q's reads.
///
/// Not thread-safe: Register() runs on the control thread (query
/// registration happens between batches); execution-time readers use
/// the immutable-after-registration accessors.
class SharedPredicateCatalog {
 public:
  explicit SharedPredicateCatalog(const Schema& schema,
                                  OracleOptions oracle = OracleOptions{});

  /// Maps one resolved pattern-element conjunct to its shared predicate
  /// id, creating or merging catalog entries as proofs allow.  Returns
  /// -1 when the conjunct cannot be shared across queries: its value
  /// depends on more than the tuple neighborhood (anchored or
  /// FIRST/LAST references, aggregates read the registering query's
  /// group spans), so each query must evaluate it privately.
  int Register(const ExprPtr& conjunct);

  int size() const { return static_cast<int>(preds_.size()); }
  const SharedPredicate& predicate(int id) const { return preds_[id]; }
  const CatalogStats& stats() const { return stats_; }

 private:
  /// Oracle for a pair gated by both sides' POSITIVE coverage.
  const ImplicationOracle& OracleFor(const SharedPredicate& a,
                                     const SharedPredicate& b) const;
  /// Records implication edges between the fresh entry and every
  /// compatible existing entry (both directions).
  void LinkSubsumption(SharedPredicate* fresh);

  Schema schema_;
  VariableCatalog vars_;  ///< shared so oracle VarIds align across queries
  ImplicationOracle oracle_plain_;  ///< positive_domain forced off
  ImplicationOracle oracle_pos_;    ///< positive_domain as configured
  std::vector<SharedPredicate> preds_;
  std::unordered_map<std::string, int> by_fingerprint_;
  CatalogStats stats_;
};

/// Canonical serialization of a resolved expression tree: two conjuncts
/// fingerprint equal iff they evaluate identically on every tuple
/// neighborhood (same ops, literals, column indexes, offsets).
std::string PredicateFingerprint(const ExprPtr& e);

/// True when every column reference is tuple-relative and the tree has
/// no aggregates — the conjunct's value depends only on (sequence,
/// position), never on the registering query's match state.
bool IsTupleLocal(const ExprPtr& e);

}  // namespace sqlts

#endif  // SQLTS_MULTIQUERY_PREDICATE_CATALOG_H_
