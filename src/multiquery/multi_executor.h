#ifndef SQLTS_MULTIQUERY_MULTI_EXECUTOR_H_
#define SQLTS_MULTIQUERY_MULTI_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "engine/executor.h"
#include "multiquery/predicate_catalog.h"
#include "storage/table.h"

namespace sqlts {

/// Result of running a set of SQL-TS queries over one input: each
/// query's ordinary QueryResult (output rows bit-identical to running
/// it alone) plus the workload-level sharing accounting.
struct QuerySetResult {
  std::vector<QueryResult> per_query;
  MultiQueryStats stats;
};

/// Batch shared multi-query execution: compiles every query, groups
/// them by (CLUSTER BY, SEQUENCE BY) signature so each group clusters
/// the input once, canonicalizes all pattern-element conjuncts of a
/// group into one SharedPredicateCatalog, and drives every query's OPS
/// matcher over each cluster behind a per-cluster memo — a predicate
/// shared by several queries is evaluated at most once per tuple.
///
/// Output equivalence: per-query rows are bit-identical to running the
/// query alone with the same options, at any thread count.  Each scan
/// group runs its clusters through the batch cluster loop
/// (engine/cluster_loop.h) on options.num_threads workers — one body
/// per cluster runs all of the group's matchers — and rows merge back
/// in cluster first-appearance order.  LIMIT queries are truncated to
/// their first `limit` rows in that same deterministic order.
/// collect_trace is not supported here (traces are per-query sequential
/// logs); per-query traces come back empty.
class MultiQueryExecutor {
 public:
  static StatusOr<QuerySetResult> Execute(
      const Table& input, const std::vector<std::string>& queries,
      const ExecOptions& options = {});
};

/// EXPLAIN for a query set: each query's full compilation report plus
/// the shared predicate catalog — distinct predicates, merge/edge
/// counts, and per-predicate registration fan-in.
StatusOr<std::string> ExplainQuerySet(const Schema& schema,
                                      const std::vector<std::string>& queries,
                                      const ExecOptions& options = {});

}  // namespace sqlts

#endif  // SQLTS_MULTIQUERY_MULTI_EXECUTOR_H_
