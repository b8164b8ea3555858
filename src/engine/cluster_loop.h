#ifndef SQLTS_ENGINE_CLUSTER_LOOP_H_
#define SQLTS_ENGINE_CLUSTER_LOOP_H_

#include <functional>

#include "common/governance.h"
#include "common/status.h"

namespace sqlts {

/// Workers RunClusterLoop uses for `num_clusters` clusters at
/// `num_threads` threads: min(num_threads, num_clusters), at least 1.
int ClusterLoopWorkers(int num_threads, int num_clusters);

/// The per-cluster loop every batch driver (QueryExecutor,
/// MultiQueryExecutor, ColumnarExecutor) runs its one body through.
///
/// `body(c, w)` processes cluster c on worker w (0 <= w < `workers`,
/// from ClusterLoopWorkers), touching only cluster c's and worker w's
/// state plus read-only shared data.  `merge(c)` folds cluster c's
/// output into the result on the calling thread, in cluster order.
///
/// At one worker the loop runs inline: for each cluster in order,
/// check governance, body, merge — so a body may read what earlier
/// merges wrote (the LIMIT budgets do).  At N workers the calling
/// thread and N-1 helpers claim clusters in order, checking governance
/// before each; an exception escaping a body is captured as an Internal
/// status.  After the join the first error is returned, and otherwise
/// every cluster merges in cluster order — so rows come out identical
/// at every worker count.  Governance is checked once more at the end.
Status RunClusterLoop(
    int num_clusters, int workers, const ExecGovernance& governance,
    const std::function<Status(int cluster, int worker)>& body,
    const std::function<Status(int cluster)>& merge);

}  // namespace sqlts

#endif  // SQLTS_ENGINE_CLUSTER_LOOP_H_
