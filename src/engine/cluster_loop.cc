#include "engine/cluster_loop.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <thread>
#include <vector>

namespace sqlts {

int ClusterLoopWorkers(int num_threads, int num_clusters) {
  return std::max(1, std::min(num_threads, num_clusters));
}

Status RunClusterLoop(
    int num_clusters, int workers, const ExecGovernance& governance,
    const std::function<Status(int cluster, int worker)>& body,
    const std::function<Status(int cluster)>& merge) {
  if (workers <= 1) {
    for (int c = 0; c < num_clusters; ++c) {
      SQLTS_RETURN_IF_ERROR(governance.Check());
      SQLTS_RETURN_IF_ERROR(body(c, 0));
      SQLTS_RETURN_IF_ERROR(merge(c));
    }
    return governance.Check();
  }

  std::atomic<int> next{0};
  std::vector<Status> errors(workers);
  auto work = [&](int w) {
    try {
      for (int c; (c = next.fetch_add(1)) < num_clusters;) {
        // A cancelled/expired query skips remaining clusters; the
        // governance check after the join reports it.
        if (!governance.Check().ok()) return;
        errors[w] = body(c, w);
        if (!errors[w].ok()) return;
      }
    } catch (const std::exception& e) {
      errors[w] = Status::Internal(
          std::string("cluster worker caught exception: ") + e.what());
    } catch (...) {
      errors[w] = Status::Internal(
          "cluster worker caught an exception not derived from "
          "std::exception");
    }
  };
  {
    // jthreads join on every exit from this scope, a failed spawn too.
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (int w = 1; w < workers; ++w) helpers.emplace_back(work, w);
    work(0);
  }
  for (const Status& s : errors) SQLTS_RETURN_IF_ERROR(s);
  SQLTS_RETURN_IF_ERROR(governance.Check());
  for (int c = 0; c < num_clusters; ++c) SQLTS_RETURN_IF_ERROR(merge(c));
  return Status::OK();
}

}  // namespace sqlts
