#include "multiquery/multi_executor.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "analysis/linter.h"
#include "engine/cluster_loop.h"
#include "engine/explain.h"
#include "engine/matcher.h"
#include "multiquery/shared_cache.h"
#include "storage/sequence.h"

namespace sqlts {
namespace {

/// Batch cache window cap: a cluster at most this long is memoized
/// exactly (every shared predicate evaluated once per tuple); longer
/// clusters wrap the ring, costing re-evaluations but never answers.
constexpr int64_t kMaxBatchWindow = 1 << 16;

/// One query of the set, compiled and mapped into its scan group's
/// shared predicate id space.
struct SetQuery {
  CompiledQuery query;
  PatternPlan plan;
  QueryConjuncts conjuncts;
  Table output;
  SearchStats stats;
  int group = -1;  // scan-group index
  /// Rows buffered per cluster ordinal until the cluster loop merges
  /// them in cluster first-appearance order.
  std::vector<std::vector<Row>> cluster_rows;

  explicit SetQuery(Schema out_schema) : output(std::move(out_schema)) {}
};

/// Queries sharing (CLUSTER BY, SEQUENCE BY): one clustering pass, one
/// predicate catalog.
struct ScanGroup {
  std::vector<int> members;  // indexes into the query set
  ClusteredSequence clusters;
  std::unique_ptr<SharedPredicateCatalog> catalog;
};

Status Prefixed(int index, const Status& s) {
  return Status(s.code(),
                "query #" + std::to_string(index + 1) + ": " + s.message());
}

/// Runs every query of a scan group over each cluster through the batch
/// cluster loop.  One body per cluster runs the group's queries in
/// registration order against a shared cluster cache; rows merge back
/// per query in cluster order.  At one worker LIMIT queries terminate
/// exactly at their limit, so each query's rows come out in the order
/// its standalone run produces; at N workers a cluster cannot observe a
/// cross-cluster LIMIT, so LIMIT queries truncate at the merge — the
/// same first-N rows.
Status ExecuteGroup(ScanGroup* group, std::vector<SetQuery>* set,
                    const ExecOptions& options,
                    MultiQueryCounters* counters) {
  const int num_clusters = group->clusters.num_clusters();
  const int workers = ClusterLoopWorkers(options.num_threads, num_clusters);
  for (int qi : group->members) {
    (*set)[qi].cluster_rows.assign(num_clusters, {});
  }
  // [worker][query index in set]: workers may not touch shared stats.
  std::vector<std::vector<SearchStats>> worker_query_stats(
      workers, std::vector<SearchStats>(set->size()));

  auto body = [&](int c, int w) {
    const SequenceView& seq = group->clusters.cluster(c);
    SharedClusterCache cache(group->catalog.get(),
                             std::min<int64_t>(seq.size(), kMaxBatchWindow));
    for (int qi : group->members) {
      SetQuery& sq = (*set)[qi];
      if (sq.query.limit_zero) continue;
      SearchOptions search_opts;
      if (workers == 1 && sq.query.limit > 0) {
        search_opts.max_matches = sq.query.limit - sq.output.num_rows();
        if (search_opts.max_matches <= 0) continue;
      }
      if (!ClusterAccepted(sq.query, seq)) continue;
      MultiQueryEvaluator evaluator(&sq.conjuncts, &cache, counters);
      search_opts.governance = &options.governance;
      search_opts.evaluator = &evaluator;
      SearchStats* stats = &worker_query_stats[w][qi];
      std::vector<Match> matches =
          options.algorithm == SearchAlgorithm::kOps
              ? OpsSearch(seq, sq.plan, stats, nullptr, search_opts)
              : NaiveSearch(seq, sq.plan, stats, nullptr, search_opts);
      std::vector<Row>& rows = sq.cluster_rows[c];
      rows.reserve(matches.size());
      for (const Match& match : matches) {
        rows.push_back(ProjectMatch(sq.query, seq, match));
      }
    }
    return Status::OK();
  };
  auto merge = [&](int c) {
    for (int qi : group->members) {
      SetQuery& sq = (*set)[qi];
      for (Row& row : sq.cluster_rows[c]) {
        if (sq.query.limit > 0 && sq.output.num_rows() >= sq.query.limit) {
          break;
        }
        SQLTS_RETURN_IF_ERROR(sq.output.AppendRow(std::move(row)));
      }
      sq.cluster_rows[c] = {};
    }
    return Status::OK();
  };
  SQLTS_RETURN_IF_ERROR(RunClusterLoop(num_clusters, workers,
                                       options.governance, body, merge));

  for (int qi : group->members) {
    SetQuery& sq = (*set)[qi];
    for (const std::vector<SearchStats>& per_query : worker_query_stats) {
      sq.stats += per_query[qi];
    }
    sq.cluster_rows.clear();
    // Matches past a LIMIT found at N workers were truncated at the
    // merge; clamp the reported count to keep matches == emitted rows at
    // any thread count (one worker terminates the search at the limit).
    if (sq.query.limit > 0 && sq.stats.matches > sq.query.limit) {
      sq.stats.matches = sq.query.limit;
    }
  }
  return Status::OK();
}

/// Compiles the set and assembles its scan groups (shared by Execute
/// and ExplainQuerySet).
Status BuildQuerySet(const Schema& schema,
                     const std::vector<std::string>& queries,
                     const ExecOptions& options, std::vector<SetQuery>* set,
                     std::vector<ScanGroup>* groups,
                     std::vector<std::string>* signatures) {
  for (size_t i = 0; i < queries.size(); ++i) {
    auto compiled = CompileQueryText(queries[i], schema);
    if (!compiled.ok()) return Prefixed(static_cast<int>(i), compiled.status());
    Status refused = RefuseProvablyEmpty(*compiled, options.compile);
    if (!refused.ok()) return Prefixed(static_cast<int>(i), refused);
    auto plan = CompilePattern(*compiled, options.compile);
    if (!plan.ok()) return Prefixed(static_cast<int>(i), plan.status());
    SetQuery sq(compiled->output_schema);
    sq.query = std::move(*compiled);
    sq.plan = std::move(*plan);
    set->push_back(std::move(sq));
  }

  for (size_t i = 0; i < set->size(); ++i) {
    SetQuery& sq = (*set)[i];
    auto sig = ScanGroupSignature(schema, sq.query);
    if (!sig.ok()) return Prefixed(static_cast<int>(i), sig.status());
    int g = -1;
    for (size_t k = 0; k < signatures->size(); ++k) {
      if ((*signatures)[k] == *sig) {
        g = static_cast<int>(k);
        break;
      }
    }
    if (g < 0) {
      g = static_cast<int>(groups->size());
      signatures->push_back(std::move(*sig));
      ScanGroup group;
      group.catalog = std::make_unique<SharedPredicateCatalog>(
          schema, options.compile.oracle);
      groups->push_back(std::move(group));
    }
    (*groups)[g].members.push_back(static_cast<int>(i));
    sq.group = g;
    sq.conjuncts = RegisterQueryConjuncts(sq.query, (*groups)[g].catalog.get());
  }
  return Status::OK();
}

}  // namespace

StatusOr<QuerySetResult> MultiQueryExecutor::Execute(
    const Table& input, const std::vector<std::string>& queries,
    const ExecOptions& options) {
  std::vector<SetQuery> set;
  std::vector<ScanGroup> groups;
  std::vector<std::string> signatures;
  SQLTS_RETURN_IF_ERROR(BuildQuerySet(input.schema(), queries, options, &set,
                                      &groups, &signatures));
  SQLTS_RETURN_IF_ERROR(options.governance.Check());

  MultiQueryCounters counters;
  for (ScanGroup& group : groups) {
    // One clustering pass per distinct (CLUSTER BY, SEQUENCE BY); the
    // input table itself is only ever scanned here.
    const SetQuery& first = set[group.members.front()];
    SQLTS_ASSIGN_OR_RETURN(group.clusters,
                           ClusteredSequence::Build(&input,
                                                    first.query.cluster_by,
                                                    first.query.sequence_by));
    SQLTS_RETURN_IF_ERROR(ExecuteGroup(&group, &set, options, &counters));
  }

  QuerySetResult result;
  result.stats.num_queries = static_cast<int>(set.size());
  result.stats.num_scan_groups = static_cast<int>(groups.size());
  result.stats.tuples_scanned = input.num_rows();
  for (const ScanGroup& group : groups) {
    result.stats.AddCatalog(group.catalog->stats());
  }
  result.stats.SnapshotCounters(counters);

  result.per_query.reserve(set.size());
  for (SetQuery& sq : set) {
    QueryResult qr{std::move(sq.output),
                   sq.stats,
                   SearchTrace{},
                   std::move(sq.plan),
                   groups[sq.group].clusters.num_clusters(),
                   0,
                   {}};
    result.per_query.push_back(std::move(qr));
  }
  return result;
}

StatusOr<std::string> ExplainQuerySet(const Schema& schema,
                                      const std::vector<std::string>& queries,
                                      const ExecOptions& options) {
  std::vector<SetQuery> set;
  std::vector<ScanGroup> groups;
  std::vector<std::string> signatures;
  SQLTS_RETURN_IF_ERROR(
      BuildQuerySet(schema, queries, options, &set, &groups, &signatures));

  std::string out;
  for (size_t i = 0; i < set.size(); ++i) {
    out += "== query #" + std::to_string(i + 1) + " ==\n";
    out += ExplainQuery(set[i].query, set[i].plan, queries[i]);
    out += "\n";
  }
  out += "== shared predicate catalog ==\n";
  out += "scan groups: " + std::to_string(groups.size()) + "\n";
  for (size_t g = 0; g < groups.size(); ++g) {
    const SharedPredicateCatalog& catalog = *groups[g].catalog;
    const CatalogStats& cs = catalog.stats();
    out += "group " + std::to_string(g + 1) + " (" +
           std::to_string(groups[g].members.size()) + " queries): " +
           std::to_string(cs.conjuncts_registered) + " conjuncts -> " +
           std::to_string(cs.distinct_predicates) + " distinct, " +
           std::to_string(cs.structural_merges) + " structural + " +
           std::to_string(cs.semantic_merges) + " semantic merges, " +
           std::to_string(cs.unshareable) + " private, " +
           std::to_string(cs.subsumption_edges) + " subsumption edge(s)\n";
    for (int p = 0; p < catalog.size(); ++p) {
      const SharedPredicate& pred = catalog.predicate(p);
      out += "  [" + std::to_string(p) + "] " + pred.expr->ToString() +
             "  (registered " + std::to_string(pred.registrations) + "x";
      if (!pred.implies.empty()) {
        out += "; implies";
        for (int q : pred.implies) out += " [" + std::to_string(q) + "]";
      }
      out += ")\n";
    }
  }
  return out;
}

}  // namespace sqlts
