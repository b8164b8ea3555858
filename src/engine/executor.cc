#include "engine/executor.h"

#include "analysis/linter.h"
#include "engine/cluster_loop.h"
#include "engine/vectorized_eval.h"
#include "storage/csv.h"
#include "storage/sequence.h"

namespace sqlts {
namespace {

/// Coerces a computed SELECT value to the declared output column type
/// (int64 results may feed double columns, etc.).
Value CoerceTo(TypeKind want, Value v) {
  if (v.is_null() || v.kind() == want) return v;
  if (want == TypeKind::kDouble && v.kind() == TypeKind::kInt64) {
    return Value::Double(static_cast<double>(v.int64_value()));
  }
  if (want == TypeKind::kInt64 && v.kind() == TypeKind::kDouble) {
    return Value::Int64(static_cast<int64_t>(v.double_value()));
  }
  return v;  // AppendRow will surface genuine type errors
}

}  // namespace

bool ClusterAccepted(const CompiledQuery& query, const SequenceView& seq) {
  if (seq.size() == 0) return false;
  EvalContext ctx;
  ctx.seq = &seq;
  ctx.pos = 0;
  ctx.spans = nullptr;
  for (const ExprPtr& f : query.cluster_filters) {
    if (!EvalPredicate(*f, ctx)) return false;
  }
  return true;
}

StatusOr<bool> ClusterAccepted(const CompiledQuery& query, Row row) {
  if (query.cluster_filters.empty()) return true;
  Table one(query.input_schema);
  SQLTS_RETURN_IF_ERROR(one.AppendRow(std::move(row)));
  return ClusterAccepted(query, SequenceView(&one, std::vector<int64_t>{0}));
}

Row ProjectMatch(const CompiledQuery& query, const SequenceView& seq,
                 const Match& match) {
  EvalContext ctx;
  ctx.seq = &seq;
  ctx.pos = 0;
  ctx.spans = &match.spans;
  Row row;
  row.reserve(query.select.size());
  for (size_t s = 0; s < query.select.size(); ++s) {
    Value v = EvalExpr(*query.select[s].expr, ctx);
    row.push_back(
        CoerceTo(query.output_schema.column(s).type, std::move(v)));
  }
  return row;
}

StatusOr<QueryResult> QueryExecutor::Execute(const Table& input,
                                             std::string_view query_text,
                                             const ExecOptions& options) {
  SQLTS_ASSIGN_OR_RETURN(CompiledQuery query,
                         CompileQueryText(query_text, input.schema()));
  return ExecuteCompiled(input, query, options);
}

StatusOr<QueryResult> QueryExecutor::ExecuteCsvFile(
    const std::string& path, const Schema& schema,
    std::string_view query_text, const ExecOptions& options) {
  CsvReadOptions csv_options;
  csv_options.bad_input = options.governance.bad_input;
  CsvReadStats csv_stats;
  SQLTS_ASSIGN_OR_RETURN(Table input,
                         ReadCsvFile(path, schema, csv_options, &csv_stats));
  SQLTS_ASSIGN_OR_RETURN(QueryResult result,
                         Execute(input, query_text, options));
  result.rows_skipped = csv_stats.rows_skipped;
  return result;
}

StatusOr<QueryResult> QueryExecutor::ExecuteCompiled(
    const Table& input, const CompiledQuery& query,
    const ExecOptions& options) {
  SQLTS_RETURN_IF_ERROR(RefuseProvablyEmpty(query, options.compile));
  SQLTS_ASSIGN_OR_RETURN(PatternPlan plan,
                         CompilePattern(query, options.compile));
  SQLTS_ASSIGN_OR_RETURN(
      ClusteredSequence clusters,
      ClusteredSequence::Build(&input, query.cluster_by, query.sequence_by));

  SQLTS_RETURN_IF_ERROR(options.governance.Check());

  QueryResult result{Table(query.output_schema), SearchStats{},
                     SearchTrace{}, plan, clusters.num_clusters(), 0, {}};

  // An explicit LIMIT 0 never produces rows; skip the search entirely.
  if (query.limit_zero) return result;

  // Vectorized predicate tier: compile kernels once per query; each
  // cluster's matcher then tests elements against cached block
  // verdicts instead of interpreting per tuple (answer-preserving).
  std::unique_ptr<VectorizedPlanEval> vec;
  if (options.vectorize && options.shared_eval == nullptr) {
    vec = VectorizedPlanEval::Create(result.plan, input.schema());
  }

  // Per-cluster matcher state is fully private, so clusters run on any
  // number of workers.  LIMIT (cross-cluster early termination) and
  // trace collection (a single ordered log) stay on one.
  const int num_clusters = clusters.num_clusters();
  const bool parallel = query.limit <= 0 && !options.collect_trace;
  const int workers =
      ClusterLoopWorkers(parallel ? options.num_threads : 1, num_clusters);
  std::vector<ShardStats> worker_stats(workers);
  std::vector<std::vector<Row>> cluster_rows(num_clusters);
  auto body = [&](int c, int w) {
    const SequenceView& seq = clusters.cluster(c);
    ShardStats& ws = worker_stats[w];
    ++ws.clusters;
    ws.tuples_pushed += seq.size();
    if (!ClusterAccepted(query, seq)) return Status::OK();
    SearchOptions search_opts;
    search_opts.governance = &options.governance;
    if (query.limit > 0) {
      // LIMIT: stop searching once enough rows were produced (exact
      // early termination — the first N left-maximal matches, in
      // cluster order).
      search_opts.max_matches = query.limit - result.output.num_rows();
      if (search_opts.max_matches <= 0) return Status::OK();
    }
    std::unique_ptr<ElementEvaluator> vec_eval;
    if (vec != nullptr) {
      vec_eval = vec->MakeEvaluator();
      search_opts.evaluator = vec_eval.get();
    }
    SearchTrace* trace = options.collect_trace ? &result.trace : nullptr;
    std::vector<Match> matches =
        options.algorithm == SearchAlgorithm::kOps
            ? OpsSearch(seq, plan, &ws.search, trace, search_opts)
            : NaiveSearch(seq, plan, &ws.search, trace, search_opts);
    std::vector<Row>& rows = cluster_rows[c];
    rows.reserve(matches.size());
    for (const Match& match : matches) {
      rows.push_back(ProjectMatch(query, seq, match));
    }
    return Status::OK();
  };
  auto merge = [&](int c) {
    for (Row& row : cluster_rows[c]) {
      SQLTS_RETURN_IF_ERROR(result.output.AppendRow(std::move(row)));
    }
    cluster_rows[c] = {};
    return Status::OK();
  };
  SQLTS_RETURN_IF_ERROR(RunClusterLoop(num_clusters, workers,
                                       options.governance, body, merge));
  result.stats = TotalSearchStats(worker_stats);
  if (workers > 1) result.shard_stats = std::move(worker_stats);
  return result;
}

}  // namespace sqlts
