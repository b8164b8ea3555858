#include "replay.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <numeric>
#include <utility>

#include "analysis/linter.h"
#include "colstore/probe_planner.h"
#include "colstore/zone_skip.h"
#include "engine/matcher.h"
#include "engine/vectorized_eval.h"
#include "multiquery/shared_cache.h"
#include "storage/sequence.h"

namespace e2e {
namespace {

using sqlts::ClusteredSequence;
using sqlts::CompiledQuery;
using sqlts::ExecOptions;
using sqlts::LintOptions;
using sqlts::LintResult;
using sqlts::Match;
using sqlts::PatternPlan;
using sqlts::QueryResult;
using sqlts::SearchOptions;
using sqlts::SearchStats;
using sqlts::SequenceView;
using sqlts::Status;
using sqlts::Table;

/// Runs `f` inside one span of `layer`; the span covers the call and
/// the construction of its result.
template <class F>
auto Timed(Tracer* tracer, Layer layer, F&& f) {
  Tracer::Span span(tracer, layer);
  return f();
}

Status Lint(const CompiledQuery& query, const ExecOptions& options,
            Tracer* tracer) {
  LintOptions lint_options;
  lint_options.oracle = options.compile.oracle;
  LintResult lint =
      Timed(tracer, Layer::kLint, [&] { return LintQuery(query, lint_options); });
  if (lint.has_errors()) {
    return Status::InvalidArgument("query is provably empty: " +
                                   SummarizeErrors(lint));
  }
  return Status::OK();
}

/// The replays mirror only the path the benchmark runs: one thread, OPS,
/// provably-empty queries refused, vectorized kernels on.  Anything else
/// is refused rather than mirrored untested.
Status Unsupported(const ExecOptions& options) {
  if (options.num_threads > 1 || options.collect_trace ||
      options.algorithm != sqlts::SearchAlgorithm::kOps ||
      !options.compile.refuse_provably_empty || !options.vectorize ||
      options.shared_eval != nullptr) {
    return Status::Unimplemented(
        "traced replay covers the benchmark's execution options only");
  }
  return Status::OK();
}

/// Likewise for queries: no LIMIT and no hoisted cluster filters.
Status Unsupported(const CompiledQuery& query) {
  if (query.limit > 0 || query.limit_zero || !query.cluster_filters.empty()) {
    return Status::Unimplemented(
        "traced replay covers queries without LIMIT or cluster filters only");
  }
  return Status::OK();
}

// --- Mirrors of colstore/columnar_executor.cc's file-local helpers.

bool SameName(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool NamesMatch(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameName(a[i], b[i])) return false;
  }
  return true;
}

std::vector<uint64_t> BuildCandidates(const sqlts::ProbePlan& pplan,
                                      const SequenceView& seq,
                                      sqlts::KernelScratch* scratch) {
  const int64_t n = seq.size();
  sqlts::TriMask mask;
  pplan.anchor_kernel->Eval(seq, 0, n, scratch, &mask);
  std::vector<uint64_t> words(static_cast<size_t>((n + 63) / 64), 0);
  const int d = pplan.anchor_element;
  for (int64_t s = 0; s + d < n; ++s) {
    if (mask.True(s + d)) {
      words[static_cast<size_t>(s >> 6)] |= uint64_t{1} << (s & 63);
    }
  }
  return words;
}

}  // namespace

void CountSearch(Tracer* tracer, const SearchStats& stats) {
  tracer->Count("engine.tests", static_cast<double>(stats.evaluations));
  tracer->Count("engine.presat_skips", static_cast<double>(stats.presat_skips));
  tracer->Count("engine.jumps", static_cast<double>(stats.jumps));
}

Status ReplayExecute(const Table& input, std::string_view query_text,
                     const ExecOptions& options, Tracer* tracer,
                     QueryResult* out) {
  SQLTS_RETURN_IF_ERROR(Unsupported(options));
  SQLTS_ASSIGN_OR_RETURN(CompiledQuery query, Timed(tracer, Layer::kParse, [&] {
                           return CompileQueryText(query_text, input.schema());
                         }));
  SQLTS_RETURN_IF_ERROR(Unsupported(query));
  SQLTS_RETURN_IF_ERROR(Lint(query, options, tracer));
  SQLTS_ASSIGN_OR_RETURN(PatternPlan plan,
                         Timed(tracer, Layer::kPatternCompile, [&] {
                           return CompilePattern(query, options.compile);
                         }));
  SQLTS_ASSIGN_OR_RETURN(ClusteredSequence clusters,
                         Timed(tracer, Layer::kClusterSort, [&] {
                           return ClusteredSequence::Build(
                               &input, query.cluster_by, query.sequence_by);
                         }));
  SQLTS_RETURN_IF_ERROR(options.governance.Check());

  QueryResult result{Table(query.output_schema), SearchStats{},
                     sqlts::SearchTrace{}, plan, clusters.num_clusters(), 0,
                     {}};
  // Null when the plan has no kernel-compilable element.
  std::unique_ptr<sqlts::VectorizedPlanEval> vec =
      Timed(tracer, Layer::kKernelCompile, [&] {
        return sqlts::VectorizedPlanEval::Create(result.plan, input.schema());
      });
  for (int c = 0; c < clusters.num_clusters(); ++c) {
    const SequenceView& seq = clusters.cluster(c);
    SearchOptions search_opts;
    search_opts.governance = &options.governance;
    SearchStats stats;
    std::vector<Match> matches;
    {
      Tracer::Span span(tracer, Layer::kOpsMatch);
      std::unique_ptr<sqlts::ElementEvaluator> vec_eval;
      if (vec != nullptr) {
        vec_eval = vec->MakeEvaluator();
        search_opts.evaluator = vec_eval.get();
      }
      matches = sqlts::OpsSearch(seq, plan, &stats, nullptr, search_opts);
    }
    result.stats += stats;
    {
      Tracer::Span span(tracer, Layer::kProject);
      for (const Match& match : matches) {
        SQLTS_RETURN_IF_ERROR(
            result.output.AppendRow(ProjectMatch(query, seq, match)));
      }
    }
    SQLTS_RETURN_IF_ERROR(options.governance.Check());
  }
  CountSearch(tracer, result.stats);
  *out = std::move(result);
  return Status::OK();
}

namespace {

// --- Mirrors of multiquery/multi_executor.cc's per-query state.

/// Batch cache window cap (multi_executor.cc's kMaxBatchWindow).
constexpr int64_t kMaxBatchWindow = 1 << 16;

struct SetQuery {
  CompiledQuery query;
  PatternPlan plan;
  sqlts::QueryConjuncts conjuncts;
  Table output;
  SearchStats stats;
  int group = -1;

  explicit SetQuery(sqlts::Schema out_schema) : output(std::move(out_schema)) {}
};

struct ScanGroup {
  std::vector<int> members;
  ClusteredSequence clusters;
  std::unique_ptr<sqlts::SharedPredicateCatalog> catalog;
};

}  // namespace

Status ReplayQuerySet(const Table& input,
                      const std::vector<std::string>& queries,
                      const ExecOptions& options, Tracer* tracer,
                      sqlts::QuerySetResult* out) {
  SQLTS_RETURN_IF_ERROR(Unsupported(options));
  const sqlts::Schema& schema = input.schema();
  std::vector<SetQuery> set;
  for (const std::string& text : queries) {
    SQLTS_ASSIGN_OR_RETURN(CompiledQuery compiled,
                           Timed(tracer, Layer::kParse, [&] {
                             return CompileQueryText(text, schema);
                           }));
    SQLTS_RETURN_IF_ERROR(Unsupported(compiled));
    SQLTS_RETURN_IF_ERROR(Lint(compiled, options, tracer));
    SQLTS_ASSIGN_OR_RETURN(PatternPlan plan,
                           Timed(tracer, Layer::kPatternCompile, [&] {
                             return CompilePattern(compiled, options.compile);
                           }));
    SetQuery sq(compiled.output_schema);
    sq.query = std::move(compiled);
    sq.plan = std::move(plan);
    set.push_back(std::move(sq));
  }

  std::vector<ScanGroup> groups;
  {
    Tracer::Span span(tracer, Layer::kCatalog);
    std::vector<std::string> signatures;
    for (size_t i = 0; i < set.size(); ++i) {
      SetQuery& sq = set[i];
      SQLTS_ASSIGN_OR_RETURN(std::string sig,
                             ScanGroupSignature(schema, sq.query));
      auto it = std::find(signatures.begin(), signatures.end(), sig);
      int g = static_cast<int>(it - signatures.begin());
      if (it == signatures.end()) {
        signatures.push_back(std::move(sig));
        ScanGroup group;
        group.catalog = std::make_unique<sqlts::SharedPredicateCatalog>(
            schema, options.compile.oracle);
        groups.push_back(std::move(group));
      }
      groups[g].members.push_back(static_cast<int>(i));
      sq.group = g;
      sq.conjuncts = RegisterQueryConjuncts(sq.query, groups[g].catalog.get());
    }
  }
  SQLTS_RETURN_IF_ERROR(options.governance.Check());

  sqlts::MultiQueryCounters counters;
  for (ScanGroup& group : groups) {
    const SetQuery& first = set[group.members.front()];
    SQLTS_ASSIGN_OR_RETURN(group.clusters,
                           Timed(tracer, Layer::kClusterSort, [&] {
                             return ClusteredSequence::Build(
                                 &input, first.query.cluster_by,
                                 first.query.sequence_by);
                           }));
    for (int c = 0; c < group.clusters.num_clusters(); ++c) {
      const SequenceView& seq = group.clusters.cluster(c);
      const int64_t t0 = NowNs();
      sqlts::SharedClusterCache cache(
          group.catalog.get(), std::min<int64_t>(seq.size(), kMaxBatchWindow));
      tracer->Add(Layer::kCatalog, NowNs() - t0);
      for (int qi : group.members) {
        SetQuery& sq = set[qi];
        SearchStats stats;
        std::vector<Match> matches;
        {
          Tracer::Span span(tracer, Layer::kOpsMatch);
          sqlts::MultiQueryEvaluator evaluator(&sq.conjuncts, &cache,
                                               &counters);
          SearchOptions search_opts;
          search_opts.governance = &options.governance;
          search_opts.evaluator = &evaluator;
          matches = sqlts::OpsSearch(seq, sq.plan, &stats, nullptr,
                                     search_opts);
        }
        sq.stats += stats;
        {
          Tracer::Span span(tracer, Layer::kProject);
          for (const Match& match : matches) {
            SQLTS_RETURN_IF_ERROR(
                sq.output.AppendRow(ProjectMatch(sq.query, seq, match)));
          }
        }
        SQLTS_RETURN_IF_ERROR(options.governance.Check());
      }
    }
  }

  sqlts::QuerySetResult result;
  result.stats.num_queries = static_cast<int>(set.size());
  result.stats.num_scan_groups = static_cast<int>(groups.size());
  result.stats.tuples_scanned = input.num_rows();
  for (const ScanGroup& group : groups) {
    result.stats.AddCatalog(group.catalog->stats());
  }
  result.stats.SnapshotCounters(counters);
  result.per_query.reserve(set.size());
  for (SetQuery& sq : set) {
    CountSearch(tracer, sq.stats);
    result.per_query.push_back(QueryResult{
        std::move(sq.output), sq.stats, sqlts::SearchTrace{},
        std::move(sq.plan), groups[sq.group].clusters.num_clusters(), 0, {}});
  }
  const sqlts::MultiQueryStats& ms = result.stats;
  tracer->Count("multiquery.shared_lookups",
                static_cast<double>(ms.shared_lookups));
  tracer->Count("multiquery.cache_hits", static_cast<double>(ms.cache_hits));
  tracer->Count("multiquery.shared_evals", static_cast<double>(ms.shared_evals));
  tracer->Count("multiquery.private_evals",
                static_cast<double>(ms.private_evals));
  tracer->Count("multiquery.inferred_hits",
                static_cast<double>(ms.inferred_hits));
  *out = std::move(result);
  return Status::OK();
}

Status ReplayColumnarFile(const std::string& path, std::string_view query_text,
                          const sqlts::ColumnarExecOptions& options,
                          Tracer* tracer, QueryResult* out) {
  const ExecOptions& exec = options.exec;
  SQLTS_RETURN_IF_ERROR(Unsupported(exec));
  SQLTS_ASSIGN_OR_RETURN(std::unique_ptr<sqlts::ColumnarReader> reader,
                         Timed(tracer, Layer::kOpen, [&] {
                           return sqlts::ColumnarReader::Open(path);
                         }));
  const sqlts::ColumnarFooter& footer = reader->footer();
  SQLTS_ASSIGN_OR_RETURN(CompiledQuery query, Timed(tracer, Layer::kParse, [&] {
                           return CompileQueryText(query_text, footer.schema);
                         }));
  SQLTS_RETURN_IF_ERROR(Unsupported(query));
  SQLTS_RETURN_IF_ERROR(Lint(query, exec, tracer));
  if (!options.planner || !options.skipping) {
    return Status::Unimplemented(
        "traced replay covers planner and zone skipping on only");
  }

  const int64_t bytes_before = reader->bytes_read();
  if (!footer.clustered || !NamesMatch(query.cluster_by, footer.cluster_by) ||
      !NamesMatch(query.sequence_by, footer.sequence_by)) {
    return Status::Unimplemented(
        "traced replay covers the cluster-major fast path only");
  }

  const sqlts::ProbePlan pplan = Timed(
      tracer, Layer::kPlan, [&] { return sqlts::ProbePlanner::Plan(query, footer); });
  SQLTS_ASSIGN_OR_RETURN(PatternPlan plan,
                         Timed(tracer, Layer::kPatternCompile, [&] {
                           return CompilePattern(pplan.query, exec.compile);
                         }));
  const sqlts::ZoneSkipper skipper = Timed(tracer, Layer::kZoneSkip, [&] {
    return sqlts::ZoneSkipper(pplan.query, footer, exec.compile.oracle);
  });
  // Null when the plan has no kernel-compilable element.
  std::unique_ptr<sqlts::VectorizedPlanEval> vec =
      Timed(tracer, Layer::kKernelCompile, [&] {
        return sqlts::VectorizedPlanEval::Create(plan, footer.schema);
      });
  SQLTS_RETURN_IF_ERROR(exec.governance.Check());

  const int num_clusters = static_cast<int>(footer.clusters.size());
  QueryResult result{Table(pplan.query.output_schema), SearchStats{},
                     sqlts::SearchTrace{}, plan, num_clusters, 0, {}};
  result.stats.blocks_total = static_cast<int64_t>(footer.blocks.size());
  const CompiledQuery& q = pplan.query;
  sqlts::KernelScratch scratch;
  SearchStats& stats = result.stats;
  int64_t rows_decoded = 0;
  for (int ci = 0; ci < num_clusters; ++ci) {
    const sqlts::ClusterMeta& cm = footer.clusters[ci];
    sqlts::ZoneDecision dec;
    {
      Tracer::Span span(tracer, Layer::kZoneSkip);
      if (skipper.enabled()) {
        dec = skipper.DecideCluster(ci);
      } else {
        dec.skip_block.assign(cm.num_blocks, false);
      }
    }
    if (dec.skip_cluster) {
      stats.blocks_skipped += cm.num_blocks;
      continue;
    }
    std::vector<sqlts::Row> rows;
    for (int b = 0; b < cm.num_blocks;) {
      if (dec.skip_block[b]) {
        ++stats.blocks_skipped;
        ++b;
        continue;
      }
      int eb = b;
      while (eb + 1 < cm.num_blocks && !dec.skip_block[eb + 1]) ++eb;
      SQLTS_ASSIGN_OR_RETURN(Table segment, Timed(tracer, Layer::kDecode, [&] {
                               return reader->ReadBlockRange(
                                   cm.first_block + b, eb - b + 1);
                             }));
      rows_decoded += segment.num_rows();
      std::vector<int64_t> idx(segment.num_rows());
      std::iota(idx.begin(), idx.end(), 0);
      SequenceView seq(&segment, std::move(idx));

      SearchStats sstats;
      std::vector<Match> matches;
      {
        Tracer::Span span(tracer, Layer::kOpsMatch);
        SearchOptions sopts;
        sopts.governance = &exec.governance;
        std::unique_ptr<sqlts::ElementEvaluator> vec_eval;
        if (vec != nullptr) {
          vec_eval = vec->MakeEvaluator();
          sopts.evaluator = vec_eval.get();
        }
        std::vector<uint64_t> candidates;
        if (pplan.anchor_kernel != nullptr) {
          candidates = BuildCandidates(pplan, seq, &scratch);
          sopts.candidate_starts = &candidates;
        }
        matches = sqlts::OpsSearch(seq, plan, &sstats, nullptr, sopts);
      }
      stats += sstats;
      {
        Tracer::Span span(tracer, Layer::kProject);
        for (const Match& match : matches) {
          rows.push_back(ProjectMatch(q, seq, match));
        }
      }
      b = eb + 1;
    }
    {
      Tracer::Span span(tracer, Layer::kProject);
      for (sqlts::Row& row : rows) {
        SQLTS_RETURN_IF_ERROR(result.output.AppendRow(std::move(row)));
      }
    }
    SQLTS_RETURN_IF_ERROR(exec.governance.Check());
  }
  result.stats.bytes_read += reader->bytes_read() - bytes_before;
  const SearchStats& s = result.stats;
  CountSearch(tracer, s);
  tracer->Count("colstore.blocks_total", static_cast<double>(s.blocks_total));
  tracer->Count("colstore.blocks_read",
                static_cast<double>(s.blocks_total - s.blocks_skipped));
  tracer->Count("colstore.bytes_read", static_cast<double>(s.bytes_read));
  tracer->Count("colstore.rows_decoded", static_cast<double>(rows_decoded));
  *out = std::move(result);
  return Status::OK();
}

Status CheckParity(const QueryResult& replayed, const QueryResult& reference) {
  std::string why;
  if (!SameRows(replayed.output, reference.output, &why)) {
    return Status::Internal("trace replay rows differ from the public call: " +
                            why);
  }
  if (!SameStats(replayed.stats, reference.stats)) {
    return Status::Internal(
        "trace replay SearchStats differ from the public call: " +
        StatsToString(replayed.stats) + " vs " +
        StatsToString(reference.stats));
  }
  return Status::OK();
}

}  // namespace e2e
