#include "engine/explain.h"

#include <cstdio>
#include <sstream>

#include "analysis/linter.h"

namespace sqlts {
namespace {

void DescribeAnalysis(const PredicateAnalysis& a, std::ostringstream* os) {
  if (a.system.trivially_false()) {
    *os << "      constant FALSE conjunct present\n";
  }
  for (const LinearAtom& atom : a.system.linear()) {
    *os << "      linear atom: " << atom.ToString() << "\n";
  }
  for (const RatioAtom& atom : a.system.ratio()) {
    *os << "      ratio atom:  " << atom.ToString() << "\n";
  }
  for (const StringAtom& atom : a.system.strings()) {
    *os << "      string atom: " << atom.ToString() << "\n";
  }
  for (const auto& group : a.or_groups) {
    *os << "      OR group (" << group.disjuncts.size() << " disjuncts"
        << (group.single_atom_disjuncts ? ", negatable" : "") << "):\n";
    for (const ConstraintSystem& d : group.disjuncts) {
      *os << "        | " << d.ToString() << "\n";
    }
  }
  if (a.has_interval) {
    *os << "      interval view: v" << a.interval_var << " in "
        << a.interval.ToString() << "\n";
  }
  if (!a.complete) {
    *os << "      (incomplete: residue conjuncts evaluated at run time "
           "only)\n";
  }
}

}  // namespace

std::string ExplainQuery(const CompiledQuery& query, const PatternPlan& plan,
                         std::string_view source) {
  std::ostringstream os;
  os << "=== SQL-TS plan ===\n";
  os << "input:  " << query.table << " (" << query.input_schema.ToString()
     << ")\n";
  if (!query.cluster_by.empty()) {
    os << "cluster by:";
    for (const auto& c : query.cluster_by) os << " " << c;
    os << "\n";
  }
  if (!query.sequence_by.empty()) {
    os << "sequence by:";
    for (const auto& c : query.sequence_by) os << " " << c;
    os << "\n";
  }
  for (const ExprPtr& f : query.cluster_filters) {
    os << "cluster filter: " << f->ToString() << "\n";
  }
  os << "pattern (" << plan.m << " elements):\n";
  for (int j = 1; j <= plan.m; ++j) {
    const PatternElement& el = query.elements[j - 1];
    os << "  " << (plan.star[j] ? "*" : " ") << el.var << "  p" << j
       << " = "
       << (el.predicate == nullptr ? "TRUE" : el.predicate->ToString())
       << "\n";
    DescribeAnalysis(plan.analyses[j - 1], &os);
  }
  os << plan.ToString();
  // Static-analysis verdicts over the same θ/φ machinery.
  LintResult lint = LintQuery(query);
  os << "diagnostics: ";
  if (lint.diagnostics.empty()) {
    os << "none\n";
  } else {
    os << "\n" << RenderDiagnostics(lint.diagnostics, source);
  }
  os << "output: " << query.output_schema.ToString() << "\n";
  return os.str();
}

std::string FormatShardStats(const std::vector<ShardStats>& shards) {
  if (shards.empty()) return "single-threaded run (no shard stats)\n";
  std::ostringstream os;
  os << "shard  tuples      clusters  matches   evals       queue_hw\n";
  ShardStats total;
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardStats& st = shards[s];
    char line[128];
    std::snprintf(line, sizeof(line),
                  "%-6zu %-11lld %-9lld %-9lld %-11lld %lld\n", s,
                  static_cast<long long>(st.tuples_pushed),
                  static_cast<long long>(st.clusters),
                  static_cast<long long>(st.search.matches),
                  static_cast<long long>(st.search.evaluations),
                  static_cast<long long>(st.queue_high_water));
    os << line;
    total += st;
  }
  char line[128];
  std::snprintf(line, sizeof(line),
                "total  %-11lld %-9lld %-9lld %-11lld %lld\n",
                static_cast<long long>(total.tuples_pushed),
                static_cast<long long>(total.clusters),
                static_cast<long long>(total.search.matches),
                static_cast<long long>(total.search.evaluations),
                static_cast<long long>(total.queue_high_water));
  os << line;
  return os.str();
}

StatusOr<std::string> ExplainQueryText(std::string_view text,
                                       const Schema& schema,
                                       const CompileOptions& options) {
  SQLTS_ASSIGN_OR_RETURN(CompiledQuery query,
                         CompileQueryText(text, schema));
  SQLTS_ASSIGN_OR_RETURN(PatternPlan plan,
                         CompilePattern(query, options));
  return ExplainQuery(query, plan, text);
}

}  // namespace sqlts
