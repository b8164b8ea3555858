// E8 — ablations over the optimizer's design choices:
//   * full OPS (shift + next + presatisfied skips)
//   * shift-only (next degraded to 0/1)
//   * no GSW reasoning (interval oracle only)
//   * no reasoning at all (all-U matrices: the sound minimum)

#include <cstdio>

#include "bench_util.h"

namespace sqlts {
namespace {

int64_t OpsEvals(const Table& t, const std::string& query,
                 const CompileOptions& copts) {
  ExecOptions opt;
  opt.compile = copts;
  opt.algorithm = SearchAlgorithm::kOps;
  auto r = QueryExecutor::Execute(t, query, opt);
  SQLTS_CHECK(r.ok()) << r.status();
  return r->stats.evaluations;
}

}  // namespace
}  // namespace sqlts

int main() {
  using namespace sqlts;
  using namespace sqlts::bench_util;

  Date start = *Date::Parse("1974-01-02");
  Table djia = PricesToQuoteTable("DJIA", start, SynthesizeDjia(6300));
  const std::string query = PaperExampleQuery(10);

  PrintHeader("E8a: optimizer ablations (Example 10 on synthetic DJIA)");
  Comparison base = CompareAlgorithms(djia, query);
  std::printf("%-26s %12s %10s\n", "configuration", "tests",
              "vs naive");
  auto row = [&](const char* label, int64_t evals) {
    std::printf("%-26s %12lld %9.2fx\n", label,
                static_cast<long long>(evals),
                static_cast<double>(base.naive_evals) /
                    static_cast<double>(evals));
  };
  row("naive baseline", base.naive_evals);

  CompileOptions full;
  row("OPS full", OpsEvals(djia, query, full));

  CompileOptions shift_only;
  shift_only.enable_next = false;
  row("OPS shift-only", OpsEvals(djia, query, shift_only));

  CompileOptions no_gsw;
  no_gsw.oracle.use_gsw = false;
  row("OPS intervals-only", OpsEvals(djia, query, no_gsw));

  CompileOptions no_intervals;
  no_intervals.oracle.use_intervals = false;
  row("OPS gsw-only", OpsEvals(djia, query, no_intervals));

  CompileOptions nothing;
  nothing.oracle.use_gsw = false;
  nothing.oracle.use_intervals = false;
  row("OPS all-U (no oracle)", OpsEvals(djia, query, nothing));

  return 0;
}
