// E12 (extra) — CLUSTER BY scaling: per-cluster independence means cost
// scales linearly in total rows regardless of how they are partitioned,
// and makes clusters embarrassingly parallel: E12b sweeps the batch
// cluster loop's thread count over a many-cluster portfolio.

#include <chrono>
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace sqlts;
using namespace sqlts::bench_util;

const char kQuery[] =
    "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
    "AS (X, Y, Z) WHERE Y.price > 1.15 * X.price AND "
    "Z.price < 0.80 * Y.price";

Table Portfolio(int stocks, int64_t per, int seed_base) {
  Table t(QuoteSchema());
  Date d0 = *Date::Parse("1999-01-04");
  for (int s = 0; s < stocks; ++s) {
    RandomWalkOptions opt;
    opt.n = per;
    opt.daily_vol = 0.06;
    opt.seed = seed_base + s;
    SQLTS_CHECK_OK(AppendInstrument(&t, "S" + std::to_string(s), d0,
                                    GeometricRandomWalk(opt)));
  }
  return t;
}

void RunScalingSweep() {
  PrintHeader("E12: Example 1 over a growing portfolio (fixed 240k rows)");
  std::printf("%-10s %-12s %-9s %-12s %-12s %-8s\n", "stocks",
              "rows/stock", "matches", "naive_tests", "ops_tests",
              "speedup");
  const int64_t total_rows = 240000;
  for (int stocks : {1, 10, 100, 1000}) {
    int64_t per = total_rows / stocks;
    Table t = Portfolio(stocks, per, 10'000);
    Comparison c = CompareAlgorithms(t, kQuery);
    std::printf("%-10d %-12lld %-9lld %-12lld %-12lld %-8.2fx\n", stocks,
                static_cast<long long>(per),
                static_cast<long long>(c.matches),
                static_cast<long long>(c.naive_evals),
                static_cast<long long>(c.ops_evals), c.speedup());
  }
}

// Milder thresholds than kQuery so the 2000-row series produce matches
// and the cross-thread identical-output check is meaningful.
const char kSweepQuery[] =
    "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
    "AS (X, Y, Z) WHERE Y.price > 1.03 * X.price AND "
    "Z.price < 0.98 * Y.price";

void RunThreadSweep() {
  // 128 clusters x 2000 rows: enough independent work that the parallel
  // cluster loop's speedup is limited by cores, not by cluster count
  // (expect near-linear scaling on multi-core hosts; a single-core
  // container pins every thread count to ~1x).
  const int kStocks = 128;
  const int64_t kPer = 2000;
  PrintHeader("E12b: parallel batch thread sweep (128 clusters, 256k rows)");
  Table t = Portfolio(kStocks, kPer, 20'000);
  auto query = CompileQueryText(kSweepQuery, t.schema());
  SQLTS_CHECK_OK(query.status());

  std::printf("%-9s %-10s %-12s %-10s %-9s %-11s %-10s\n", "threads",
              "wall_ms", "tuples/s", "speedup", "matches", "identical",
              "workers");
  double base_ms = 0;
  std::string base_rows;
  for (int threads : {1, 2, 4, 8}) {
    ExecOptions opt;
    opt.num_threads = threads;
    // Warm once (pattern tables, allocator), then measure.
    auto r = QueryExecutor::ExecuteCompiled(t, *query, opt);
    SQLTS_CHECK_OK(r.status());
    auto t0 = std::chrono::steady_clock::now();
    r = QueryExecutor::ExecuteCompiled(t, *query, opt);
    auto t1 = std::chrono::steady_clock::now();
    SQLTS_CHECK_OK(r.status());
    double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    std::string rows;
    for (int64_t i = 0; i < r->output.num_rows(); ++i) {
      rows += r->output.at(i, 0).ToString() + ";";
    }
    if (threads == 1) {
      base_ms = ms;
      base_rows = rows;
    }
    const size_t workers = std::max<size_t>(1, r->shard_stats.size());
    std::printf("%-9d %-10.2f %-12.0f %-10.2f %-9lld %-11s %-10zu\n",
                threads, ms,
                static_cast<double>(t.num_rows()) * 1000.0 / ms,
                base_ms / ms,
                static_cast<long long>(r->stats.matches),
                rows == base_rows ? "yes" : "NO", workers);
  }
}

}  // namespace

int main() {
  RunScalingSweep();
  RunThreadSweep();
  return 0;
}
