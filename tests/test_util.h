#ifndef SQLTS_TESTS_TEST_UTIL_H_
#define SQLTS_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "engine/matcher.h"
#include "parser/analyzer.h"
#include "pattern/compile.h"
#include "storage/sequence.h"
#include "workload/generators.h"

namespace sqlts {
namespace testing_util {

/// Compiles `query` against the quote schema, aborting the test binary
/// on failure (use in fixtures where the query is a test constant).
inline CompiledQuery MustCompile(const std::string& query,
                                 const Schema& schema = QuoteSchema()) {
  auto q = CompileQueryText(query, schema);
  SQLTS_CHECK(q.ok()) << q.status() << " for query: " << query;
  return std::move(*q);
}

/// Compiles the pattern plan of `query`.
inline PatternPlan MustPlan(const std::string& query,
                            const Schema& schema = QuoteSchema(),
                            const CompileOptions& options = {}) {
  CompiledQuery q = MustCompile(query, schema);
  auto plan = CompilePattern(q, options);
  SQLTS_CHECK(plan.ok()) << plan.status();
  return std::move(*plan);
}

/// Builds a one-cluster sequence view over a price series.
struct SeriesFixture {
  Table table;
  std::vector<int64_t> rows;

  explicit SeriesFixture(const std::vector<double>& prices,
                         const std::string& name = "T")
      : table(PricesToQuoteTable(name, Date(10000), prices)) {
    for (int64_t r = 0; r < table.num_rows(); ++r) rows.push_back(r);
  }
  SequenceView view() const { return SequenceView(&table, rows); }
};

/// Clustered Example-style query over PortfolioStream: a falling run
/// followed by a rebound that stays 3% under the run's start.
inline constexpr char kPortfolioQuery[] =
    "SELECT X.name, FIRST(Y).date, COUNT(Y) FROM quote "
    "CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z) "
    "WHERE Y.price < Y.previous.price AND Z.price >= "
    "Z.previous.price AND Z.price < 0.97 * X.price";

/// `n` quote rows interleaving three instruments ("A", "B", "C") with a
/// seeded random walk, so kPortfolioQuery matches in every cluster.
inline std::vector<Row> PortfolioStream(int n) {
  std::vector<Row> rows;
  std::vector<std::string> names = {"A", "B", "C"};
  std::vector<double> price = {50, 43, 61};
  std::vector<Date> day = {Date(10000), Date(10000), Date(10000)};
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < n; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    int s = static_cast<int>((rng >> 33) % 3);
    price[s] *= 1.0 + (static_cast<double>((rng >> 13) % 9) - 4.0) / 100.0;
    rows.push_back({Value::String(names[s]), Value::FromDate(day[s]),
                    Value::Double(price[s])});
    day[s] = day[s].AddDays(1);
  }
  return rows;
}

/// Renders matches compactly for failure messages.
inline std::string MatchesToString(const std::vector<Match>& ms) {
  std::string out;
  for (const Match& m : ms) out += m.ToString() + " ";
  return out;
}

/// True when both matchers agree exactly (spans included).
inline bool SameMatches(const std::vector<Match>& a,
                        const std::vector<Match>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].spans.size() != b[i].spans.size()) return false;
    for (size_t e = 0; e < a[i].spans.size(); ++e) {
      if (a[i].spans[e].first != b[i].spans[e].first ||
          a[i].spans[e].last != b[i].spans[e].last) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace testing_util
}  // namespace sqlts

#endif  // SQLTS_TESTS_TEST_UTIL_H_
