// Streaming query-executor tests: interleaved clusters, SELECT
// projection at match time, cluster filters, order enforcement, and
// agreement with the batch executor.

#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/stream_executor.h"
#include "test_util.h"

namespace sqlts {
namespace {

Row QuoteRow(const std::string& name, Date d, double price) {
  return {Value::String(name), Value::FromDate(d), Value::Double(price)};
}

TEST(StreamExecutor, ProjectsSelectAtMatchTime) {
  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.name, Y.date, Y.price FROM quote CLUSTER BY name "
      "SEQUENCE BY date AS (X, Y) WHERE Y.price > 1.1 * X.price",
      QuoteSchema(), [&](const Row& r) { rows.push_back(r); });
  ASSERT_TRUE(exec.ok()) << exec.status();
  Date d0 = *Date::Parse("1999-01-04");
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d0, 10)).ok());
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d0.AddDays(1), 12)).ok());
  (*exec)->Finish();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), "A");
  EXPECT_EQ(rows[0][1].date_value(), d0.AddDays(1));
  EXPECT_EQ(rows[0][2].double_value(), 12);
}

TEST(StreamExecutor, RoutesInterleavedClusters) {
  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price > X.price",
      QuoteSchema(), [&](const Row& r) { rows.push_back(r); });
  ASSERT_TRUE(exec.ok());
  Date d0 = *Date::Parse("1999-01-04");
  // Interleaved: A rises, B falls.
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d0, 10)).ok());
  ASSERT_TRUE((*exec)->Push(QuoteRow("B", d0, 20)).ok());
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d0.AddDays(1), 11)).ok());
  ASSERT_TRUE((*exec)->Push(QuoteRow("B", d0.AddDays(1), 19)).ok());
  (*exec)->Finish();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), "A");
  EXPECT_EQ((*exec)->num_clusters(), 2);
}

TEST(StreamExecutor, ClusterFilterSkipsWholeCluster) {
  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE X.name = 'IBM' AND Y.price > X.price",
      QuoteSchema(), [&](const Row& r) { rows.push_back(r); });
  ASSERT_TRUE(exec.ok()) << exec.status();
  Date d0 = *Date::Parse("1999-01-04");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        (*exec)->Push(QuoteRow("INTC", d0.AddDays(i), 10 + i)).ok());
    ASSERT_TRUE(
        (*exec)->Push(QuoteRow("IBM", d0.AddDays(i), 10 + i)).ok());
  }
  (*exec)->Finish();
  EXPECT_EQ(rows.size(), 2u);  // IBM only: rises at (0,1), (2,3)
  // Filtered clusters do no matching work.
  SearchStats s = (*exec)->stats();
  EXPECT_LE(s.evaluations, 10);
}

TEST(StreamExecutor, RejectsOutOfOrderTuples) {
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price > X.price",
      QuoteSchema(), nullptr);
  ASSERT_TRUE(exec.ok());
  Date d0 = *Date::Parse("1999-01-05");
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d0, 10)).ok());
  // Earlier date in the same cluster: rejected.
  EXPECT_EQ((*exec)->Push(QuoteRow("A", d0.AddDays(-1), 11)).code(),
            StatusCode::kInvalidArgument);
  // Same date (a tie) is fine, and another cluster is independent.
  EXPECT_TRUE((*exec)->Push(QuoteRow("A", d0, 12)).ok());
  EXPECT_TRUE((*exec)->Push(QuoteRow("B", d0.AddDays(-2), 1)).ok());
}

TEST(StreamExecutor, NullSequenceKeyAfterValueIsOutOfOrder) {
  // Batch sorts NULL keys first, so a NULL after a dated tuple regresses
  // and the guard must reject it rather than accept it and then skip the
  // check for the tuple after it.
  const std::string query =
      "SELECT X.price, Y.price FROM quote CLUSTER BY name SEQUENCE BY "
      "date AS (X, Y) WHERE Y.price < X.price";
  const Date d0 = *Date::Parse("1999-01-04");
  const Row a_late = QuoteRow("A", d0.AddDays(2), 10);
  const Row a_null = {Value::String("A"), Value::Null(), Value::Double(5)};
  const Row a_early = QuoteRow("A", d0, 20);

  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      query, QuoteSchema(), [&](const Row& r) { rows.push_back(r); });
  ASSERT_TRUE(exec.ok()) << exec.status();
  ASSERT_TRUE((*exec)->Push(a_late).ok());
  EXPECT_EQ((*exec)->Push(a_null).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*exec)->Push(a_early).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE((*exec)->Finish().ok());
  EXPECT_TRUE(rows.empty());

  // Under skip-and-count both regressions are dropped.
  ExecOptions skip;
  skip.governance.bad_input = BadInputPolicy::kSkipAndCount;
  auto lenient = StreamingQueryExecutor::Create(query, QuoteSchema(),
                                                nullptr, skip);
  ASSERT_TRUE(lenient.ok()) << lenient.status();
  for (const Row& r : {a_late, a_null, a_early}) {
    ASSERT_TRUE((*lenient)->Push(r).ok());
  }
  EXPECT_EQ((*lenient)->rows_skipped(), 2);
}

TEST(StreamExecutor, IntCellsOfDoubleSequenceColumnCompareAsDoubles) {
  // CheckRow admits int64 cells in a double column; the guard orders
  // them as the doubles AppendRow will store.
  Schema s;
  ASSERT_TRUE(s.AddColumn("t", TypeKind::kDouble).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kDouble).ok());
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.v FROM s SEQUENCE BY t AS (X, Y) WHERE Y.v > X.v", s,
      nullptr);
  ASSERT_TRUE(exec.ok()) << exec.status();
  auto push = [&](Value t) {
    return (*exec)->Push({std::move(t), Value::Double(1)});
  };
  ASSERT_TRUE(push(Value::Int64(3)).ok());
  EXPECT_EQ(push(Value::Double(2.5)).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(push(Value::Double(3.0)).ok());
  EXPECT_EQ(push(Value::Int64(2)).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(push(Value::Int64(4)).ok());
}

TEST(StreamExecutor, NullSequenceKeysFirstAgreeWithBatch) {
  // Pushed in batch order (NULL keys first, NULL ties in arrival
  // order), every tuple is accepted and the output matches batch.
  const std::string query =
      "SELECT X.price, Y.price FROM quote CLUSTER BY name SEQUENCE BY "
      "date AS (X, Y) WHERE Y.price < X.price";
  const Date d0 = *Date::Parse("1999-01-04");
  Table table(QuoteSchema());
  ASSERT_TRUE(table.AppendRow({Value::String("A"), Value::Null(),
                               Value::Double(9)}).ok());
  ASSERT_TRUE(table.AppendRow({Value::String("A"), Value::Null(),
                               Value::Double(7)}).ok());
  ASSERT_TRUE(table.AppendRow(QuoteRow("A", d0, 8)).ok());
  ASSERT_TRUE(table.AppendRow(QuoteRow("A", d0.AddDays(1), 3)).ok());
  auto batch = QueryExecutor::Execute(table, query);
  ASSERT_TRUE(batch.ok()) << batch.status();

  std::vector<std::string> streamed;
  auto exec = StreamingQueryExecutor::Create(
      query, QuoteSchema(), [&](const Row& r) {
        streamed.push_back(r[0].ToString() + "|" + r[1].ToString());
      });
  ASSERT_TRUE(exec.ok()) << exec.status();
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    ASSERT_TRUE((*exec)->Push(table.GetRow(r)).ok()) << "row " << r;
  }
  ASSERT_TRUE((*exec)->Finish().ok());
  std::vector<std::string> batched;
  for (int64_t r = 0; r < batch->output.num_rows(); ++r) {
    batched.push_back(batch->output.at(r, 0).ToString() + "|" +
                      batch->output.at(r, 1).ToString());
  }
  EXPECT_EQ(streamed, batched);
  EXPECT_EQ(streamed, (std::vector<std::string>{"9|7", "8|3"}));
}

/// Pushes `rows` through the streaming executor and runs the same table
/// in batch; both must report the same output rows and clusters.
void ExpectDoubleKeyRoutingMatchesBatch(const std::vector<Row>& rows,
                                        int want_matches, int want_clusters) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("k", TypeKind::kDouble).ok());
  ASSERT_TRUE(s.AddColumn("seq", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("price", TypeKind::kDouble).ok());
  const std::string query =
      "SELECT X.price, Y.price FROM t CLUSTER BY k SEQUENCE BY seq "
      "AS (X, Y) WHERE Y.price < X.price";
  Table table(s);
  for (const Row& r : rows) ASSERT_TRUE(table.AppendRow(r).ok());
  auto batch = QueryExecutor::Execute(table, query);
  ASSERT_TRUE(batch.ok()) << batch.status();
  std::vector<std::string> batched;
  for (int64_t r = 0; r < batch->output.num_rows(); ++r) {
    batched.push_back(batch->output.at(r, 0).ToString() + "|" +
                      batch->output.at(r, 1).ToString());
  }
  std::vector<std::string> streamed;
  auto exec = StreamingQueryExecutor::Create(query, s, [&](const Row& r) {
    streamed.push_back(r[0].ToString() + "|" + r[1].ToString());
  });
  ASSERT_TRUE(exec.ok()) << exec.status();
  for (const Row& r : rows) ASSERT_TRUE((*exec)->Push(r).ok());
  ASSERT_TRUE((*exec)->Finish().ok());
  EXPECT_EQ(batch->num_clusters, want_clusters);
  EXPECT_EQ(static_cast<int>(batched.size()), want_matches);
  EXPECT_EQ((*exec)->num_clusters(), batch->num_clusters);
  EXPECT_EQ(streamed, batched);
}

TEST(StreamExecutor, DoubleClusterKeysRouteByExactValue) {
  // 1.0000001 and 1.0000002 are two keys; a 6-digit rendering of the
  // route key would merge them and report `10 | 5`.
  ExpectDoubleKeyRoutingMatchesBatch(
      {{Value::Double(1.0000001), Value::Int64(1), Value::Double(10)},
       {Value::Double(1.0000002), Value::Int64(2), Value::Double(5)}},
      /*want_matches=*/0, /*want_clusters=*/2);
}

TEST(StreamExecutor, DoubleClusterKeysRouteLikeBatchEquality) {
  // -0.0 and 0.0 are one key, as are two NaNs ...
  ExpectDoubleKeyRoutingMatchesBatch(
      {{Value::Double(-0.0), Value::Int64(1), Value::Double(10)},
       {Value::Double(0.0), Value::Int64(2), Value::Double(5)}},
      /*want_matches=*/1, /*want_clusters=*/1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExpectDoubleKeyRoutingMatchesBatch(
      {{Value::Double(nan), Value::Int64(1), Value::Double(10)},
       {Value::Double(-nan), Value::Int64(2), Value::Double(5)}},
      /*want_matches=*/1, /*want_clusters=*/1);
  // ... and an int64 cell of the double column is the double it stores.
  ExpectDoubleKeyRoutingMatchesBatch(
      {{Value::Int64(3), Value::Int64(1), Value::Double(10)},
       {Value::Double(3.0), Value::Int64(2), Value::Double(5)},
       {Value::Int64(4), Value::Int64(3), Value::Double(1)}},
      /*want_matches=*/1, /*want_clusters=*/2);
}

TEST(StreamExecutor, AdversarialClusterKeysStayDistinct) {
  // Under separator-concatenation key encoding these two key tuples
  // collide: ('a'<US>'b', 'c') and ('a', 'b'<US>'c') both render as
  // 'a'<US>'b'<US>'c' because ToString neither escapes quotes nor
  // guards the separator.  Length-prefixed encoding keeps them apart.
  Schema s;
  ASSERT_TRUE(s.AddColumn("k1", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("k2", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("seq", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kDouble).ok());
  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.k1 FROM t CLUSTER BY k1, k2 SEQUENCE BY seq "
      "AS (X, Y) WHERE Y.v > X.v",
      s, [&](const Row& r) { rows.push_back(r); });
  ASSERT_TRUE(exec.ok()) << exec.status();
  const std::string a1 = "a'\x1f'b", a2 = "c";   // cluster A: rises
  const std::string b1 = "a", b2 = "b'\x1f'c";   // cluster B: falls
  auto push = [&](const std::string& k1, const std::string& k2,
                  int64_t seq, double v) {
    return (*exec)->Push({Value::String(k1), Value::String(k2),
                          Value::Int64(seq), Value::Double(v)});
  };
  ASSERT_TRUE(push(a1, a2, 1, 1).ok());
  ASSERT_TRUE(push(b1, b2, 1, 9).ok());
  ASSERT_TRUE(push(a1, a2, 2, 2).ok());
  ASSERT_TRUE(push(b1, b2, 2, 5).ok());
  (*exec)->Finish();
  // Merged into one cluster the stream 1,9,2,5 yields two rises; kept
  // apart it is one rise (cluster A) and none (cluster B).
  EXPECT_EQ((*exec)->num_clusters(), 2);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), a1);
}

TEST(StreamExecutor, RejectsRegressionOnSecondarySequenceColumn) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("name", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("a", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("b", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kDouble).ok());
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.v FROM t CLUSTER BY name SEQUENCE BY a, b "
      "AS (X, Y) WHERE Y.v > X.v",
      s, nullptr);
  ASSERT_TRUE(exec.ok()) << exec.status();
  auto push = [&](int64_t a, int64_t b) {
    return (*exec)->Push({Value::String("G"), Value::Int64(a),
                          Value::Int64(b), Value::Double(1)});
  };
  ASSERT_TRUE(push(1, 5).ok());
  // Primary ties, secondary regresses: out of order.
  EXPECT_EQ(push(1, 3).code(), StatusCode::kInvalidArgument);
  // Full-tuple tie is fine.
  EXPECT_TRUE(push(1, 5).ok());
  // Primary advances; the secondary may restart.
  EXPECT_TRUE(push(2, 0).ok());
  // Primary regression is still caught.
  EXPECT_EQ(push(1, 9).code(), StatusCode::kInvalidArgument);
}

TEST(StreamExecutor, RejectsLookahead) {
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X) "
      "WHERE X.next.price > X.price",
      QuoteSchema(), nullptr);
  EXPECT_EQ(exec.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamExecutor, AgreesWithBatchExecutorOnPortfolio) {
  // Multi-stock random data, pushed interleaved; outputs must match the
  // batch executor row-for-row (same order: batch iterates clusters by
  // first appearance and matches left-to-right; we compare as multisets
  // of printed rows to stay order-agnostic).
  const std::string query =
      "SELECT X.name, FIRST(Y).date, COUNT(Y) FROM quote "
      "CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z) "
      "WHERE Y.price < Y.previous.price AND Z.price >= "
      "Z.previous.price AND Z.price < 0.97 * X.price";
  Table table(QuoteSchema());
  std::mt19937_64 rng(7);
  Date d0 = *Date::Parse("1999-01-04");
  std::vector<std::string> names = {"A", "B", "C"};
  std::vector<double> price = {50, 50, 50};
  std::vector<Date> day = {d0, d0, d0};
  for (int i = 0; i < 900; ++i) {
    int s = static_cast<int>(rng() % 3);
    price[s] *= 1.0 + (static_cast<double>(rng() % 9) - 4.0) / 100.0;
    ASSERT_TRUE(
        table.AppendRow(QuoteRow(names[s], day[s], price[s])).ok());
    day[s] = day[s].AddDays(1);
  }

  auto batch = QueryExecutor::Execute(table, query);
  ASSERT_TRUE(batch.ok()) << batch.status();

  std::multiset<std::string> streamed;
  auto exec = StreamingQueryExecutor::Create(
      query, table.schema(), [&](const Row& r) {
        std::string key;
        for (const Value& v : r) key += v.ToString() + "|";
        streamed.insert(key);
      });
  ASSERT_TRUE(exec.ok()) << exec.status();
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    ASSERT_TRUE((*exec)->Push(table.GetRow(r)).ok());
  }
  (*exec)->Finish();

  std::multiset<std::string> batched;
  for (int64_t r = 0; r < batch->output.num_rows(); ++r) {
    std::string key;
    for (int c = 0; c < batch->output.schema().num_columns(); ++c) {
      key += batch->output.at(r, c).ToString() + "|";
    }
    batched.insert(key);
  }
  EXPECT_EQ(streamed, batched);
  EXPECT_EQ((*exec)->stats().matches, batch->stats.matches);
}

TEST(StreamExecutor, EvictionKeepsTuplesTheSelectListNavigatesTo) {
  // 4,097 falling prices, then a jump: the only match is X = tuple
  // 4,096, Y = tuple 4,097, and SELECT reads X.previous = tuple 4,095.
  // The matcher evicts once 4,096 tuples lie before the attempt's
  // reachable window, so that window must cover the SELECT list's
  // navigation too, not only the WHERE predicates'.
  const std::string query =
      "SELECT X.previous.price, X.price, Y.price FROM quote "
      "CLUSTER BY name SEQUENCE BY date AS (X, Y) "
      "WHERE X.price < 30000 AND Y.price > 40000";
  Table table(QuoteSchema());
  Date d0 = *Date::Parse("1990-01-01");
  for (int i = 0; i < 4097; ++i) {
    ASSERT_TRUE(table.AppendRow(QuoteRow("A", d0.AddDays(i), 20000 - i)).ok());
  }
  ASSERT_TRUE(table.AppendRow(QuoteRow("A", d0.AddDays(4097), 50000)).ok());
  auto batch = QueryExecutor::Execute(table, query);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->output.num_rows(), 1);
  EXPECT_EQ(batch->output.at(0, 0).double_value(), 15905);

  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      query, QuoteSchema(), [&](const Row& r) { rows.push_back(r); });
  ASSERT_TRUE(exec.ok()) << exec.status();
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    ASSERT_TRUE((*exec)->Push(table.GetRow(r)).ok());
  }
  ASSERT_TRUE((*exec)->Finish().ok());
  ASSERT_EQ(rows.size(), 1u);
  const Row want = batch->output.GetRow(0);
  ASSERT_EQ(rows[0].size(), want.size());
  for (size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(rows[0][c].ToString(), want[c].ToString()) << "column " << c;
  }
}

TEST(StreamExecutor, OutputSchemaExposed) {
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.name, COUNT(Y) AS n FROM quote CLUSTER BY name "
      "SEQUENCE BY date AS (X, *Y) WHERE Y.price < Y.previous.price",
      QuoteSchema(), nullptr);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ((*exec)->output_schema().num_columns(), 2);
  EXPECT_EQ((*exec)->output_schema().column(1).name, "n");
}

}  // namespace
}  // namespace sqlts
