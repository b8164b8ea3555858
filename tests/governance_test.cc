// Resource-governance tests: buffered tuple/byte budgets degrade
// never-completing patterns into kResourceExhausted instead of
// unbounded growth, deadlines surface kDeadlineExceeded, cancellation
// returns within one push, and BadInputPolicy controls whether
// malformed rows fail fast or are skipped and counted.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/governance.h"
#include "engine/executor.h"
#include "engine/stream_executor.h"
#include "test_util.h"

namespace sqlts {
namespace {

Row QuoteRow(const std::string& name, Date d, double price) {
  return {Value::String(name), Value::FromDate(d), Value::Double(price)};
}

/// A pattern whose star group accepts every tuple: the attempt never
/// completes and never fails, so without a budget the matcher would
/// buffer the entire (unbounded) stream.
const char kNeverCompleting[] =
    "SELECT X.price, COUNT(Y) FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, *Y, Z) "
    "WHERE Y.price >= 0 AND Z.price < 0";

StatusOr<std::unique_ptr<StreamingQueryExecutor>> MakeExec(
    const ExecOptions& options, const char* query = kNeverCompleting) {
  return StreamingQueryExecutor::Create(query, QuoteSchema(),
                                        [](const Row&) {}, options);
}

TEST(Governance, TupleBudgetSurfacesResourceExhausted) {
  ExecOptions options;
  options.governance.max_buffered_tuples = 64;
  auto exec = MakeExec(options);
  ASSERT_TRUE(exec.ok()) << exec.status();
  Date d(10000);
  Status st;
  int pushes = 0;
  // All prices positive: Y consumes forever, Z never satisfies.
  while (st.ok() && pushes < 10000) {
    st = (*exec)->Push(QuoteRow("A", d.AddDays(pushes), 1.0 + pushes));
    ++pushes;
  }
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  // The breach surfaced within one push of crossing the budget, not
  // after thousands of buffered tuples.
  EXPECT_LT(pushes, 128);
}

TEST(Governance, TupleBudgetBoundsShardedBuffering) {
  // With num_threads > 1 matcher errors surface at the Finish barrier,
  // but the breached shard stops buffering immediately: memory stays
  // bounded no matter how many more tuples the producer pushes.
  ExecOptions options;
  options.num_threads = 4;
  options.governance.max_buffered_tuples = 64;
  auto exec = MakeExec(options);
  ASSERT_TRUE(exec.ok()) << exec.status();
  Date d(10000);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE((*exec)->Push(QuoteRow("A", d.AddDays(i), 1.0 + i)).ok());
  }
  EXPECT_EQ((*exec)->Finish().code(), StatusCode::kResourceExhausted);
  int64_t peak = 0;
  for (const ShardStats& s : (*exec)->shard_stats()) {
    peak += s.buffered_tuples_high;
  }
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, 64 + 8) << "buffering must stop at the budget breach";
}

TEST(Governance, ByteBudgetSurfacesResourceExhausted) {
  ExecOptions options;
  options.governance.max_buffered_bytes = 4096;
  auto exec = MakeExec(options);
  ASSERT_TRUE(exec.ok());
  Date d(10000);
  Status st;
  int pushes = 0;
  while (st.ok() && pushes < 10000) {
    st = (*exec)->Push(QuoteRow("A", d.AddDays(pushes), 1.0));
    ++pushes;
  }
  if (st.ok()) st = (*exec)->Finish();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_LT(pushes, 1000);
}

TEST(Governance, BudgetSharedAcrossClusters) {
  // The budget is per query, not per cluster: many small clusters must
  // still trip a shared 64-tuple ceiling.
  ExecOptions options;
  options.governance.max_buffered_tuples = 64;
  auto exec = MakeExec(options);
  ASSERT_TRUE(exec.ok());
  Date d(10000);
  Status st;
  int pushes = 0;
  while (st.ok() && pushes < 10000) {
    st = (*exec)->Push(QuoteRow("C" + std::to_string(pushes % 16),
                                d.AddDays(pushes / 16), 1.0));
    ++pushes;
  }
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_LT(pushes, 128);
}

TEST(Governance, DeadlineSurfacesDeadlineExceeded) {
  ExecOptions options;
  options.governance.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto exec = MakeExec(options);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ((*exec)->Push(QuoteRow("A", Date(10000), 1.0)).code(),
            StatusCode::kDeadlineExceeded);
}

TEST(Governance, CancellationReturnsWithinOnePush) {
  for (int threads : {1, 4}) {
    ExecOptions options;
    options.num_threads = threads;
    CancelToken token = CancelToken::Cancellable();
    options.governance.cancel = token;
    auto exec = MakeExec(options);
    ASSERT_TRUE(exec.ok());
    Date d(10000);
    ASSERT_TRUE((*exec)->Push(QuoteRow("A", d, 1.0)).ok());
    token.RequestCancel();
    EXPECT_EQ((*exec)->Push(QuoteRow("A", d.AddDays(1), 2.0)).code(),
              StatusCode::kCancelled)
        << "threads=" << threads;
    EXPECT_EQ((*exec)->Finish().code(), StatusCode::kCancelled);
  }
}

TEST(Governance, FinishNeverReportsAPartialCloseOutAsOk) {
  // Every match completes only at end of stream (a rising star group
  // runs to the last tuple), so all rows are emitted during Finish's
  // close-out — where the row callback requests cancellation.
  const char* query =
      "SELECT X.price, COUNT(Y) FROM quote CLUSTER BY name "
      "SEQUENCE BY date AS (X, *Y) WHERE Y.price > Y.previous.price";
  for (int threads : {1, 4}) {
    auto run = [&](bool cancel_on_row, Status* finish) {
      ExecOptions options;
      options.num_threads = threads;
      CancelToken token = CancelToken::Cancellable();
      options.governance.cancel = token;
      size_t rows = 0;
      auto exec = StreamingQueryExecutor::Create(
          query, QuoteSchema(),
          [&](const Row&) {
            ++rows;
            if (cancel_on_row) token.RequestCancel();
          },
          options);
      EXPECT_TRUE(exec.ok()) << exec.status();
      Date d(10000);
      for (int i = 0; i < 5; ++i) {
        for (const char* name : {"A", "B", "C"}) {
          Status pushed = (*exec)->Push(QuoteRow(name, d.AddDays(i), 1.0 + i));
          EXPECT_TRUE(pushed.ok()) << pushed;
        }
      }
      *finish = (*exec)->Finish();
      return rows;
    };
    Status full_status, cancelled_status;
    const size_t full = run(false, &full_status);
    ASSERT_TRUE(full_status.ok()) << full_status;
    ASSERT_EQ(full, 3u);
    const size_t delivered = run(true, &cancelled_status);
    if (delivered < full) {
      EXPECT_EQ(cancelled_status.code(), StatusCode::kCancelled)
          << "threads=" << threads << ": " << delivered << " of " << full
          << " rows delivered";
    }
  }
}

TEST(Governance, BatchExecutorHonorsGovernance) {
  Table table(QuoteSchema());
  Date d(10000);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(table.AppendRow(QuoteRow("A", d.AddDays(i), i)).ok());
  }
  const char* query =
      "SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price > X.price";

  ExecOptions cancelled;
  CancelToken token = CancelToken::Cancellable();
  cancelled.governance.cancel = token;
  token.RequestCancel();
  EXPECT_EQ(QueryExecutor::Execute(table, query, cancelled).status().code(),
            StatusCode::kCancelled);

  ExecOptions late;
  late.governance.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(QueryExecutor::Execute(table, query, late).status().code(),
            StatusCode::kDeadlineExceeded);

  // Sharded batch execution honors the same controls.
  ExecOptions sharded = late;
  sharded.num_threads = 4;
  EXPECT_EQ(QueryExecutor::Execute(table, query, sharded).status().code(),
            StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// BadInputPolicy.
// ---------------------------------------------------------------------------

const char kRiseQuery[] =
    "SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date "
    "AS (X, Y) WHERE Y.price > X.price";

TEST(BadInput, FailFastRejectsMalformedRows) {
  auto exec = StreamingQueryExecutor::Create(kRiseQuery, QuoteSchema(),
                                             [](const Row&) {});
  ASSERT_TRUE(exec.ok());
  Date d(10000);
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d, 1.0)).ok());
  // Wrong arity.
  EXPECT_EQ((*exec)->Push({Value::String("A")}).code(),
            StatusCode::kInvalidArgument);
  // Wrong type (string where DOUBLE expected).
  EXPECT_EQ((*exec)
                ->Push({Value::String("A"), Value::FromDate(d.AddDays(1)),
                        Value::String("oops")})
                .code(),
            StatusCode::kTypeError);
  // SEQUENCE BY regression.
  EXPECT_EQ((*exec)->Push(QuoteRow("A", d.AddDays(-1), 2.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*exec)->rows_skipped(), 0);
}

TEST(BadInput, SkipAndCountDropsMalformedRowsOnly) {
  for (int threads : {1, 4}) {
    std::vector<Row> rows;
    ExecOptions options;
    options.num_threads = threads;
    options.governance.bad_input = BadInputPolicy::kSkipAndCount;
    auto exec = StreamingQueryExecutor::Create(
        kRiseQuery, QuoteSchema(), [&](const Row& r) { rows.push_back(r); },
        options);
    ASSERT_TRUE(exec.ok()) << exec.status();
    Date d(10000);
    ASSERT_TRUE((*exec)->Push(QuoteRow("A", d, 1.0)).ok());
    // Three malformed rows: arity, type, order.  All skipped, all OK.
    EXPECT_TRUE((*exec)->Push({Value::String("A")}).ok());
    EXPECT_TRUE((*exec)
                    ->Push({Value::String("A"), Value::FromDate(d.AddDays(1)),
                            Value::String("oops")})
                    .ok());
    EXPECT_TRUE((*exec)->Push(QuoteRow("A", d.AddDays(-1), 99.0)).ok());
    // The stream continues as if they never arrived.
    ASSERT_TRUE((*exec)->Push(QuoteRow("A", d.AddDays(2), 2.0)).ok());
    ASSERT_TRUE((*exec)->Finish().ok());
    EXPECT_EQ((*exec)->rows_skipped(), 3) << "threads=" << threads;
    EXPECT_EQ((*exec)->rows_consumed(), 5) << "threads=" << threads;
    ASSERT_EQ(rows.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(rows[0][0].double_value(), 1.0);
    // The counter is surfaced through the shard stats as well.
    int64_t skipped = 0;
    for (const ShardStats& s : (*exec)->shard_stats()) {
      skipped += s.rows_skipped;
    }
    EXPECT_EQ(skipped, 3) << "threads=" << threads;
  }
}

TEST(BadInput, SkippedRowsSurviveCheckpointRestore) {
  ExecOptions options;
  options.governance.bad_input = BadInputPolicy::kSkipAndCount;
  auto exec = StreamingQueryExecutor::Create(kRiseQuery, QuoteSchema(),
                                             [](const Row&) {}, options);
  ASSERT_TRUE(exec.ok());
  Date d(10000);
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d, 1.0)).ok());
  ASSERT_TRUE((*exec)->Push({Value::String("A")}).ok());  // skipped
  std::string bytes;
  ASSERT_TRUE((*exec)->Checkpoint(&bytes).ok());

  auto resumed = StreamingQueryExecutor::Create(kRiseQuery, QuoteSchema(),
                                                [](const Row&) {}, options);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE((*resumed)->Restore(bytes).ok());
  EXPECT_EQ((*resumed)->rows_consumed(), 2);
  EXPECT_EQ((*resumed)->rows_skipped(), 1);
}

TEST(BadInput, Int64CoercesToDoubleColumn) {
  // Mirrors Table::AppendRow's coercion rule: an INT64 value in a
  // DOUBLE column is well-formed input, not a type mismatch.
  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      kRiseQuery, QuoteSchema(), [&](const Row& r) { rows.push_back(r); });
  ASSERT_TRUE(exec.ok());
  Date d(10000);
  ASSERT_TRUE((*exec)
                  ->Push({Value::String("A"), Value::FromDate(d),
                          Value::Int64(1)})
                  .ok());
  ASSERT_TRUE((*exec)
                  ->Push({Value::String("A"), Value::FromDate(d.AddDays(1)),
                          Value::Int64(2)})
                  .ok());
  ASSERT_TRUE((*exec)->Finish().ok());
  EXPECT_EQ(rows.size(), 1u);
}

TEST(BadInput, CsvSkipCounterSurfacesInQueryResult) {
  // End-to-end: a dirty CSV feeds a batch query; under kSkipAndCount
  // the dropped records surface in QueryResult::rows_skipped.
  const std::string path = ::testing::TempDir() + "/sqlts_bad_input.csv";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "name,date,price\n"
        << "A,1999-01-04,10\n"
        << "A,1999-01-05\n"          // wrong arity
        << "A,1999-01-06,11\n"
        << "A,notadate,12\n";        // unparseable value
  }
  ExecOptions options;
  options.governance.bad_input = BadInputPolicy::kSkipAndCount;
  auto result = QueryExecutor::ExecuteCsvFile(path, QuoteSchema(),
                                              kRiseQuery, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows_skipped, 2);
  EXPECT_EQ(result->output.num_rows(), 1);  // 10 -> 11 rise
  // Fail-fast (the default) rejects the same file outright.
  EXPECT_EQ(QueryExecutor::ExecuteCsvFile(path, QuoteSchema(), kRiseQuery)
                .status()
                .code(),
            StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(BadInput, NullsAreWellFormed) {
  // NULL is allowed in any column (three-valued logic handles it); it
  // must not trip the malformed-row path.
  auto exec = StreamingQueryExecutor::Create(kRiseQuery, QuoteSchema(),
                                             [](const Row&) {});
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE((*exec)
                  ->Push({Value::String("A"), Value::FromDate(Date(10000)),
                          Value::Null()})
                  .ok());
}

}  // namespace
}  // namespace sqlts
