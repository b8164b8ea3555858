/// Shared multi-query execution (src/multiquery/): per-query results
/// must be bit-identical to independent runs (batch and streaming, any
/// thread count) while the predicate catalog and per-cluster memo
/// actually share work — and every merge level must refuse pairs whose
/// NULL or domain behavior it cannot prove identical.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <thread>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "engine/stream_executor.h"
#include "gtest/gtest.h"
#include "multiquery/multi_executor.h"
#include "multiquery/multi_stream.h"
#include "multiquery/predicate_catalog.h"
#include "multiquery/queryset_lint.h"
#include "multiquery/shared_cache.h"
#include "test_util.h"
#include "workload/generators.h"

namespace sqlts {
namespace {

std::vector<std::string> RowStrings(const Table& t) {
  std::vector<std::string> out;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string s;
    for (int c = 0; c < t.schema().num_columns(); ++c) {
      if (c) s += '|';
      s += t.at(r, c).ToString();
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string RowString(const Row& row) {
  std::string s;
  for (size_t c = 0; c < row.size(); ++c) {
    if (c) s += '|';
    s += row[c].ToString();
  }
  return s;
}

/// Three instruments with enough structure for overlapping patterns.
Table MultiInstrumentTable() {
  Table t = PricesToQuoteTable(
      "IBM", Date(10000),
      {100, 98, 95, 93, 96, 99, 103, 101, 97, 94, 92, 95, 99, 104, 102});
  SQLTS_CHECK_OK(AppendInstrument(
      &t, "HP", Date(10000),
      {50, 49, 47, 48, 51, 53, 52, 50, 48, 46, 47, 50, 54, 55, 53}));
  SQLTS_CHECK_OK(AppendInstrument(
      &t, "SUN", Date(10000),
      {20, 21, 19, 18, 17, 18, 20, 22, 21, 19, 18, 20, 23, 24, 22}));
  return t;
}

/// Overlapping workload: shared conjuncts across queries (the falling
/// leg appears three times, once duplicated exactly) plus a LIMIT query.
std::vector<std::string> OverlappingQueries() {
  return {
      "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
      "SELECT X.name, Z.date FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y, Z) WHERE Y.price < 0.97 * X.price AND Z.price > Y.price",
      "SELECT X.name, Y.price FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
      "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.95 * X.price LIMIT 3",
  };
}

// ---------------------------------------------------------------------------
// Batch equivalence.
// ---------------------------------------------------------------------------

TEST(MultiQueryBatch, BitIdenticalToIndependentRunsAtAnyThreadCount) {
  Table data = MultiInstrumentTable();
  std::vector<std::string> queries = OverlappingQueries();

  std::vector<std::vector<std::string>> independent;
  std::vector<int64_t> solo_matches;
  for (const std::string& q : queries) {
    auto solo = QueryExecutor::Execute(data, q);
    ASSERT_TRUE(solo.ok()) << solo.status() << "\n" << q;
    independent.push_back(RowStrings(solo->output));
    solo_matches.push_back(solo->stats.matches);
  }

  for (int threads : {1, 8}) {
    auto opt = ExecOptions{};
    opt.num_threads = threads;
    auto set = MultiQueryExecutor::Execute(data, queries, opt);
    ASSERT_TRUE(set.ok()) << set.status();
    ASSERT_EQ(set->per_query.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(RowStrings(set->per_query[i].output), independent[i])
          << "threads=" << threads << " query #" << i;
      EXPECT_EQ(set->per_query[i].stats.matches, solo_matches[i])
          << "threads=" << threads << " query #" << i;
    }
    // The workload actually shared: the scan ran once, the duplicated
    // falling-leg conjunct merged, and the memo answered repeat tests.
    const MultiQueryStats& s = set->stats;
    EXPECT_EQ(s.num_queries, static_cast<int>(queries.size()));
    EXPECT_EQ(s.num_scan_groups, 1);
    EXPECT_EQ(s.tuples_scanned, data.num_rows());
    EXPECT_GT(s.catalog.structural_merges, 0) << "threads=" << threads;
    EXPECT_LT(s.catalog.distinct_predicates, s.catalog.conjuncts_registered);
    // The ratio conjuncts vectorize; block fills must keep the lookup
    // identity (every lookup is a hit or an eval) intact.
    EXPECT_GT(s.catalog.kernels_compiled, 0) << "threads=" << threads;
    EXPECT_GT(s.cache_hits, 0) << "threads=" << threads;
    EXPECT_GT(s.dedup_hit_rate(), 0.0) << "threads=" << threads;
    EXPECT_EQ(s.shared_lookups, s.cache_hits + s.shared_evals);
  }
}

/// `instruments` quote series of `days` rows each, interleaved day by
/// day as a feed delivers them.
Table InterleavedMarket(int instruments, int days) {
  Table t(QuoteSchema());
  for (int i = 0; i < days; ++i) {
    for (int k = 0; k < instruments; ++k) {
      const double price = 50.0 + 10.0 * k + 8.0 * std::sin(i * 0.37 + k) +
                           3.0 * std::sin(i * 1.3 + 2.0 * k);
      SQLTS_CHECK_OK(t.AppendRow({Value::String("S" + std::to_string(k)),
                                  Value::FromDate(Date(10000).AddDays(i)),
                                  Value::Double(price)}));
    }
  }
  return t;
}

/// Streaming-eligible set touching every counter: a merged duplicate
/// conjunct (hits), a tighter ratio that subsumes a looser one
/// (inferred hits), and anchored conjuncts (private evals).
std::vector<std::string> CounterQueries() {
  return {
      "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
      "SELECT X.name, Z.date FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y, Z) WHERE Y.price < 0.97 * X.price AND Z.price > Y.price",
      "SELECT X.name, Y.price FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.95 * X.price",
      testing_util::kPortfolioQuery,
  };
}

void ExpectCounterIdentity(const MultiQueryStats& s, const std::string& at) {
  EXPECT_EQ(s.shared_lookups, s.cache_hits + s.shared_evals) << at;
  EXPECT_LE(s.inferred_hits, s.cache_hits) << at;
}

TEST(MultiQueryBatch, CountersIdenticalAtAnyThreadCount) {
  // Each (query, cluster) evaluator publishes its tally once, when it
  // is destroyed on whichever worker ran the cluster; the totals must
  // not depend on how many workers destroy evaluators concurrently.
  Table data = InterleavedMarket(8, 160);
  const std::vector<std::string> queries = CounterQueries();
  std::vector<MultiQueryStats> runs;
  for (int threads : {1, 2, 4}) {
    ExecOptions opt;
    opt.num_threads = threads;
    auto set = MultiQueryExecutor::Execute(data, queries, opt);
    ASSERT_TRUE(set.ok()) << set.status();
    ExpectCounterIdentity(set->stats, "threads=" + std::to_string(threads));
    runs.push_back(set->stats);
  }
  ASSERT_GT(runs[0].cache_hits, 0);
  ASSERT_GT(runs[0].inferred_hits, 0);
  ASSERT_GT(runs[0].private_evals, 0);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].shared_lookups, runs[0].shared_lookups) << i;
    EXPECT_EQ(runs[i].shared_evals, runs[0].shared_evals) << i;
    EXPECT_EQ(runs[i].cache_hits, runs[0].cache_hits) << i;
    EXPECT_EQ(runs[i].inferred_hits, runs[0].inferred_hits) << i;
    EXPECT_EQ(runs[i].private_evals, runs[0].private_evals) << i;
  }
}

TEST(MultiQueryBatch, SubsumptionSeedsInferredHits) {
  Table data = MultiInstrumentTable();
  // 0.95-drop implies 0.97-drop on a POSITIVE column: a TRUE verdict
  // for the tighter predicate must seed the looser one's slot.
  std::vector<std::string> queries = {
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.95 * X.price",
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
  };
  auto set = MultiQueryExecutor::Execute(data, queries);
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_GT(set->stats.catalog.subsumption_edges, 0);
  EXPECT_GT(set->stats.inferred_hits, 0);
  EXPECT_LE(set->stats.inferred_hits, set->stats.cache_hits);
}

TEST(MultiQueryBatch, ExplainQuerySetReportsCatalog) {
  std::vector<std::string> queries = OverlappingQueries();
  auto text = ExplainQuerySet(QuoteSchema(), queries);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("query #1"), std::string::npos);
  EXPECT_NE(text->find("query #4"), std::string::npos);
  EXPECT_NE(text->find("distinct"), std::string::npos);
}

TEST(MultiQueryBatch, BadQueryFailsWholeSetWithIndex) {
  Table data = MultiInstrumentTable();
  auto set = MultiQueryExecutor::Execute(
      data, {OverlappingQueries()[0], "SELECT nonsense FROM"});
  ASSERT_FALSE(set.ok());
  EXPECT_NE(set.status().ToString().find("query #2"), std::string::npos)
      << set.status();
}

// ---------------------------------------------------------------------------
// Streaming equivalence, registration, checkpoint/restore.
// ---------------------------------------------------------------------------

TEST(MultiQueryStream, MatchesIndependentStreamingExecutors) {
  Table data = MultiInstrumentTable();
  // Streaming-eligible subset (no LIMIT).
  const std::vector<std::string> all = OverlappingQueries();
  std::vector<std::string> queries(all.begin(), all.end() - 1);

  std::vector<std::vector<std::string>> independent(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto solo = StreamingQueryExecutor::Create(
        queries[i], data.schema(), [&independent, i](const Row& row) {
          independent[i].push_back(RowString(row));
        });
    ASSERT_TRUE(solo.ok()) << solo.status();
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      ASSERT_TRUE((*solo)->Push(data.GetRow(r)).ok());
    }
    ASSERT_TRUE((*solo)->Finish().ok());
  }

  auto multi = MultiStreamExecutor::Create(data.schema());
  ASSERT_TRUE(multi.ok()) << multi.status();
  std::vector<std::vector<std::string>> shared(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto id = (*multi)->AddQuery(queries[i], [&shared, i](const Row& row) {
      shared[i].push_back(RowString(row));
    });
    ASSERT_TRUE(id.ok()) << id.status();
    EXPECT_EQ(*id, static_cast<int>(i));
  }
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE((*multi)->Push(data.GetRow(r)).ok());
  }
  ASSERT_TRUE((*multi)->Finish().ok());

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(shared[i], independent[i]) << "query #" << i;
  }
  MultiQueryStats s = (*multi)->stats();
  EXPECT_EQ(s.tuples_scanned, data.num_rows());
  EXPECT_GT(s.cache_hits, 0);
  EXPECT_GT(s.dedup_hit_rate(), 0.0);
}

TEST(MultiQueryStream, AddQueryMidStreamSeesOnlySubsequentTuples) {
  Table data = MultiInstrumentTable();
  const std::string q = OverlappingQueries()[0];
  const int64_t split = data.num_rows() / 2;

  // Oracle: a standalone streaming executor fed only the suffix.
  std::vector<std::string> suffix_only;
  {
    auto solo = StreamingQueryExecutor::Create(
        q, data.schema(),
        [&](const Row& row) { suffix_only.push_back(RowString(row)); });
    ASSERT_TRUE(solo.ok());
    for (int64_t r = split; r < data.num_rows(); ++r) {
      ASSERT_TRUE((*solo)->Push(data.GetRow(r)).ok());
    }
    ASSERT_TRUE((*solo)->Finish().ok());
  }

  auto multi = MultiStreamExecutor::Create(data.schema());
  ASSERT_TRUE(multi.ok());
  std::vector<std::string> early, late;
  ASSERT_TRUE((*multi)
                  ->AddQuery(q, [&](const Row& row) {
                    early.push_back(RowString(row));
                  })
                  .ok());
  for (int64_t r = 0; r < split; ++r) {
    ASSERT_TRUE((*multi)->Push(data.GetRow(r)).ok());
  }
  auto late_id = (*multi)->AddQuery(
      q, [&](const Row& row) { late.push_back(RowString(row)); });
  ASSERT_TRUE(late_id.ok());
  for (int64_t r = split; r < data.num_rows(); ++r) {
    ASSERT_TRUE((*multi)->Push(data.GetRow(r)).ok());
  }
  ASSERT_TRUE((*multi)->Finish().ok());

  EXPECT_EQ(late, suffix_only);
  EXPECT_GT(early.size(), late.size());
}

TEST(MultiQueryStream, RemoveQueryStopsItsOutputOnly) {
  Table data = MultiInstrumentTable();
  const std::vector<std::string> all = OverlappingQueries();
  std::vector<std::string> queries(all.begin(), all.end() - 1);

  std::vector<std::vector<std::string>> full(queries.size());
  {
    auto multi = MultiStreamExecutor::Create(data.schema());
    ASSERT_TRUE(multi.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE((*multi)
                      ->AddQuery(queries[i],
                                 [&full, i](const Row& row) {
                                   full[i].push_back(RowString(row));
                                 })
                      .ok());
    }
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      ASSERT_TRUE((*multi)->Push(data.GetRow(r)).ok());
    }
    ASSERT_TRUE((*multi)->Finish().ok());
  }

  const int64_t split = data.num_rows() / 3;
  auto multi = MultiStreamExecutor::Create(data.schema());
  ASSERT_TRUE(multi.ok());
  std::vector<std::vector<std::string>> got(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE((*multi)
                    ->AddQuery(queries[i],
                               [&got, i](const Row& row) {
                                 got[i].push_back(RowString(row));
                               })
                    .ok());
  }
  EXPECT_EQ((*multi)->num_queries(), static_cast<int>(queries.size()));
  for (int64_t r = 0; r < split; ++r) {
    ASSERT_TRUE((*multi)->Push(data.GetRow(r)).ok());
  }
  const size_t removed_count = got[1].size();
  ASSERT_TRUE((*multi)->RemoveQuery(1).ok());
  EXPECT_FALSE((*multi)->RemoveQuery(1).ok()) << "double remove must fail";
  EXPECT_FALSE((*multi)->RemoveQuery(99).ok());
  EXPECT_EQ((*multi)->num_queries(), static_cast<int>(queries.size()) - 1);
  for (int64_t r = split; r < data.num_rows(); ++r) {
    ASSERT_TRUE((*multi)->Push(data.GetRow(r)).ok());
  }
  ASSERT_TRUE((*multi)->Finish().ok());

  EXPECT_EQ(got[1].size(), removed_count) << "removed query kept emitting";
  EXPECT_EQ(got[0], full[0]) << "surviving query affected by removal";
  EXPECT_EQ(got[2], full[2]) << "surviving query affected by removal";
}

TEST(MultiQueryStream, CheckpointRestoreReinstatesTheRegisteredSet) {
  Table data = MultiInstrumentTable();
  const std::vector<std::string> all = OverlappingQueries();
  std::vector<std::string> queries(all.begin(), all.end() - 1);
  const int64_t split = data.num_rows() / 2;

  std::vector<std::vector<std::string>> uninterrupted(queries.size());
  {
    auto multi = MultiStreamExecutor::Create(data.schema());
    ASSERT_TRUE(multi.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE((*multi)
                      ->AddQuery(queries[i],
                                 [&uninterrupted, i](const Row& row) {
                                   uninterrupted[i].push_back(RowString(row));
                                 })
                      .ok());
    }
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      ASSERT_TRUE((*multi)->Push(data.GetRow(r)).ok());
    }
    ASSERT_TRUE((*multi)->Finish().ok());
  }

  // First half: register (and remove one), push, checkpoint, die.
  std::vector<std::vector<std::string>> combined(queries.size());
  std::string bytes;
  MultiQueryStats at_checkpoint;
  {
    auto multi = MultiStreamExecutor::Create(data.schema());
    ASSERT_TRUE(multi.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE((*multi)
                      ->AddQuery(queries[i],
                                 [&combined, i](const Row& row) {
                                   combined[i].push_back(RowString(row));
                                 })
                      .ok());
    }
    for (int64_t r = 0; r < split; ++r) {
      ASSERT_TRUE((*multi)->Push(data.GetRow(r)).ok());
    }
    at_checkpoint = (*multi)->stats();
    ASSERT_TRUE((*multi)->Checkpoint(&bytes).ok());
  }  // dies mid-stream without Finish

  // Second half: fresh instance, restore, drain the rest.
  auto restored = MultiStreamExecutor::Create(data.schema());
  ASSERT_TRUE(restored.ok());
  Status rs = (*restored)
                  ->Restore(bytes, [&combined](int index, const std::string&) {
                    return [&combined, index](const Row& row) {
                      combined[index].push_back(RowString(row));
                    };
                  });
  ASSERT_TRUE(rs.ok()) << rs;
  EXPECT_EQ((*restored)->rows_consumed(), split);
  EXPECT_EQ((*restored)->num_queries(), static_cast<int>(queries.size()));
  for (int64_t r = split; r < data.num_rows(); ++r) {
    ASSERT_TRUE((*restored)->Push(data.GetRow(r)).ok());
  }
  ASSERT_TRUE((*restored)->Finish().ok());

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(combined[i], uninterrupted[i]) << "query #" << i;
  }
  // Counters stay cumulative across the save/restore boundary.
  MultiQueryStats end = (*restored)->stats();
  EXPECT_EQ(end.tuples_scanned, data.num_rows());
  EXPECT_GE(end.shared_lookups, at_checkpoint.shared_lookups);
  EXPECT_GE(end.cache_hits, at_checkpoint.cache_hits);

  // Restore only lands on a fresh instance.
  EXPECT_FALSE((*restored)
                   ->Restore(bytes,
                             [](int, const std::string&) {
                               return [](const Row&) {};
                             })
                   .ok());
}

/// Rows per query and each query's output watermark after one run.
struct MultiStreamOutput {
  std::vector<std::vector<std::string>> rows;
  std::vector<int64_t> emitted;

  MultiStreamExecutor::RowCallback Sink(int index) {
    return [this, index](const Row& row) {
      rows[index].push_back(RowString(row));
    };
  }
};

std::unique_ptr<MultiStreamExecutor> MakeMultiStream(int threads) {
  ExecOptions options;
  options.num_threads = threads;
  auto multi = MultiStreamExecutor::Create(QuoteSchema(), options);
  SQLTS_CHECK(multi.ok()) << multi.status();
  return std::move(*multi);
}

void CollectWatermarks(const MultiStreamExecutor& multi,
                       MultiStreamOutput* out) {
  out->emitted.clear();
  for (size_t i = 0; i < out->rows.size(); ++i) {
    auto emitted = multi.rows_emitted(static_cast<int>(i));
    SQLTS_CHECK(emitted.ok()) << emitted.status();
    out->emitted.push_back(*emitted);
  }
}

/// Pushes `rows[0..k)` through a `checkpoint_threads` executor running
/// `queries`, checkpoints and destroys it, restores a fresh one at
/// `restore_threads` and drains the rest.  Asserts that every restored
/// watermark equals the rows its query delivered before the kill.
MultiStreamOutput KillAndRestoreMulti(const std::vector<std::string>& queries,
                                      const std::vector<Row>& rows, int k,
                                      int checkpoint_threads,
                                      int restore_threads) {
  MultiStreamOutput out;
  out.rows.resize(queries.size());
  std::string bytes;
  std::vector<size_t> delivered_before_kill;
  {
    auto multi = MakeMultiStream(checkpoint_threads);
    for (size_t i = 0; i < queries.size(); ++i) {
      SQLTS_CHECK_OK(
          multi->AddQuery(queries[i], out.Sink(static_cast<int>(i))).status());
    }
    for (int i = 0; i < k; ++i) SQLTS_CHECK_OK(multi->Push(rows[i]));
    SQLTS_CHECK_OK(multi->Checkpoint(&bytes));
    for (const auto& r : out.rows) delivered_before_kill.push_back(r.size());
  }  // the "kill": all in-memory state is gone

  auto restored = MakeMultiStream(restore_threads);
  SQLTS_CHECK_OK(restored->Restore(
      bytes,
      [&out](int index, const std::string&) { return out.Sink(index); }));
  SQLTS_CHECK(restored->rows_consumed() == k);
  CollectWatermarks(*restored, &out);
  for (size_t i = 0; i < queries.size(); ++i) {
    SQLTS_CHECK(out.emitted[i] ==
                static_cast<int64_t>(delivered_before_kill[i]))
        << "query #" << i << " k=" << k << ": restored watermark "
        << out.emitted[i] << " vs " << delivered_before_kill[i]
        << " rows delivered before the kill";
  }
  for (size_t i = k; i < rows.size(); ++i) {
    SQLTS_CHECK_OK(restored->Push(rows[i]));
  }
  SQLTS_CHECK_OK(restored->Finish());
  CollectWatermarks(*restored, &out);
  return out;
}

TEST(MultiQueryStream, KillAndRestoreAcrossThreadCountsKeepsWatermarks) {
  const char kRallyQuery[] =
      "SELECT X.name, X.price, Z.price FROM quote "
      "CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) "
      "WHERE Y.price > X.price AND Z.price > Y.price";
  const std::vector<std::string> queries = {testing_util::kPortfolioQuery,
                                            kRallyQuery};
  const std::vector<Row> rows = testing_util::PortfolioStream(240);

  // Uninterrupted single-threaded oracle.
  MultiStreamOutput oracle;
  oracle.rows.resize(queries.size());
  auto multi = MakeMultiStream(1);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(multi->AddQuery(queries[i], oracle.Sink(static_cast<int>(i)))
                    .ok());
  }
  for (const Row& r : rows) ASSERT_TRUE(multi->Push(r).ok());
  ASSERT_TRUE(multi->Finish().ok());
  CollectWatermarks(*multi, &oracle);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_GT(oracle.rows[i].size(), 0u) << "vacuous fixture, query #" << i;
    ASSERT_EQ(oracle.emitted[i],
              static_cast<int64_t>(oracle.rows[i].size()));
  }

  for (int k : {0, 111, 240}) {
    for (auto [from, to] : {std::pair{1, 4}, std::pair{4, 1}}) {
      const MultiStreamOutput run =
          KillAndRestoreMulti(queries, rows, k, from, to);
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(run.rows[i], oracle.rows[i])
            << "query #" << i << " k=" << k << " threads " << from << "->"
            << to;
        EXPECT_EQ(run.emitted[i], oracle.emitted[i])
            << "query #" << i << " k=" << k << " threads " << from << "->"
            << to;
      }
    }
  }
}

TEST(MultiQueryStream, CountersLiveWhileMatchersLive) {
  // Streaming evaluators live as long as their cluster matchers, so
  // they must publish as they go: a checkpoint taken mid-stream (which
  // quiesces the shard workers) already carries every lookup made so
  // far.  Which query fills a shared verdict first depends on worker
  // interleaving, so only lookups and private evals are compared
  // across thread counts.
  Table data = InterleavedMarket(6, 120);
  const std::vector<std::string> queries = CounterQueries();
  const int64_t split = data.num_rows() / 2;
  auto add_queries = [&](MultiStreamExecutor* multi) {
    for (const std::string& q : queries) {
      SQLTS_CHECK_OK(multi->AddQuery(q, [](const Row&) {}).status());
    }
  };

  std::vector<MultiQueryStats> at_checkpoint;
  std::vector<MultiQueryStats> at_end;
  for (int threads : {1, 4}) {
    const std::string at = "threads=" + std::to_string(threads);
    auto uninterrupted = MakeMultiStream(threads);
    add_queries(uninterrupted.get());
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      ASSERT_TRUE(uninterrupted->Push(data.GetRow(r)).ok());
    }
    ASSERT_TRUE(uninterrupted->Finish().ok());
    const MultiQueryStats full = uninterrupted->stats();

    std::string bytes;
    {
      auto multi = MakeMultiStream(threads);
      add_queries(multi.get());
      for (int64_t r = 0; r < split; ++r) {
        ASSERT_TRUE(multi->Push(data.GetRow(r)).ok());
      }
      ASSERT_TRUE(multi->Checkpoint(&bytes).ok());
      const MultiQueryStats s = multi->stats();
      EXPECT_GT(s.shared_lookups, 0) << at;
      EXPECT_GT(s.private_evals, 0) << at;
      ExpectCounterIdentity(s, at);
      at_checkpoint.push_back(s);
    }

    auto restored = MakeMultiStream(threads);
    ASSERT_TRUE(restored
                    ->Restore(bytes,
                              [](int, const std::string&) {
                                return [](const Row&) {};
                              })
                    .ok());
    for (int64_t r = split; r < data.num_rows(); ++r) {
      ASSERT_TRUE(restored->Push(data.GetRow(r)).ok());
    }
    ASSERT_TRUE(restored->Finish().ok());
    const MultiQueryStats end = restored->stats();
    ExpectCounterIdentity(end, at);
    EXPECT_EQ(end.shared_lookups, full.shared_lookups) << at;
    EXPECT_EQ(end.private_evals, full.private_evals) << at;
    at_end.push_back(end);
  }
  EXPECT_EQ(at_checkpoint[1].shared_lookups, at_checkpoint[0].shared_lookups);
  EXPECT_EQ(at_checkpoint[1].private_evals, at_checkpoint[0].private_evals);
  EXPECT_EQ(at_end[1].shared_lookups, at_end[0].shared_lookups);
  EXPECT_EQ(at_end[1].private_evals, at_end[0].private_evals);
}

// ---------------------------------------------------------------------------
// Merge-gate regressions: NULLs and the positive (log) domain.
// ---------------------------------------------------------------------------

Schema VolSchema(bool vol_nullable) {
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("name", TypeKind::kString));
  SQLTS_CHECK_OK(s.AddColumn("date", TypeKind::kDate));
  SQLTS_CHECK_OK(s.AddColumn("price", TypeKind::kDouble,
                             /*nullable=*/false, /*positive=*/true));
  SQLTS_CHECK_OK(s.AddColumn("vol", TypeKind::kDouble,
                             /*nullable=*/vol_nullable, /*positive=*/false));
  return s;
}

/// Registers the single WHERE conjunct of a one-element query and
/// returns its shared predicate id.
int RegisterConjunct(SharedPredicateCatalog* catalog, const Schema& schema,
                     const std::string& where) {
  auto q = CompileQueryText(
      "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY date AS (X, Y) "
      "WHERE " + where, schema);
  SQLTS_CHECK(q.ok()) << q.status() << " for " << where;
  QueryConjuncts qc = RegisterQueryConjuncts(*q, catalog);
  int id = -2;
  for (const auto& element : qc.elements) {
    for (const auto& conjunct : element) {
      SQLTS_CHECK(id == -2) << "expected exactly one conjunct: " << where;
      id = conjunct.shared_id;
    }
  }
  SQLTS_CHECK(id != -2) << "no conjunct registered: " << where;
  return id;
}

TEST(MultiQueryCatalog, NullableReferenceBlocksSemanticMerge) {
  // X.vol = X.vol and X.vol >= X.vol coincide on the reals but differ
  // under NULLs... actually both are UNKNOWN on NULL — what differs is
  // that *proving* them equivalent requires two-valued reasoning the
  // NULLABLE declaration invalidates.  The catalog must refuse.
  {
    SharedPredicateCatalog catalog(VolSchema(/*vol_nullable=*/true));
    int a = RegisterConjunct(&catalog, VolSchema(true), "X.vol = X.vol");
    int b = RegisterConjunct(&catalog, VolSchema(true), "X.vol >= X.vol");
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    EXPECT_NE(a, b) << "nullable reference must block the oracle merge";
    EXPECT_EQ(catalog.stats().semantic_merges, 0);
  }
  // Same pair over a NOT NULL column: the oracle proves mutual
  // implication and the registrations collapse to one id.
  {
    SharedPredicateCatalog catalog(VolSchema(/*vol_nullable=*/false));
    int a = RegisterConjunct(&catalog, VolSchema(false), "X.vol = X.vol");
    int b = RegisterConjunct(&catalog, VolSchema(false), "X.vol >= X.vol");
    ASSERT_GE(a, 0);
    EXPECT_EQ(a, b) << "non-nullable tautology pair should merge";
    EXPECT_EQ(catalog.stats().semantic_merges, 1);
  }
}

TEST(MultiQueryCatalog, StructuralMergeStaysSoundUnderNulls) {
  // Identical trees merge regardless of nullability: both queries
  // evaluate the same expression on the same tuples, NULLs included.
  SharedPredicateCatalog catalog(VolSchema(/*vol_nullable=*/true));
  int a = RegisterConjunct(&catalog, VolSchema(true), "X.vol > 100");
  int b = RegisterConjunct(&catalog, VolSchema(true), "X.vol > 100");
  ASSERT_GE(a, 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(catalog.stats().structural_merges, 1);
}

TEST(MultiQueryCatalog, RatioSubsumptionRequiresPositiveDeclaration) {
  // y < 0.95 x ⇒ y < 0.97 x needs x > 0 (the paper's log-domain mode).
  // With price declared POSITIVE the edge is provable; without it the
  // catalog must not record one.
  auto edges_with = [](const Schema& schema) {
    SharedPredicateCatalog catalog(schema);
    RegisterConjunct(&catalog, schema, "Y.price < 0.95 * X.price");
    RegisterConjunct(&catalog, schema, "Y.price < 0.97 * X.price");
    return catalog.stats().subsumption_edges;
  };
  EXPECT_GT(edges_with(VolSchema(false)), 0);

  Schema plain;
  SQLTS_CHECK_OK(plain.AddColumn("name", TypeKind::kString));
  SQLTS_CHECK_OK(plain.AddColumn("date", TypeKind::kDate));
  SQLTS_CHECK_OK(plain.AddColumn("price", TypeKind::kDouble));
  SQLTS_CHECK_OK(plain.AddColumn("vol", TypeKind::kDouble));
  EXPECT_EQ(edges_with(plain), 0)
      << "ratio implication is unsound without the POSITIVE declaration";
}

TEST(MultiQueryCatalog, AnchoredConjunctsStayPrivate) {
  // Z.price > X.price across a star group resolves X as an anchored
  // reference (its offset from Z depends on the match, not the tuple
  // neighborhood), so the conjunct must not enter the shared id space.
  Schema schema = VolSchema(false);
  SharedPredicateCatalog catalog(schema);
  auto q = CompileQueryText(
      "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z) "
      "WHERE X.price > 10 AND Z.price > X.price", schema);
  ASSERT_TRUE(q.ok()) << q.status();
  QueryConjuncts qc = RegisterQueryConjuncts(*q, &catalog);
  bool saw_shared = false;
  bool saw_private = false;
  for (const auto& element : qc.elements) {
    for (const auto& conjunct : element) {
      if (conjunct.shared_id >= 0) saw_shared = true;
      if (conjunct.shared_id < 0) saw_private = true;
    }
  }
  EXPECT_TRUE(saw_shared) << "tuple-local conjunct should be shareable";
  EXPECT_TRUE(saw_private) << "anchored conjunct must stay private";
  EXPECT_GT(catalog.stats().unshareable, 0);
}

// ---------------------------------------------------------------------------
// Concurrency: AddQuery/RemoveQuery racing Push from another thread.
// ---------------------------------------------------------------------------

/// Long per-instrument series so the push phase lasts long enough for
/// real interleaving with a churn thread.
Table LongMultiInstrumentTable() {
  std::vector<double> a, b, c;
  for (int i = 0; i < 600; ++i) {
    a.push_back(100.0 + 10.0 * std::sin(i * 0.7) - 0.01 * i);
    b.push_back(50.0 + 6.0 * std::sin(i * 0.45 + 1.0) + 0.02 * i);
    c.push_back(20.0 + 4.0 * std::sin(i * 0.3 + 2.0));
  }
  Table t = PricesToQuoteTable("IBM", Date(10000), a);
  SQLTS_CHECK_OK(AppendInstrument(&t, "HP", Date(10000), b));
  SQLTS_CHECK_OK(AppendInstrument(&t, "SUN", Date(10000), c));
  return t;
}

TEST(MultiQueryStreamConcurrency, AddRemoveRacesPushWithoutCorruption) {
  // One producer thread pushes a long table while a churn thread adds
  // and removes queries.  The executor serializes on one internal
  // mutex, so this must be data-race-free (TSan-checked in CI) and a
  // resident query registered before the first Push must see every
  // tuple exactly once — bit-identical to a standalone run.
  Table data = LongMultiInstrumentTable();
  const std::string q = OverlappingQueries()[0];

  std::vector<std::string> oracle;
  {
    auto solo = StreamingQueryExecutor::Create(
        q, data.schema(),
        [&](const Row& row) { oracle.push_back(RowString(row)); });
    ASSERT_TRUE(solo.ok()) << solo.status();
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      ASSERT_TRUE((*solo)->Push(data.GetRow(r)).ok());
    }
    ASSERT_TRUE((*solo)->Finish().ok());
  }

  auto multi = MultiStreamExecutor::Create(data.schema());
  ASSERT_TRUE(multi.ok()) << multi.status();
  std::vector<std::string> resident;
  auto resident_id = (*multi)->AddQuery(
      q, [&](const Row& row) { resident.push_back(RowString(row)); });
  ASSERT_TRUE(resident_id.ok()) << resident_id.status();

  std::atomic<bool> done{false};
  std::atomic<int64_t> churned{0};
  std::vector<std::string> churn_errors;
  std::thread churner([&] {
    // Register a second copy of the shared query and a disjoint one,
    // let them ride for a moment, then tear them down — repeatedly,
    // while the producer is mid-Push.
    const std::string other = OverlappingQueries()[1];
    while (!done.load()) {
      std::atomic<int64_t> sink{0};
      auto a = (*multi)->AddQuery(q, [&](const Row&) { sink.fetch_add(1); });
      auto b =
          (*multi)->AddQuery(other, [&](const Row&) { sink.fetch_add(1); });
      if (!a.ok() || !b.ok()) {
        churn_errors.push_back((a.ok() ? b.status() : a.status()).ToString());
        return;
      }
      auto epoch = (*multi)->query_epoch(*a);
      if (!epoch.ok() || *epoch < 0) {
        churn_errors.push_back("bad epoch for live query");
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (!(*multi)->RemoveQuery(*a).ok() ||
          !(*multi)->RemoveQuery(*b).ok()) {
        churn_errors.push_back("RemoveQuery failed on live id");
        return;
      }
      churned.fetch_add(1);
    }
  });

  for (int64_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE((*multi)->Push(data.GetRow(r)).ok());
    // Give the churn thread real overlap with the push loop.
    if (r % 50 == 0) std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  done.store(true);
  churner.join();
  ASSERT_TRUE((*multi)->Finish().ok());

  EXPECT_TRUE(churn_errors.empty()) << churn_errors.front();
  EXPECT_EQ(resident, oracle);
  EXPECT_GT(churned.load(), 0) << "churn thread never overlapped the pushes";
  // Every transient query released its epoch-namespaced caches; once
  // the resident query leaves too, the registry must be empty.
  ASSERT_TRUE((*multi)->RemoveQuery(*resident_id).ok());
  EXPECT_EQ((*multi)->num_epoch_caches(), 0);
}

TEST(MultiQueryStreamConcurrency, EpochCachesReleasedExactlyOnRemove) {
  // Mid-stream registrations pin epoch-namespaced cluster caches;
  // RemoveQuery must release them refcounted — two queries on one
  // epoch share the namespace, and only the last member leaving frees
  // it — or a server holding streams for departed clients leaks memory
  // for the life of the generation.  num_epoch_caches() counts live
  // per-cluster caches across every epoch, so all checks are deltas
  // against the resident epoch-0 baseline.
  Table data = MultiInstrumentTable();
  const std::string q = OverlappingQueries()[0];
  auto multi = MultiStreamExecutor::Create(data.schema());
  ASSERT_TRUE(multi.ok());
  auto resident = (*multi)->AddQuery(q, [](const Row&) {});
  ASSERT_TRUE(resident.ok());

  const int64_t split = data.num_rows() / 2;
  for (int64_t r = 0; r < split; ++r) {
    ASSERT_TRUE((*multi)->Push(data.GetRow(r)).ok());
  }
  const int64_t base = (*multi)->num_epoch_caches();

  // Two joiners at the same epoch share a namespace; a third joining
  // after one more tuple pins a distinct, younger epoch.
  auto j1 = (*multi)->AddQuery(q, [](const Row&) {});
  auto j2 = (*multi)->AddQuery(q, [](const Row&) {});
  ASSERT_TRUE(j1.ok());
  ASSERT_TRUE(j2.ok());
  ASSERT_TRUE((*multi)->Push(data.GetRow(split)).ok());
  auto j3 = (*multi)->AddQuery(q, [](const Row&) {});
  ASSERT_TRUE(j3.ok());
  for (int64_t r = split + 1; r < data.num_rows(); ++r) {
    ASSERT_TRUE((*multi)->Push(data.GetRow(r)).ok());
  }
  EXPECT_EQ(*(*multi)->query_epoch(*j1), *(*multi)->query_epoch(*j2));
  EXPECT_GT(*(*multi)->query_epoch(*j3), *(*multi)->query_epoch(*j1));
  const int64_t with_joiners = (*multi)->num_epoch_caches();
  EXPECT_GT(with_joiners, base) << "joiners pinned no caches";

  // j1 leaves but j2 shares its epoch: nothing may be freed yet.
  ASSERT_TRUE((*multi)->RemoveQuery(*j1).ok());
  EXPECT_EQ((*multi)->num_epoch_caches(), with_joiners);
  // j2 was the last member of that epoch: its caches go now.
  ASSERT_TRUE((*multi)->RemoveQuery(*j2).ok());
  const int64_t after_first_epoch = (*multi)->num_epoch_caches();
  EXPECT_LT(after_first_epoch, with_joiners);
  EXPECT_GT(after_first_epoch, base);
  // j3's epoch follows; only the resident's epoch-0 caches remain
  // (the full push visited a third cluster after `base` was sampled,
  // so compare against epoch-0's final footprint, not `base`).
  ASSERT_TRUE((*multi)->RemoveQuery(*j3).ok());
  const int64_t resident_only = (*multi)->num_epoch_caches();
  EXPECT_LT(resident_only, after_first_epoch);
  EXPECT_GE(resident_only, base);

  ASSERT_TRUE((*multi)->Finish().ok());
  EXPECT_EQ((*multi)->num_epoch_caches(), resident_only);
  // Last member out: the registry empties completely.
  ASSERT_TRUE((*multi)->RemoveQuery(*resident).ok());
  EXPECT_EQ((*multi)->num_epoch_caches(), 0);
}

// ---------------------------------------------------------------------------
// Cross-query lint (W007 duplicate / W008 subsumed).
// ---------------------------------------------------------------------------

TEST(QuerySetLint, DuplicateMemberGetsW007) {
  // #3 is a verbatim copy of #1; #2 differs only in its SELECT list.
  std::vector<std::string> queries = {
      "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
      "SELECT X.name, Y.price FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
      "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
  };
  auto lint = LintQuerySet(QuoteSchema(), queries);
  ASSERT_TRUE(lint.ok()) << lint.status();
  ASSERT_EQ(lint->diagnostics.size(), 1u);
  EXPECT_EQ(lint->diagnostics[0].code, "W007");
  EXPECT_EQ(lint->diagnostics[0].query, 3);
  EXPECT_EQ(lint->diagnostics[0].other, 1);
}

TEST(QuerySetLint, SemanticallyEqualPredicateStillW007) {
  // Syntactically different trees the oracle proves equivalent merge to
  // one shared id, so the duplicate check sees identical elements.
  std::vector<std::string> queries = {
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price > X.price",
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE X.price < Y.price",
  };
  auto lint = LintQuerySet(QuoteSchema(), queries);
  ASSERT_TRUE(lint.ok()) << lint.status();
  ASSERT_EQ(lint->diagnostics.size(), 1u);
  EXPECT_EQ(lint->diagnostics[0].code, "W007");
  EXPECT_EQ(lint->diagnostics[0].query, 2);
}

TEST(QuerySetLint, DifferingLimitBlocksW007) {
  std::vector<std::string> queries = {
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price LIMIT 2",
  };
  auto lint = LintQuerySet(QuoteSchema(), queries);
  ASSERT_TRUE(lint.ok()) << lint.status();
  // Not duplicates (LIMIT truncates), and the LIMIT also disqualifies
  // the pair from W008.
  EXPECT_TRUE(lint->diagnostics.empty());
}

TEST(QuerySetLint, TighterDropSubsumedByLooserGetsW008) {
  // price is declared POSITIVE, so the ratio oracle proves the
  // 0.95-drop implies the 0.97-drop; every match of #1 is a match of
  // #2 and the SELECT lists agree.
  std::vector<std::string> queries = {
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.95 * X.price",
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
  };
  auto lint = LintQuerySet(QuoteSchema(), queries);
  ASSERT_TRUE(lint.ok()) << lint.status();
  ASSERT_EQ(lint->diagnostics.size(), 1u);
  EXPECT_EQ(lint->diagnostics[0].code, "W008");
  EXPECT_EQ(lint->diagnostics[0].query, 1);
  EXPECT_EQ(lint->diagnostics[0].other, 2);
}

TEST(QuerySetLint, ExtraConjunctOnTheStrongSideStillW008) {
  // #1 adds a conjunct on top of #2's predicate: still strictly
  // stronger element-wise, so #1 remains the subsumed member.
  std::vector<std::string> queries = {
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price AND Y.price > 10",
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
  };
  auto lint = LintQuerySet(QuoteSchema(), queries);
  ASSERT_TRUE(lint.ok()) << lint.status();
  ASSERT_EQ(lint->diagnostics.size(), 1u);
  EXPECT_EQ(lint->diagnostics[0].code, "W008");
  EXPECT_EQ(lint->diagnostics[0].query, 1);
  EXPECT_EQ(lint->diagnostics[0].other, 2);
}

TEST(QuerySetLint, DifferentScanGroupsNeverPair) {
  // Same predicates but one member clusters by nothing: different scan
  // groups, so neither warning may fire.
  std::vector<std::string> queries = {
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
      "SELECT X.name FROM quote SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
  };
  auto lint = LintQuerySet(QuoteSchema(), queries);
  ASSERT_TRUE(lint.ok()) << lint.status();
  EXPECT_TRUE(lint->diagnostics.empty());
}

TEST(QuerySetLint, StarPatternsExemptFromW008) {
  std::vector<std::string> queries = {
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, *Y, Z) WHERE Y.price < 0.95 * X.price AND Z.price > X.price",
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, *Y, Z) WHERE Y.price < 0.97 * X.price AND Z.price > X.price",
  };
  auto lint = LintQuerySet(QuoteSchema(), queries);
  ASSERT_TRUE(lint.ok()) << lint.status();
  // Star matching is greedy: a weaker star predicate can shift match
  // boundaries, so subsumption must not be claimed.
  EXPECT_TRUE(lint->diagnostics.empty());
}

TEST(QuerySetLint, BadMemberFailsWithQueryIndex) {
  auto lint = LintQuerySet(
      QuoteSchema(),
      {"SELECT X.name FROM quote SEQUENCE BY date AS (X, Y) "
       "WHERE Y.price < 0.97 * X.price",
       "SELECT nonsense FROM"});
  ASSERT_FALSE(lint.ok());
  EXPECT_NE(lint.status().ToString().find("query #2"), std::string::npos)
      << lint.status();
}

TEST(QuerySetLint, RendersTextAndJson) {
  std::vector<std::string> queries = {
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
  };
  auto lint = LintQuerySet(QuoteSchema(), queries);
  ASSERT_TRUE(lint.ok()) << lint.status();
  std::string text = RenderQuerySetLint(*lint);
  EXPECT_NE(text.find("warning[W007]"), std::string::npos) << text;
  std::string json = QuerySetLintToJson(*lint);
  EXPECT_NE(json.find("\"code\": \"W007\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"query\": 2"), std::string::npos) << json;
  EXPECT_EQ(RenderQuerySetLint(QuerySetLintResult{}),
            "no cross-query findings\n");
}

}  // namespace
}  // namespace sqlts
