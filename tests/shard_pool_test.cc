// Sharded execution tests: ShardPool and batch cluster-loop mechanics,
// and determinism of the parallel batch and streaming executors across
// thread counts.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/cluster_loop.h"
#include "engine/executor.h"
#include "engine/shard_pool.h"
#include "engine/stream_executor.h"
#include "test_util.h"

namespace sqlts {
namespace {

TEST(ShardPool, DeliversTasksFifoPerShard) {
  std::vector<std::vector<uint64_t>> seen(3);
  {
    ShardPool pool(3, 4, [&](int shard, ShardPool::Task&& t) {
      seen[shard].push_back(t.tag);
    });
    for (uint64_t i = 0; i < 99; ++i) {
      pool.Push(static_cast<int>(i % 3), ShardPool::Task{Row{}, i, i});
    }
    pool.Finish();
    EXPECT_EQ(pool.pushed(0), 33);
    for (int s = 0; s < 3; ++s) {
      EXPECT_LE(pool.queue_high_water(s), 4);  // bounded queue
    }
  }
  size_t total = 0;
  for (int s = 0; s < 3; ++s) {
    total += seen[s].size();
    for (size_t k = 1; k < seen[s].size(); ++k) {
      EXPECT_LT(seen[s][k - 1], seen[s][k]);  // FIFO per shard
    }
  }
  EXPECT_EQ(total, 99u);
}

TEST(ShardPool, ShardForIsStableAndInRange) {
  ShardPool pool(8, 16, [](int, ShardPool::Task&&) {});
  for (int i = 0; i < 100; ++i) {
    std::string key = "cluster-" + std::to_string(i);
    int s = pool.ShardFor(key);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 8);
    EXPECT_EQ(s, pool.ShardFor(key));
  }
  pool.Finish();
}

TEST(ShardPool, EncodeClusterKeyIsInjective) {
  Schema schema;
  SQLTS_CHECK_OK(schema.AddColumn("a", TypeKind::kString));
  SQLTS_CHECK_OK(schema.AddColumn("b", TypeKind::kString));
  auto key = [&](const Row& row) {
    return EncodeClusterKey(schema, row, {0, 1});
  };
  // Parts that concatenate equal must encode differently.
  Row a = {Value::String("ab"), Value::String("c")};
  Row b = {Value::String("a"), Value::String("bc")};
  EXPECT_NE(key(a), key(b));
  // Separator and quote injection.
  Row c = {Value::String("a'\x1f'b"), Value::String("c")};
  Row d = {Value::String("a"), Value::String("b'\x1f'c")};
  EXPECT_NE(key(c), key(d));
  // Same values encode equal.
  Row e = {Value::String("a'\x1f'b"), Value::String("c")};
  EXPECT_EQ(key(c), key(e));
}

TEST(ShardPool, PushBlocksWhileQueueFull) {
  // One shard, capacity 2.  The handler parks on the first task, so the
  // worker holds task 0 in-flight while tasks 1 and 2 fill the queue;
  // a fourth Push must then block until the gate opens.
  std::mutex mu;
  std::condition_variable cv;
  bool handler_entered = false;
  bool gate_open = false;
  std::vector<uint64_t> handled;

  ShardPool pool(1, 2, [&](int, ShardPool::Task&& t) {
    std::unique_lock<std::mutex> lock(mu);
    handled.push_back(t.tag);
    if (t.tag == 0) {
      handler_entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return gate_open; });
    }
  });

  pool.Push(0, ShardPool::Task{Row{}, 0, 0});
  {
    // Wait until the worker is parked inside the handler, so the next
    // two pushes deterministically land in the queue.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return handler_entered; });
  }
  pool.Push(0, ShardPool::Task{Row{}, 0, 1});
  pool.Push(0, ShardPool::Task{Row{}, 0, 2});  // queue now full (depth 2)

  std::atomic<bool> fourth_done{false};
  std::thread producer([&] {
    pool.Push(0, ShardPool::Task{Row{}, 0, 3});  // must block
    fourth_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fourth_done.load());  // backpressure: still blocked

  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  producer.join();
  EXPECT_TRUE(fourth_done.load());
  pool.Finish();

  EXPECT_EQ(pool.pushed(0), 4);
  EXPECT_EQ(pool.queue_high_water(0), 2);  // capacity was the binding limit
  EXPECT_EQ(handled, (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(ShardPool, WorkerExceptionBecomesStatusAndPoolStaysJoinable) {
  std::atomic<int> handled{0};
  ShardPool pool(2, 4, [&](int, ShardPool::Task&& t) {
    if (t.tag == 5) throw std::runtime_error("handler blew up");
    handled.fetch_add(1);
  });
  // Keep pushing well past the throwing task: the poisoned worker must
  // keep draining its queue so producers never block forever.
  for (uint64_t i = 0; i < 40; ++i) {
    pool.Push(static_cast<int>(i % 2), ShardPool::Task{Row{}, i, i});
  }
  pool.Finish();  // joins; a crashed worker would hang or abort here
  const Status err = pool.first_error();
  ASSERT_EQ(err.code(), StatusCode::kInternal);
  EXPECT_NE(err.ToString().find("handler blew up"), std::string::npos)
      << err.ToString();
  // Tasks on the healthy shard were all processed; the poisoned shard
  // stopped at the throw but drained the rest.
  EXPECT_GE(handled.load(), 20);
  EXPECT_LT(handled.load(), 40);
}

TEST(ShardPool, NonStdExceptionIsAlsoCaught) {
  ShardPool pool(1, 2, [&](int, ShardPool::Task&& t) {
    if (t.tag == 0) throw 42;  // not derived from std::exception
  });
  pool.Push(0, ShardPool::Task{Row{}, 0, 0});
  pool.Finish();
  EXPECT_EQ(pool.first_error().code(), StatusCode::kInternal);
}

TEST(ShardPool, DrainQuiescesWithoutFinishing) {
  std::atomic<int> handled{0};
  ShardPool pool(2, 4, [&](int, ShardPool::Task&& t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    (void)t;
    handled.fetch_add(1);
  });
  for (uint64_t i = 0; i < 16; ++i) {
    pool.Push(static_cast<int>(i % 2), ShardPool::Task{Row{}, i, i});
  }
  pool.Drain();
  // Every pushed task's side effects are visible once Drain returns…
  EXPECT_EQ(handled.load(), 16);
  // …and the pool still accepts work afterwards.
  pool.Push(0, ShardPool::Task{Row{}, 0, 99});
  pool.Finish();
  EXPECT_EQ(handled.load(), 17);
}

TEST(ShardedExecution, ClusterLoopMergesInClusterOrderAtAnyWorkerCount) {
  const int kClusters = 37;
  for (int workers : {1, 2, 4, 8}) {
    std::vector<int> produced(kClusters, -1);
    std::vector<int> merged;
    std::atomic<int> bodies{0};
    Status st = RunClusterLoop(
        kClusters, workers, ExecGovernance{},
        [&](int c, int w) {
          EXPECT_GE(w, 0);
          EXPECT_LT(w, workers);
          produced[c] = c * 10;
          ++bodies;
          return Status::OK();
        },
        [&](int c) {
          merged.push_back(produced[c]);
          return Status::OK();
        });
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_EQ(bodies.load(), kClusters);
    ASSERT_EQ(merged.size(), static_cast<size_t>(kClusters));
    for (int c = 0; c < kClusters; ++c) EXPECT_EQ(merged[c], c * 10);
  }
  EXPECT_EQ(ClusterLoopWorkers(8, 3), 3);
  EXPECT_EQ(ClusterLoopWorkers(0, 3), 1);
  EXPECT_EQ(ClusterLoopWorkers(4, 0), 1);
}

TEST(ShardedExecution, ClusterLoopCapturesWorkerExceptionsAndErrors) {
  int merges = 0;
  auto merge = [&](int) {
    ++merges;
    return Status::OK();
  };
  Status thrown = RunClusterLoop(
      16, 4, ExecGovernance{},
      [](int c, int) -> Status {
        if (c == 5) throw std::runtime_error("body blew up");
        return Status::OK();
      },
      merge);
  EXPECT_EQ(thrown.code(), StatusCode::kInternal) << thrown;
  EXPECT_NE(thrown.message().find("body blew up"), std::string::npos);
  Status odd = RunClusterLoop(
      16, 4, ExecGovernance{},
      [](int c, int) -> Status {
        if (c == 9) throw 42;  // not derived from std::exception
        return Status::OK();
      },
      merge);
  EXPECT_EQ(odd.code(), StatusCode::kInternal) << odd;
  Status failed = RunClusterLoop(
      16, 4, ExecGovernance{},
      [](int c, int) {
        return c == 3 ? Status::IoError("bad block") : Status::OK();
      },
      merge);
  EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed;
  // A failed run merges nothing: no partial result reaches the caller.
  EXPECT_EQ(merges, 0);

  ExecGovernance cancelled;
  cancelled.cancel = CancelToken::Cancellable();
  cancelled.cancel.RequestCancel();
  for (int workers : {1, 4}) {
    Status st = RunClusterLoop(
        16, workers, cancelled, [](int, int) { return Status::OK(); }, merge);
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << "workers=" << workers;
  }
  EXPECT_EQ(merges, 0);
}

TEST(ShardedExecution, WorkerExceptionSurfacesFromStreamingFinish) {
  // Inject an exception on the worker side (the matcher.append fault
  // site runs inside the shard worker when num_threads > 1); the
  // streaming executor must convert it into a Status, not crash.
  ExecOptions opt;
  opt.num_threads = 2;
  std::atomic<int> visits{0};
  opt.governance.fault_hook = [&](std::string_view site) -> Status {
    if (site == "matcher.append" && visits.fetch_add(1) == 7) {
      throw std::runtime_error("injected worker fault");
    }
    return Status::OK();
  };
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price > X.price",
      QuoteSchema(), [](const Row&) {}, opt);
  ASSERT_TRUE(exec.ok()) << exec.status();
  Date d0 = *Date::Parse("1999-01-04");
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*exec)
                    ->Push({Value::String("S" + std::to_string(i % 4)),
                            Value::FromDate(d0.AddDays(i / 4)),
                            Value::Double(i)})
                    .ok());
  }
  const Status st = (*exec)->Finish();
  ASSERT_EQ(st.code(), StatusCode::kInternal) << st;
  EXPECT_NE(st.ToString().find("injected worker fault"), std::string::npos);
}

/// A portfolio of `stocks` independent random walks, `rows_per` rows
/// each, appended per instrument (dates ascending within a cluster).
Table Portfolio(int stocks, int64_t rows_per) {
  Table t(QuoteSchema());
  Date d0 = *Date::Parse("1999-01-04");
  for (int s = 0; s < stocks; ++s) {
    RandomWalkOptions opt;
    opt.n = rows_per;
    opt.daily_vol = 0.05;
    opt.seed = 4200 + s;
    SQLTS_CHECK_OK(AppendInstrument(&t, "S" + std::to_string(s), d0,
                                    GeometricRandomWalk(opt)));
  }
  return t;
}

const char kSweepQuery[] =
    "SELECT X.name, Y.date, Y.price FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, Y, Z) WHERE Y.price > 1.03 * X.price "
    "AND Z.price < 0.98 * Y.price";

std::vector<std::string> RenderRows(const Table& out) {
  std::vector<std::string> rows;
  rows.reserve(out.num_rows());
  for (int64_t r = 0; r < out.num_rows(); ++r) {
    std::string key;
    for (int c = 0; c < out.schema().num_columns(); ++c) {
      key += out.at(r, c).ToString() + "|";
    }
    rows.push_back(std::move(key));
  }
  return rows;
}

TEST(ShardedExecution, BatchIdenticalAcrossThreadCounts) {
  Table t = Portfolio(64, 120);
  auto base = QueryExecutor::Execute(t, kSweepQuery);  // num_threads = 1
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_TRUE(base->shard_stats.empty());  // sequential path
  std::vector<std::string> want = RenderRows(base->output);
  ASSERT_GT(want.size(), 0u);

  for (int threads : {2, 8}) {
    ExecOptions opt;
    opt.num_threads = threads;
    auto got = QueryExecutor::Execute(t, kSweepQuery, opt);
    ASSERT_TRUE(got.ok()) << got.status();
    // Rows identical *including order* (cluster first-appearance order).
    EXPECT_EQ(RenderRows(got->output), want) << "threads=" << threads;
    EXPECT_EQ(got->stats.evaluations, base->stats.evaluations);
    EXPECT_EQ(got->stats.matches, base->stats.matches);
    EXPECT_EQ(got->stats.jumps, base->stats.jumps);
    EXPECT_EQ(got->num_clusters, base->num_clusters);
    // The per-shard stats layer partitions the totals.
    ASSERT_EQ(static_cast<int>(got->shard_stats.size()), threads);
    int64_t clusters = 0, rows = 0;
    for (const ShardStats& s : got->shard_stats) {
      clusters += s.clusters;
      rows += s.tuples_pushed;
    }
    EXPECT_EQ(clusters, 64);
    EXPECT_EQ(rows, t.num_rows());
    EXPECT_EQ(TotalSearchStats(got->shard_stats).evaluations,
              base->stats.evaluations);
  }
}

TEST(ShardedExecution, StreamIdenticalAcrossThreadCounts) {
  const int kStocks = 16;
  const int64_t kRowsPer = 200;
  Table t = Portfolio(kStocks, kRowsPer);

  auto run = [&](int threads, std::vector<std::string>* rows,
                 SearchStats* stats,
                 std::vector<ShardStats>* shard_stats) {
    ExecOptions opt;
    opt.num_threads = threads;
    opt.shard_queue_capacity = 64;
    auto exec = StreamingQueryExecutor::Create(
        kSweepQuery, t.schema(),
        [&](const Row& r) {
          std::string key;
          for (const Value& v : r) key += v.ToString() + "|";
          rows->push_back(std::move(key));
        },
        opt);
    ASSERT_TRUE(exec.ok()) << exec.status();
    // Push interleaved round-robin across all clusters.
    for (int64_t i = 0; i < kRowsPer; ++i) {
      for (int s = 0; s < kStocks; ++s) {
        ASSERT_TRUE((*exec)->Push(t.GetRow(s * kRowsPer + i)).ok());
      }
    }
    ASSERT_TRUE((*exec)->Finish().ok());
    EXPECT_EQ((*exec)->num_clusters(), kStocks);
    *stats = (*exec)->stats();
    *shard_stats = (*exec)->shard_stats();
  };

  std::vector<std::string> rows1, rows2, rows8;
  SearchStats s1, s2, s8;
  std::vector<ShardStats> ss1, ss2, ss8;
  run(1, &rows1, &s1, &ss1);
  run(2, &rows2, &s2, &ss2);
  run(8, &rows8, &s8, &ss8);

  ASSERT_GT(rows1.size(), 0u);
  // Identical rows in identical order, for every thread count.
  EXPECT_EQ(rows2, rows1);
  EXPECT_EQ(rows8, rows1);
  // Aggregated matcher stats identical.
  for (const SearchStats* s : {&s2, &s8}) {
    EXPECT_EQ(s->evaluations, s1.evaluations);
    EXPECT_EQ(s->matches, s1.matches);
    EXPECT_EQ(s->presat_skips, s1.presat_skips);
    EXPECT_EQ(s->jumps, s1.jumps);
  }
  // Per-shard layer: totals partition the stream.
  ASSERT_EQ(ss1.size(), 1u);
  ASSERT_EQ(ss8.size(), 8u);
  int64_t pushed = 0, clusters = 0;
  for (const ShardStats& s : ss8) {
    pushed += s.tuples_pushed;
    clusters += s.clusters;
    EXPECT_LE(s.queue_high_water, 64);
  }
  EXPECT_EQ(pushed, kStocks * kRowsPer);
  EXPECT_EQ(clusters, kStocks);
  EXPECT_EQ(ss1[0].tuples_pushed, kStocks * kRowsPer);
}

TEST(ShardedExecution, ParallelStreamAgreesWithBatch) {
  Table t = Portfolio(12, 150);
  ExecOptions opt;
  opt.num_threads = 4;
  auto batch = QueryExecutor::Execute(t, kSweepQuery, opt);
  ASSERT_TRUE(batch.ok()) << batch.status();

  std::multiset<std::string> streamed;
  auto exec = StreamingQueryExecutor::Create(
      kSweepQuery, t.schema(),
      [&](const Row& r) {
        std::string key;
        for (const Value& v : r) key += v.ToString() + "|";
        streamed.insert(std::move(key));
      },
      opt);
  ASSERT_TRUE(exec.ok()) << exec.status();
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_TRUE((*exec)->Push(t.GetRow(r)).ok());
  }
  ASSERT_TRUE((*exec)->Finish().ok());

  std::vector<std::string> batch_rows = RenderRows(batch->output);
  std::multiset<std::string> batched(batch_rows.begin(), batch_rows.end());
  EXPECT_EQ(streamed, batched);
  EXPECT_EQ((*exec)->stats().matches, batch->stats.matches);
}

TEST(ShardedExecution, LimitFallsBackToSequentialPath) {
  Table t = Portfolio(8, 100);
  const std::string query = std::string(kSweepQuery) + " LIMIT 3";
  ExecOptions opt;
  opt.num_threads = 4;
  auto limited = QueryExecutor::Execute(t, query, opt);
  ASSERT_TRUE(limited.ok()) << limited.status();
  EXPECT_LE(limited->output.num_rows(), 3);
  EXPECT_TRUE(limited->shard_stats.empty());  // sequential fallback
  auto base = QueryExecutor::Execute(t, query);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(RenderRows(limited->output), RenderRows(base->output));
}

}  // namespace
}  // namespace sqlts
