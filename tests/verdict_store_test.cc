// VerdictStore (src/engine/verdict_store.h), the one per-position
// verdict cache behind single-query vectorized evaluation and the
// multi-query SharedClusterCache: its fill rule, ring eviction,
// subsumption seeding, and a multi-stream run whose shard workers
// share it.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/stream_executor.h"
#include "engine/verdict_store.h"
#include "expr/eval.h"
#include "expr/kernel.h"
#include "multiquery/multi_stream.h"
#include "multiquery/predicate_catalog.h"
#include "multiquery/shared_cache.h"
#include "test_util.h"

namespace sqlts {
namespace {

using testing_util::MustPlan;
using testing_util::SeriesFixture;

/// The (tuple-local) predicate of pattern element Y in `where`.
ExprPtr YPredicate(const std::string& where) {
  PatternPlan plan = MustPlan(
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE " + where);
  SQLTS_CHECK(plan.predicates[2] != nullptr);
  return plan.predicates[2];
}

bool Interpret(const ExprPtr& pred, const SequenceView& view, int64_t pos) {
  EvalContext ctx;
  ctx.seq = &view;
  ctx.pos = pos;
  return EvalPredicate(*pred, ctx);
}

/// Rise at odd positions not divisible by 7, fall elsewhere: verdicts
/// of a trend predicate differ between neighbouring lanes and between
/// the same lane of neighbouring blocks (256 % 7 != 0).
std::vector<double> ZigZag(int n) {
  std::vector<double> prices;
  for (int i = 0; i < n; ++i) prices.push_back(100 + 3 * (i % 2) + i % 7);
  return prices;
}

/// `n` prices of a seeded random walk with daily moves of -4%..+4%.
std::vector<double> Walk(int n) {
  std::vector<double> prices;
  double p = 100;
  uint64_t rng = 7;
  for (int i = 0; i < n; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    p *= 1.0 + (static_cast<double>((rng >> 33) % 9) - 4.0) / 100.0;
    prices.push_back(p);
  }
  return prices;
}

std::vector<int64_t> Positions(int64_t from, int64_t to) {
  std::vector<int64_t> rows;
  for (int64_t r = from; r < to; ++r) rows.push_back(r);
  return rows;
}

/// A miss fills from the missed lane forward and writes nothing below
/// it: lanes under a streaming view's base read evicted cells, so a
/// fill from the block start would cache NULL verdicts that a sharer
/// with an earlier base then reads as hits.
TEST(VerdictStoreFill, NeverWritesBelowTheMissedPosition) {
  SeriesFixture f(ZigZag(600));
  const SequenceView full = f.view();
  const ExprPtr pred = YPredicate("Y.price > X.price");
  auto kernel = PredicateKernel::Compile(pred, f.table.schema());
  ASSERT_NE(kernel, nullptr);

  VerdictStore store(1 << 16);
  // A view that has evicted positions [0, 300): base 300 is lane 44 of
  // block 1.  The miss is at absolute 310, lane 54.
  const SequenceView tail(&f.table, Positions(300, 600));
  VerdictStore::Block& b = store.At(0, 310, /*live_from=*/300);
  ASSERT_FALSE(b.Known(54));
  store.Fill(&b, *kernel, tail, /*pos=*/10, /*abs_pos=*/310, nullptr);
  for (int lane = 0; lane < kKernelBlock; ++lane) {
    const int64_t abs = 256 + lane;
    EXPECT_EQ(b.Known(lane), lane >= 54) << "lane " << lane;
    if (lane >= 54) {
      EXPECT_EQ(b.True(lane), Interpret(pred, full, abs)) << "abs " << abs;
    }
  }

  // A sharer whose view still holds the whole cluster misses below the
  // first fill and sees the interpreter's verdicts on every lane.
  VerdictStore::Block& again = store.At(0, 290, /*live_from=*/0);
  ASSERT_FALSE(again.Known(34));
  store.Fill(&again, *kernel, full, 290, 290, nullptr);
  for (int64_t abs = 290; abs < 512; ++abs) {
    EXPECT_TRUE(again.Known(abs - 256));
    EXPECT_EQ(again.True(abs - 256), Interpret(pred, full, abs))
        << "abs " << abs;
  }
  EXPECT_FALSE(again.Known(33));
}

/// A store whose window is one block evicts on every block change; the
/// evicted lanes come back empty and re-evaluate to the same verdicts.
TEST(VerdictStoreRing, EvictedLaneReEvaluatesToTheSameVerdict) {
  SeriesFixture f(ZigZag(1000));
  const SequenceView view = f.view();
  const ExprPtr pred = YPredicate("Y.price > X.price");
  auto kernel = PredicateKernel::Compile(pred, f.table.schema());
  ASSERT_NE(kernel, nullptr);

  VerdictStore store(kKernelBlock);
  auto verdict = [&](int64_t abs) {
    VerdictStore::Block& b = store.At(0, abs, 0);
    const int lane = static_cast<int>(abs % kKernelBlock);
    if (!b.Known(lane)) store.Fill(&b, *kernel, view, abs, abs, nullptr);
    return b.True(lane);
  };
  std::vector<bool> first;
  for (int64_t abs = 0; abs < view.size(); ++abs) {
    first.push_back(verdict(abs));
    ASSERT_EQ(first.back(), Interpret(pred, view, abs)) << "abs " << abs;
  }
  // Block 0 was evicted by blocks 1..3.
  EXPECT_FALSE(store.At(0, 5, 0).Known(5));
  // Backwards in strides that change block on nearly every step.
  for (int64_t k = 0; k < view.size(); ++k) {
    const int64_t abs = (k * 389) % view.size();
    EXPECT_EQ(verdict(abs), first[abs]) << "abs " << abs;
  }
}

/// Subsumption seeding under ring wrap: with a one-block window, every
/// block is filled, seeded and evicted in turn.  A fill over a seeded
/// lane keeps its inferred bit, so each TRUE verdict of the tighter
/// predicate surfaces once as an inferred hit of the looser one, and
/// the counter identity survives every eviction.
TEST(VerdictStoreShared, SeedingKeepsInferredBitAcrossWraps) {
  SeriesFixture f(Walk(2000));
  const SequenceView view = f.view();
  SharedPredicateCatalog catalog(f.table.schema(), OracleOptions{});
  const ExprPtr tight = YPredicate("Y.price < 0.98 * X.price");
  const ExprPtr loose = YPredicate("Y.price < 0.99 * X.price");
  const int p = catalog.Register(tight);
  const int q = catalog.Register(loose);
  ASSERT_NE(p, q);
  ASSERT_EQ(catalog.predicate(p).implies, std::vector<int>{q});
  ASSERT_NE(catalog.predicate(q).kernel, nullptr);

  SharedClusterCache cache(&catalog, /*window=*/kKernelBlock);
  MultiQueryTally tally;
  auto test = [&](int id, const ExprPtr& pred, int64_t pos) {
    EvalContext ctx;
    ctx.seq = &view;
    ctx.pos = pos;
    const bool got = cache.Test(id, ctx, pos, &tally);
    EXPECT_EQ(got, Interpret(pred, view, pos)) << "pred " << id << " at "
                                               << pos;
  };
  int64_t tight_true = 0;
  for (int64_t block = 0; block * kKernelBlock < view.size(); ++block) {
    const int64_t lo = block * kKernelBlock;
    const int64_t hi = std::min<int64_t>(lo + kKernelBlock, view.size());
    for (int64_t pos = lo; pos < hi; ++pos) {
      test(p, tight, pos);
      if (Interpret(tight, view, pos)) ++tight_true;
    }
    // Front to back: `q`'s first miss fills over the lanes `p` seeded.
    for (int64_t pos = lo; pos < hi; ++pos) test(q, loose, pos);
  }
  ASSERT_GT(tight_true, 0);
  EXPECT_EQ(tally.inferred_hits, tight_true);

  // Revisit evicted blocks in an order that wraps both rings.
  for (int64_t k = 0; k < view.size(); ++k) {
    const int64_t pos = (k * 389) % view.size();
    test(k % 2 == 0 ? p : q, k % 2 == 0 ? tight : loose, pos);
  }
  EXPECT_EQ(tally.shared_lookups, tally.cache_hits + tally.shared_evals);
  EXPECT_LE(tally.inferred_hits, tally.cache_hits);
  EXPECT_GT(tally.shared_evals, 2 * view.size() / kKernelBlock);
}

std::string RowString(const Row& row) {
  std::string s;
  for (size_t c = 0; c < row.size(); ++c) {
    if (c) s += '|';
    s += row[c].ToString();
  }
  return s;
}

/// Standalone streaming run of `query` over rows [from, rows.size()).
std::vector<std::string> Standalone(const std::string& query,
                                    const std::vector<Row>& rows,
                                    size_t from) {
  std::vector<std::string> out;
  auto exec = StreamingQueryExecutor::Create(
      query, QuoteSchema(),
      [&](const Row& row) { out.push_back(RowString(row)); });
  SQLTS_CHECK(exec.ok()) << exec.status();
  for (size_t r = from; r < rows.size(); ++r) {
    SQLTS_CHECK_OK((*exec)->Push(rows[r]));
  }
  SQLTS_CHECK_OK((*exec)->Finish());
  return out;
}

/// Two queries from the start and three that join mid-stream share one
/// scan group.  The joiners repeat the early queries' predicates, which
/// they may only share with each other (their positions count from the
/// join), and each cluster outgrows the streaming ring window (4,096
/// positions), so the shard workers fill, seed and evict the shared
/// stores concurrently.  Every query's rows equal its standalone run.
TEST(VerdictStoreMultiStream, LateJoinerMatchesStandaloneAtOneAndFourThreads) {
  const std::vector<Row> rows = testing_util::PortfolioStream(15000);
  const size_t split = 7001;
  const std::string drop98 =
      "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.98 * X.price";
  const std::vector<std::string> early = {testing_util::kPortfolioQuery,
                                          drop98};
  const std::vector<std::string> late = {
      testing_util::kPortfolioQuery,
      "SELECT X.name, Y.price FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price < 0.97 * X.price",
      drop98,
  };
  std::vector<std::vector<std::string>> want;
  for (const std::string& q : early) want.push_back(Standalone(q, rows, 0));
  for (const std::string& q : late) want.push_back(Standalone(q, rows, split));

  for (int threads : {1, 4}) {
    ExecOptions options;
    options.num_threads = threads;
    auto multi = MultiStreamExecutor::Create(QuoteSchema(), options);
    ASSERT_TRUE(multi.ok()) << multi.status();
    std::vector<std::vector<std::string>> got(want.size());
    auto add = [&](const std::string& q, size_t i) {
      auto id = (*multi)->AddQuery(
          q, [&got, i](const Row& row) { got[i].push_back(RowString(row)); });
      ASSERT_TRUE(id.ok()) << id.status();
    };
    for (size_t i = 0; i < early.size(); ++i) add(early[i], i);
    for (size_t r = 0; r < rows.size(); ++r) {
      if (r == split) {
        for (size_t i = 0; i < late.size(); ++i) {
          add(late[i], early.size() + i);
        }
      }
      ASSERT_TRUE((*multi)->Push(rows[r]).ok());
    }
    ASSERT_TRUE((*multi)->Finish().ok());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_FALSE(want[i].empty()) << "query #" << i;
      EXPECT_EQ(got[i], want[i]) << "query #" << i << " threads=" << threads;
    }
    const MultiQueryStats s = (*multi)->stats();
    EXPECT_EQ(s.shared_lookups, s.cache_hits + s.shared_evals);
    EXPECT_LE(s.inferred_hits, s.cache_hits);
    EXPECT_GT(s.cache_hits, 0) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace sqlts
