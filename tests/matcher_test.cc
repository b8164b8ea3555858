// Naive / OPS matcher tests, including randomized equivalence sweeps —
// the central correctness property of the reproduction: OPS must return
// exactly the matches of the naive backtracking search.

#include <ostream>
#include <random>

#include <gtest/gtest.h>

#include "engine/matcher.h"
#include "test_util.h"

namespace sqlts {
namespace {

using testing_util::MatchesToString;
using testing_util::MustPlan;
using testing_util::SameMatches;
using testing_util::SeriesFixture;

std::vector<Match> RunNaive(const std::vector<double>& prices,
                            const PatternPlan& plan, SearchStats* stats) {
  SeriesFixture fx(prices);
  return NaiveSearch(fx.view(), plan, stats);
}

std::vector<Match> RunOps(const std::vector<double>& prices,
                          const PatternPlan& plan, SearchStats* stats) {
  SeriesFixture fx(prices);
  return OpsSearch(fx.view(), plan, stats);
}

// ---- naive semantics unit cases ----

TEST(NaiveSemantics, SimpleThreeElementMatch) {
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y, Z) "
      "WHERE X.price = 10 AND Y.price = 11 AND Z.price = 15");
  SearchStats stats;
  auto ms = RunNaive({9, 10, 11, 15, 10, 11, 15}, plan, &stats);
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_EQ(ms[0].first(), 1);
  EXPECT_EQ(ms[0].last(), 3);
  EXPECT_EQ(ms[1].first(), 4);
  EXPECT_EQ(ms[1].last(), 6);
}

TEST(NaiveSemantics, GreedyStarConsumesMaximalRun) {
  // (X, *Y, Z): Y = falling run; Z = first non-falling tuple.
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, *Y, Z) "
      "WHERE Y.price < Y.previous.price AND Z.price >= Z.previous.price");
  SearchStats stats;
  auto ms = RunNaive({10, 9, 8, 7, 8}, plan, &stats);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].spans[0].first, 0);
  EXPECT_EQ(ms[0].spans[0].last, 0);   // X
  EXPECT_EQ(ms[0].spans[1].first, 1);
  EXPECT_EQ(ms[0].spans[1].last, 3);   // *Y greedy: 9 8 7
  EXPECT_EQ(ms[0].spans[2].first, 4);
  EXPECT_EQ(ms[0].spans[2].last, 4);   // Z
}

TEST(NaiveSemantics, StarRequiresAtLeastOne) {
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, *Y, Z) "
      "WHERE X.price = 10 AND Y.price < Y.previous.price AND Z.price = 7");
  SearchStats stats;
  // 10 then directly 7 with no drop in between fails (star is
  // one-or-more) … note 7 < 10 so 7 itself satisfies Y, and then input
  // ends before Z: no match either way.
  auto ms = RunNaive({10, 7}, plan, &stats);
  EXPECT_TRUE(ms.empty());
}

TEST(NaiveSemantics, TrailingStarClosesAtEndOfInput) {
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, *Y) "
      "WHERE Y.price < Y.previous.price");
  SearchStats stats;
  auto ms = RunNaive({10, 9, 8}, plan, &stats);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].spans[1].first, 1);
  EXPECT_EQ(ms[0].spans[1].last, 2);
}

TEST(NaiveSemantics, LeftMaximalityNoOverlaps) {
  // Rising pairs in a monotone run: matches must tile, not overlap.
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y) "
      "WHERE Y.price > X.price");
  SearchStats stats;
  auto ms = RunNaive({1, 2, 3, 4, 5}, plan, &stats);
  ASSERT_EQ(ms.size(), 2u);  // (0,1) and (2,3); 4 left unpaired
  EXPECT_EQ(ms[0].first(), 0);
  EXPECT_EQ(ms[1].first(), 2);
}

TEST(NaiveSemantics, FirstTupleHasNoPrevious) {
  // A previous-referencing predicate cannot hold on the very first
  // tuple (NULL semantics, documented deviation from the paper's Sec 5
  // count example).
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (*X) "
      "WHERE X.price > X.previous.price");
  SearchStats stats;
  auto ms = RunNaive({20, 21, 23}, plan, &stats);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].spans[0].first, 1);  // starts at the second tuple
  EXPECT_EQ(ms[0].spans[0].last, 2);
}

TEST(Section5CountExample, GroupSizesUnderNullSemantics) {
  // Paper Sec 5: pattern (*X, *Y, *Z) rise/fall/rise over
  // 20 21 23 24 22 20 18 15 14 18 21.  With NULL semantics the first
  // tuple cannot open the rising group, so X = {21,23,24} (the paper,
  // which counts the boundary tuple, reports 4/9/11; we get 3/8/10).
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (*X, *Y, *Z) "
      "WHERE X.price > X.previous.price AND Y.price < Y.previous.price "
      "AND Z.price > Z.previous.price");
  SearchStats stats;
  auto ms = RunNaive(PaperSection5Sequence(), plan, &stats);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].spans[0].first, 1);
  EXPECT_EQ(ms[0].spans[0].last, 3);   // count(1) = 3
  EXPECT_EQ(ms[0].spans[1].first, 4);
  EXPECT_EQ(ms[0].spans[1].last, 8);   // cumulative 8
  EXPECT_EQ(ms[0].spans[2].first, 9);
  EXPECT_EQ(ms[0].spans[2].last, 10);  // cumulative 10
}

// ---- OPS equals naive on targeted cases ----

struct EquivCase {
  const char* name;
  const char* query;
};

// Print a case by its label. The default printer dumps the two pointers,
// and the test names derived from it change with every load address.
void PrintTo(const EquivCase& c, std::ostream* os) { *os << c.name; }

class OpsEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(OpsEquivalence, MatchesAndSpansAgreeOnRandomWalks) {
  PatternPlan plan = MustPlan(GetParam().query);
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    // Integer-ish price walks create plenty of equal/up/down runs.
    std::vector<double> prices;
    double p = 50;
    int n = 30 + static_cast<int>(rng() % 120);
    for (int i = 0; i < n; ++i) {
      p += static_cast<double>(static_cast<int>(rng() % 11)) - 5.0;
      if (p < 5) p = 5;
      prices.push_back(p);
    }
    SearchStats ns, os;
    auto nm = RunNaive(prices, plan, &ns);
    auto om = RunOps(prices, plan, &os);
    ASSERT_TRUE(SameMatches(nm, om))
        << GetParam().name << " trial " << trial << "\nnaive: "
        << MatchesToString(nm) << "\nops:   " << MatchesToString(om);
    // OPS never tests more pairs than naive.
    EXPECT_LE(os.evaluations, ns.evaluations) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, OpsEquivalence,
    ::testing::Values(
        EquivCase{"updown",
                  "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y, Z) "
                  "WHERE Y.price > X.price AND Z.price < Y.price"},
        EquivCase{"example4core",
                  "SELECT X.price FROM quote SEQUENCE BY date AS "
                  "(X, Y, Z, T) WHERE X.price < X.previous.price AND "
                  "Y.price < X.price AND Y.price > 40 AND Y.price < 50 AND "
                  "Z.price > Y.price AND Z.price < 52 AND T.price > Z.price"},
        EquivCase{"equalities",
                  "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y, Z) "
                  "WHERE X.price = 50 AND Y.price = 51 AND Z.price = 50"},
        EquivCase{"stars_rise_fall_rise",
                  "SELECT X.price FROM quote SEQUENCE BY date AS "
                  "(*X, *Y, *Z) WHERE X.price > X.previous.price AND "
                  "Y.price < Y.previous.price AND Z.price > "
                  "Z.previous.price"},
        EquivCase{"star_between_anchors",
                  "SELECT X.price FROM quote SEQUENCE BY date AS (X, *Y, Z) "
                  "WHERE X.price > 60 AND Y.price < Y.previous.price AND "
                  "Z.price >= Z.previous.price AND Z.price < 40"},
        EquivCase{"windows",
                  "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y, Z) "
                  "WHERE X.price > 40 AND X.price < 60 AND Y.price > 45 "
                  "AND Y.price < 55 AND Z.price < 45"},
        EquivCase{"trailing_star",
                  "SELECT X.price FROM quote SEQUENCE BY date AS (X, *Y) "
                  "WHERE X.price >= 55 AND Y.price < Y.previous.price"},
        EquivCase{"anchored_cross_ref",
                  "SELECT X.price FROM quote SEQUENCE BY date AS (X, *Y, Z) "
                  "WHERE Y.price < Y.previous.price AND "
                  "Z.previous.price < 0.9 * X.price"},
        EquivCase{"disjunctive",
                  "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y) "
                  "WHERE (X.price < 45 OR X.price > 55) AND Y.price > 45 "
                  "AND Y.price < 55"}));

// ---- randomized pattern generator sweep ----

class RandomPatternEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomPatternEquivalence, OpsEqualsNaive) {
  std::mt19937_64 rng(GetParam() * 7919);
  const char* pool[] = {
      "%V.price > %V.previous.price",
      "%V.price < %V.previous.price",
      "%V.price > 1.02 * %V.previous.price",
      "%V.price < 0.98 * %V.previous.price",
      "%V.price > 45 AND %V.price < 55",
      "%V.price > 52",
      "%V.price < 48",
      "%V.price >= %V.previous.price",
      "(%V.price > 52 OR %V.price < 48)",
      "(%V.price < %V.previous.price OR %V.price < 45)",
      "%V.date < %V.previous.date + 4",
      "%V.price + %V.previous.price > 95",  // residue for the optimizer
  };
  const char* vars = "ABCDEFG";
  for (int trial = 0; trial < 25; ++trial) {
    int m = 2 + static_cast<int>(rng() % 4);
    std::string pattern, where;
    for (int e = 0; e < m; ++e) {
      if (e) pattern += ", ";
      bool star = rng() % 3 == 0;
      if (star) pattern += "*";
      pattern += vars[e];
      std::string cond = pool[rng() % (sizeof(pool) / sizeof(pool[0]))];
      // Substitute the variable name.
      std::string sub;
      for (size_t i = 0; i < cond.size(); ++i) {
        if (cond[i] == '%' && i + 1 < cond.size() && cond[i + 1] == 'V') {
          sub += vars[e];
          ++i;
        } else {
          sub += cond[i];
        }
      }
      where += (e ? " AND " : "") + sub;
    }
    std::string query = "SELECT A.price FROM quote SEQUENCE BY date AS (" +
                        pattern + ") WHERE " + where;
    PatternPlan plan = MustPlan(query);

    for (int series = 0; series < 6; ++series) {
      std::vector<double> prices;
      double p = 50;
      int n = 40 + static_cast<int>(rng() % 80);
      for (int i = 0; i < n; ++i) {
        p *= 1.0 + (static_cast<double>(rng() % 9) - 4.0) / 100.0;
        prices.push_back(p);
      }
      SearchStats ns, os;
      auto nm = RunNaive(prices, plan, &ns);
      auto om = RunOps(prices, plan, &os);
      ASSERT_TRUE(SameMatches(nm, om))
          << "query: " << query << "\nnaive: " << MatchesToString(nm)
          << "\nops:   " << MatchesToString(om);
      EXPECT_LE(os.evaluations, ns.evaluations) << query;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPatternEquivalence,
                         ::testing::Range(1, 13));

// ---- trace / stats ----

TEST(Trace, RecordsEveryEvaluation) {
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y) "
      "WHERE Y.price > X.price");
  SeriesFixture fx({1, 2, 1, 2});
  SearchStats stats;
  SearchTrace trace;
  OpsSearch(fx.view(), plan, &stats, &trace);
  EXPECT_EQ(static_cast<int64_t>(trace.size()), stats.evaluations);
  for (const TracePoint& t : trace) {
    EXPECT_GE(t.j, 1);
    EXPECT_LE(t.j, 2);
    EXPECT_GE(t.i, 0);
    EXPECT_LT(t.i, 4);
  }
}

TEST(Trace, OpsBacktracksLessThanNaive) {
  // Figure 5's caption: "for the OPS algorithm, the backtracking
  // episodes are less frequent and less deep".  Compare total
  // backtracking distance on the same workload.
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y, Z, T) "
      "WHERE X.price < X.previous.price AND Y.price < X.price AND "
      "Y.price > 40 AND Y.price < 50 AND Z.price > Y.price AND "
      "Z.price < 52 AND T.price > Z.price");
  SeriesFixture fx(PaperFigure5Sequence());
  auto backtrack_cost = [](const SearchTrace& tr) {
    int64_t episodes = 0, depth = 0;
    for (size_t t = 1; t < tr.size(); ++t) {
      if (tr[t].i < tr[t - 1].i) {
        ++episodes;
        depth += tr[t - 1].i - tr[t].i;
      }
    }
    return std::make_pair(episodes, depth);
  };
  SearchStats ns, os;
  SearchTrace ntrace, otrace;
  NaiveSearch(fx.view(), plan, &ns, &ntrace);
  OpsSearch(fx.view(), plan, &os, &otrace);
  auto [nep, ndep] = backtrack_cost(ntrace);
  auto [oep, odep] = backtrack_cost(otrace);
  EXPECT_LE(oep, nep);
  EXPECT_LT(odep, ndep);
}

TEST(Figure5, OpsPathShorterThanNaive) {
  // The Sec 4.2.1 experiment: Example 4's core pattern over the
  // 15-value sequence.  OPS's search path must be strictly shorter.
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y, Z, T) "
      "WHERE X.price < X.previous.price AND Y.price < X.price AND "
      "Y.price > 40 AND Y.price < 50 AND Z.price > Y.price AND "
      "Z.price < 52 AND T.price > Z.price");
  SeriesFixture fx(PaperFigure5Sequence());
  SearchStats ns, os;
  SearchTrace ntrace, otrace;
  auto nm = NaiveSearch(fx.view(), plan, &ns, &ntrace);
  auto om = OpsSearch(fx.view(), plan, &os, &otrace);
  EXPECT_TRUE(SameMatches(nm, om));
  EXPECT_LT(otrace.size(), ntrace.size());
}

}  // namespace
}  // namespace sqlts
