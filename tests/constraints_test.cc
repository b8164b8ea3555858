// Unit tests for the GSW implication / satisfiability procedure.

#include <ostream>

#include <gtest/gtest.h>

#include "constraints/catalog.h"
#include "constraints/gsw.h"

namespace sqlts {
namespace {

class GswTest : public ::testing::Test {
 protected:
  // NOTE: catalog_ must be declared before the VarIds that intern into
  // it (members initialize in declaration order).
  VariableCatalog catalog_;
  VarId x_ = catalog_.Intern("x");
  VarId y_ = catalog_.Intern("y");
  VarId z_ = catalog_.Intern("z");
  GswSolver solver_;
  GswSolver unsigned_solver_{GswOptions{.positive_domain = false}};
};

// ---- satisfiability: linear domain ----

TEST_F(GswTest, EmptySystemIsSat) {
  EXPECT_FALSE(solver_.ProvablyUnsat(ConstraintSystem()));
}

TEST_F(GswTest, DirectContradiction) {
  ConstraintSystem s;
  s.AddXopYplusC(x_, CmpOp::kLt, y_, 0);  // x < y
  s.AddXopYplusC(y_, CmpOp::kLt, x_, 0);  // y < x
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, WeakCycleIsSat) {
  ConstraintSystem s;
  s.AddXopYplusC(x_, CmpOp::kLe, y_, 0);
  s.AddXopYplusC(y_, CmpOp::kLe, x_, 0);  // x == y: fine
  EXPECT_FALSE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, StrictZeroCycleIsUnsat) {
  ConstraintSystem s;
  s.AddXopYplusC(x_, CmpOp::kLt, y_, 0);
  s.AddXopYplusC(y_, CmpOp::kLe, x_, 0);
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, TransitiveChainContradiction) {
  ConstraintSystem s;
  s.AddXopYplusC(x_, CmpOp::kLt, y_, 0);   // x < y
  s.AddXopYplusC(y_, CmpOp::kLt, z_, 0);   // y < z
  s.AddXopYplusC(z_, CmpOp::kLe, x_, -5);  // z <= x - 5
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, ConstantWindowContradiction) {
  ConstraintSystem s;
  s.AddXopC(x_, CmpOp::kGt, 50);
  s.AddXopC(x_, CmpOp::kLt, 40);
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, ConstantWindowSat) {
  ConstraintSystem s;
  s.AddXopC(x_, CmpOp::kGt, 40);
  s.AddXopC(x_, CmpOp::kLt, 50);
  EXPECT_FALSE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, OffsetArithmetic) {
  // x <= y + 3 and x >= y + 3 is satisfiable (x = y + 3) …
  ConstraintSystem s;
  s.AddXopYplusC(x_, CmpOp::kLe, y_, 3);
  s.AddXopYplusC(x_, CmpOp::kGe, y_, 3);
  EXPECT_FALSE(solver_.ProvablyUnsat(s));
  // … until x ≠ y + 3 joins.
  s.AddXopYplusC(x_, CmpOp::kNe, y_, 3);
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, DisequalityAloneIsSat) {
  ConstraintSystem s;
  s.AddXopYplusC(x_, CmpOp::kNe, y_, 0);
  EXPECT_FALSE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, EqualityChainWithDisequality) {
  ConstraintSystem s;
  s.AddXopYplusC(x_, CmpOp::kEq, y_, 0);
  s.AddXopYplusC(y_, CmpOp::kEq, z_, 0);
  s.AddXopYplusC(x_, CmpOp::kNe, z_, 0);
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
}

// ---- satisfiability: ratio / log domain ----

TEST_F(GswTest, RatioContradiction) {
  // x < 0.98·y and x > 1.02·y cannot hold for positive prices.
  ConstraintSystem s;
  s.AddXopCtimesY(x_, CmpOp::kLt, 0.98, y_);
  s.AddXopCtimesY(x_, CmpOp::kGt, 1.02, y_);
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
  // Without the positivity assumption the ratio atoms are opaque.
  EXPECT_FALSE(unsigned_solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, RatioTransitiveContradiction) {
  // x > 1.1·y, y > 1.1·z, x < 1.0·z.
  ConstraintSystem s;
  s.AddXopCtimesY(x_, CmpOp::kGt, 1.1, y_);
  s.AddXopCtimesY(y_, CmpOp::kGt, 1.1, z_);
  s.AddXopCtimesY(x_, CmpOp::kLt, 1.0, z_);
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, RatioSat) {
  ConstraintSystem s;
  s.AddXopCtimesY(x_, CmpOp::kGt, 1.02, y_);
  s.AddXopCtimesY(x_, CmpOp::kLt, 1.20, y_);
  EXPECT_FALSE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, NonPositiveConstantDecidesAtom) {
  // price < -3 is false under positivity.
  ConstraintSystem s;
  s.AddXopC(x_, CmpOp::kLt, -3);
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
  EXPECT_FALSE(unsigned_solver_.ProvablyUnsat(s));

  // price > -3 is a tautology under positivity.
  ConstraintSystem t;
  t.AddXopC(x_, CmpOp::kGt, -3);
  EXPECT_FALSE(solver_.ProvablyUnsat(t));
}

TEST_F(GswTest, RatioNonPositiveFactor) {
  // x ≤ -0.5·y is false for positive x, y.
  ConstraintSystem s;
  s.AddXopCtimesY(x_, CmpOp::kLe, -0.5, y_);
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, MixedComparisonBridgesDomains) {
  // x <= y (shared) combined with y < 0.9·x forces y < x and x <= y.
  ConstraintSystem s;
  s.AddXopYplusC(x_, CmpOp::kLe, y_, 0);
  s.AddXopCtimesY(y_, CmpOp::kLt, 0.9, x_);
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
}

// ---- string atoms ----

TEST_F(GswTest, StringEqualityClash) {
  ConstraintSystem s;
  s.AddString({x_, true, "IBM"});
  s.AddString({x_, true, "INTC"});
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, StringEqNeClash) {
  ConstraintSystem s;
  s.AddString({x_, true, "IBM"});
  s.AddString({x_, false, "IBM"});
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
}

TEST_F(GswTest, StringCompatible) {
  ConstraintSystem s;
  s.AddString({x_, true, "IBM"});
  s.AddString({x_, false, "INTC"});
  s.AddString({y_, true, "INTC"});
  EXPECT_FALSE(solver_.ProvablyUnsat(s));
}

// ---- implication ----

TEST_F(GswTest, ImpliesReflexive) {
  ConstraintSystem s;
  s.AddXopYplusC(x_, CmpOp::kLt, y_, 0);
  EXPECT_TRUE(solver_.ProvablyImplies(s, s));
}

TEST_F(GswTest, StrictImpliesWeak) {
  ConstraintSystem s, t;
  s.AddXopYplusC(x_, CmpOp::kLt, y_, 0);
  t.AddXopYplusC(x_, CmpOp::kLe, y_, 0);
  EXPECT_TRUE(solver_.ProvablyImplies(s, t));
  EXPECT_FALSE(solver_.ProvablyImplies(t, s));
}

TEST_F(GswTest, WindowImpliesWiderWindow) {
  ConstraintSystem s, t;
  s.AddXopC(x_, CmpOp::kGt, 35);
  s.AddXopC(x_, CmpOp::kLt, 40);
  t.AddXopC(x_, CmpOp::kGt, 30);
  t.AddXopC(x_, CmpOp::kLt, 40);
  EXPECT_TRUE(solver_.ProvablyImplies(s, t));   // (35,40) ⊆ (30,40)
  EXPECT_FALSE(solver_.ProvablyImplies(t, s));
}

TEST_F(GswTest, ChainImplication) {
  ConstraintSystem s, t;
  s.AddXopYplusC(x_, CmpOp::kLt, y_, 0);
  s.AddXopYplusC(y_, CmpOp::kLt, z_, 0);
  t.AddXopYplusC(x_, CmpOp::kLt, z_, 0);
  EXPECT_TRUE(solver_.ProvablyImplies(s, t));
}

TEST_F(GswTest, RatioImpliesComparison) {
  // x > 1.02·y implies x > y for positive prices.
  ConstraintSystem s, t;
  s.AddXopCtimesY(x_, CmpOp::kGt, 1.02, y_);
  t.AddXopYplusC(x_, CmpOp::kGt, y_, 0);
  EXPECT_TRUE(solver_.ProvablyImplies(s, t));
  EXPECT_FALSE(unsigned_solver_.ProvablyImplies(s, t));
}

TEST_F(GswTest, ComparisonDoesNotImplyRatio) {
  ConstraintSystem s, t;
  s.AddXopYplusC(x_, CmpOp::kGt, y_, 0);
  t.AddXopCtimesY(x_, CmpOp::kGt, 1.02, y_);
  EXPECT_FALSE(solver_.ProvablyImplies(s, t));
}

TEST_F(GswTest, UnsatImpliesAnything) {
  ConstraintSystem s, t;
  s.AddXopC(x_, CmpOp::kLt, 1);
  s.AddXopC(x_, CmpOp::kGt, 2);
  t.AddXopC(z_, CmpOp::kEq, 777);
  EXPECT_TRUE(solver_.ProvablyImplies(s, t));
}

TEST_F(GswTest, EqualityImplication) {
  ConstraintSystem s, t;
  s.AddXopYplusC(x_, CmpOp::kEq, y_, 2);
  t.AddXopYplusC(x_, CmpOp::kGe, y_, 2);
  EXPECT_TRUE(solver_.ProvablyImplies(s, t));
  ConstraintSystem u;
  u.AddXopYplusC(x_, CmpOp::kNe, y_, 3);
  EXPECT_TRUE(solver_.ProvablyImplies(s, u));  // x = y+2 ⇒ x ≠ y+3
}

TEST_F(GswTest, ImpliesDisequalityViaStrictness) {
  ConstraintSystem s, t;
  s.AddXopYplusC(x_, CmpOp::kLt, y_, 0);
  t.AddXopYplusC(x_, CmpOp::kNe, y_, 0);
  EXPECT_TRUE(solver_.ProvablyImplies(s, t));
}

TEST_F(GswTest, StringImplication) {
  ConstraintSystem s, t;
  s.AddString({x_, true, "IBM"});
  t.AddString({x_, false, "INTC"});
  EXPECT_TRUE(solver_.ProvablyImplies(s, t));  // x='IBM' ⇒ x≠'INTC'
}

TEST_F(GswTest, ValidTautology) {
  ConstraintSystem t;
  t.AddXopC(x_, CmpOp::kGt, -1);  // always true for positive x
  EXPECT_TRUE(solver_.ProvablyValid(t));
  ConstraintSystem u;
  u.AddXopC(x_, CmpOp::kGt, 1);
  EXPECT_FALSE(solver_.ProvablyValid(u));
}

TEST_F(GswTest, TriviallyFalseSystem) {
  ConstraintSystem s;
  s.SetTriviallyFalse();
  EXPECT_TRUE(solver_.ProvablyUnsat(s));
  ConstraintSystem t;
  t.AddXopC(x_, CmpOp::kEq, 5);
  EXPECT_TRUE(solver_.ProvablyImplies(s, t));
}

// ---- the paper's Example 4 pairwise relations (Example 5) ----

class Example4Relations : public GswTest {
 protected:
  // Variables price@0 (p) and price@-1 (q) shared by all predicates.
  ConstraintSystem P(int idx) {
    VarId p = x_, q = y_;
    ConstraintSystem s;
    switch (idx) {
      case 1:
        s.AddXopYplusC(p, CmpOp::kLt, q, 0);
        break;
      case 2:
        s.AddXopYplusC(p, CmpOp::kLt, q, 0);
        s.AddXopC(p, CmpOp::kGt, 40);
        s.AddXopC(p, CmpOp::kLt, 50);
        break;
      case 3:
        s.AddXopYplusC(p, CmpOp::kGt, q, 0);
        s.AddXopC(p, CmpOp::kLt, 52);
        break;
      case 4:
        s.AddXopYplusC(p, CmpOp::kGt, q, 0);
        break;
    }
    return s;
  }
};

TEST_F(Example4Relations, PaperImplications) {
  EXPECT_TRUE(solver_.ProvablyImplies(P(2), P(1)));   // θ21 = 1
  EXPECT_TRUE(solver_.ProvablyUnsat(
      ConstraintSystem::Conjoin(P(3), P(1))));        // θ31 = 0
  EXPECT_TRUE(solver_.ProvablyUnsat(
      ConstraintSystem::Conjoin(P(3), P(2))));        // θ32 = 0
  EXPECT_TRUE(solver_.ProvablyUnsat(
      ConstraintSystem::Conjoin(P(4), P(2))));        // θ42 = 0
  EXPECT_TRUE(solver_.ProvablyUnsat(
      ConstraintSystem::Conjoin(P(4), P(1))));        // θ41 = 0
  // θ43 = U: neither implication holds.
  EXPECT_FALSE(solver_.ProvablyImplies(P(4), P(3)));
  EXPECT_FALSE(solver_.ProvablyUnsat(
      ConstraintSystem::Conjoin(P(4), P(3))));
}

// ---- parameterized sweep: single-variable window pairs ----

struct WindowCase {
  double lo1, hi1, lo2, hi2;
  bool implies;    // (lo1,hi1) ⊆ (lo2,hi2)
  bool exclusive;  // empty intersection
};

// Names the case "lo1_hi1_vs_lo2_hi2" in test names (gtest would
// otherwise print the struct's raw bytes, padding included).
void PrintTo(const WindowCase& c, std::ostream* os) {
  *os << c.lo1 << "_" << c.hi1 << "_vs_" << c.lo2 << "_" << c.hi2;
}

class WindowSweep : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowSweep, ImplicationAndExclusion) {
  const WindowCase& c = GetParam();
  VariableCatalog cat;
  VarId x = cat.Intern("x");
  GswSolver solver;
  ConstraintSystem a, b;
  a.AddXopC(x, CmpOp::kGt, c.lo1);
  a.AddXopC(x, CmpOp::kLt, c.hi1);
  b.AddXopC(x, CmpOp::kGt, c.lo2);
  b.AddXopC(x, CmpOp::kLt, c.hi2);
  EXPECT_EQ(solver.ProvablyImplies(a, b), c.implies);
  EXPECT_EQ(solver.ProvablyUnsat(ConstraintSystem::Conjoin(a, b)),
            c.exclusive);
}

INSTANTIATE_TEST_SUITE_P(
    Windows, WindowSweep,
    ::testing::Values(WindowCase{35, 40, 30, 40, true, false},
                      WindowCase{30, 40, 35, 40, false, false},
                      WindowCase{10, 20, 20, 30, false, true},
                      WindowCase{10, 20, 19, 30, false, false},
                      WindowCase{10, 20, 10, 20, true, false},
                      WindowCase{12, 18, 10, 20, true, false},
                      WindowCase{0, 100, 40, 50, false, false},
                      WindowCase{41, 49, 40, 50, true, false}));

}  // namespace
}  // namespace sqlts
