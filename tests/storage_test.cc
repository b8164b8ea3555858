// Table / CSV / ClusteredSequence tests.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>

#include <gtest/gtest.h>

#include "storage/csv.h"
#include "storage/sequence.h"
#include "storage/table.h"

namespace sqlts {
namespace {

Schema QuoteSchemaLocal() {
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("name", TypeKind::kString));
  SQLTS_CHECK_OK(s.AddColumn("date", TypeKind::kDate));
  SQLTS_CHECK_OK(s.AddColumn("price", TypeKind::kDouble));
  return s;
}

Row QuoteRow(const char* n, const char* d, double p) {
  return {Value::String(n), Value::FromDate(*Date::Parse(d)),
          Value::Double(p)};
}

TEST(Table, AppendAndRead) {
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(t.AppendRow(QuoteRow("INTC", "1999-01-25", 60)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-25", 81)).ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.at(0, 0).string_value(), "INTC");
  EXPECT_EQ(t.at(1, 2).double_value(), 81);
}

TEST(Table, ArityMismatch) {
  Table t(QuoteSchemaLocal());
  EXPECT_EQ(t.AppendRow({Value::String("X")}).code(),
            StatusCode::kInvalidArgument);
}

TEST(Table, TypeMismatch) {
  Table t(QuoteSchemaLocal());
  Row r = QuoteRow("INTC", "1999-01-25", 60);
  r[2] = Value::String("sixty");
  EXPECT_EQ(t.AppendRow(r).code(), StatusCode::kTypeError);
}

TEST(Table, IntCoercesToDoubleColumn) {
  Table t(QuoteSchemaLocal());
  Row r = QuoteRow("INTC", "1999-01-25", 0);
  r[2] = Value::Int64(60);
  ASSERT_TRUE(t.AppendRow(r).ok());
  EXPECT_EQ(t.at(0, 2).kind(), TypeKind::kDouble);
  EXPECT_EQ(t.at(0, 2).double_value(), 60.0);
}

TEST(Table, NullsAllowed) {
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(
      t.AppendRow({Value::Null(), Value::Null(), Value::Null()}).ok());
  EXPECT_TRUE(t.at(0, 1).is_null());
}

TEST(Csv, RoundTrip) {
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(t.AppendRow(QuoteRow("INTC", "1999-01-25", 60.5)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-26", 80)).ok());
  std::string text = WriteCsvString(t);
  auto back = ReadCsvString(text, QuoteSchemaLocal());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_rows(), 2);
  EXPECT_EQ(back->at(0, 0).string_value(), "INTC");
  EXPECT_EQ(back->at(1, 2).double_value(), 80);
  EXPECT_EQ(back->at(1, 1).date_value(), *Date::Parse("1999-01-26"));
}

TEST(Csv, QuotedFields) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("text", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kInt64).ok());
  auto t = ReadCsvString("text,v\n\"a,b\"\"c\",3\n", s);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->at(0, 0).string_value(), "a,b\"c");
  EXPECT_EQ(t->at(0, 1).int64_value(), 3);
}

TEST(Csv, QuotedFieldWithEmbeddedNewline) {
  // Record splitting must be quote-aware: a '\n' inside quotes is field
  // content, not a record separator.
  Schema s;
  ASSERT_TRUE(s.AddColumn("text", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kInt64).ok());
  auto t = ReadCsvString("text,v\n\"line1\nline2\",7\nplain,8\n", s);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->at(0, 0).string_value(), "line1\nline2");
  EXPECT_EQ(t->at(0, 1).int64_value(), 7);
  EXPECT_EQ(t->at(1, 0).string_value(), "plain");
}

TEST(Csv, CrlfRecordTerminators) {
  auto t = ReadCsvString(
      "name,date,price\r\nINTC,1999-01-25,60\r\nIBM,1999-01-26,81\r\n",
      QuoteSchemaLocal());
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->at(0, 0).string_value(), "INTC");
  EXPECT_EQ(t->at(1, 2).double_value(), 81);
}

TEST(Csv, RoundTripEmbeddedNewlinesQuotesAndCr) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("text", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kInt64).ok());
  Table t(s);
  ASSERT_TRUE(
      t.AppendRow({Value::String("line1\nline2"), Value::Int64(1)}).ok());
  ASSERT_TRUE(
      t.AppendRow({Value::String("cr\rhere"), Value::Int64(2)}).ok());
  ASSERT_TRUE(
      t.AppendRow({Value::String("q\"x,y"), Value::Int64(3)}).ok());
  std::string text = WriteCsvString(t);
  // A field containing a bare CR must be quoted, or a CRLF-aware reader
  // would truncate it.
  EXPECT_NE(text.find("\"cr\rhere\""), std::string::npos);
  auto back = ReadCsvString(text, s);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_rows(), 3);
  EXPECT_EQ(back->at(0, 0).string_value(), "line1\nline2");
  EXPECT_EQ(back->at(1, 0).string_value(), "cr\rhere");
  EXPECT_EQ(back->at(2, 0).string_value(), "q\"x,y");
}

TEST(Csv, UnterminatedQuoteAcrossRecordsFails) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("text", TypeKind::kString).ok());
  EXPECT_FALSE(ReadCsvString("text\n\"open\nnever closed\n", s).ok());
}

TEST(Csv, EmptyFieldIsNull) {
  auto t = ReadCsvString("name,date,price\nINTC,,60\n", QuoteSchemaLocal());
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_TRUE(t->at(0, 1).is_null());
}

TEST(Csv, HeaderColumnOrderFlexible) {
  auto t = ReadCsvString("price,name,date\n60,INTC,1999-01-25\n",
                         QuoteSchemaLocal());
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->at(0, 0).string_value(), "INTC");
  EXPECT_EQ(t->at(0, 2).double_value(), 60);
}

TEST(Csv, Errors) {
  EXPECT_FALSE(ReadCsvString("", QuoteSchemaLocal()).ok());
  EXPECT_FALSE(
      ReadCsvString("bogus\n1\n", QuoteSchemaLocal()).ok());  // bad header
  EXPECT_FALSE(ReadCsvString("name,date,price\nINTC,1999-01-25\n",
                             QuoteSchemaLocal())
                   .ok());  // missing field
  EXPECT_FALSE(ReadCsvString("name,date,price\nINTC,1999-01-25,abc\n",
                             QuoteSchemaLocal())
                   .ok());  // bad double
}

TEST(ClusteredSequence, PartitionsAndSorts) {
  // Rows arrive interleaved and out of date order (paper Figure 1).
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-27", 84)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("INTC", "1999-01-26", 63.5)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-25", 81)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("INTC", "1999-01-25", 60)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-26", 80.5)).ok());

  auto cs = ClusteredSequence::Build(&t, {"name"}, {"date"});
  ASSERT_TRUE(cs.ok()) << cs.status();
  ASSERT_EQ(cs->num_clusters(), 2);
  // First-appearance order: IBM first.
  EXPECT_EQ(cs->cluster_key(0)[0].string_value(), "IBM");
  EXPECT_EQ(cs->cluster_key(1)[0].string_value(), "INTC");
  const SequenceView& ibm = cs->cluster(0);
  ASSERT_EQ(ibm.size(), 3);
  EXPECT_EQ(ibm.at(0, 2).double_value(), 81);
  EXPECT_EQ(ibm.at(1, 2).double_value(), 80.5);
  EXPECT_EQ(ibm.at(2, 2).double_value(), 84);
}

TEST(ClusteredSequence, NoClusterByGivesSingleCluster) {
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(t.AppendRow(QuoteRow("A", "1999-01-26", 2)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("B", "1999-01-25", 1)).ok());
  auto cs = ClusteredSequence::Build(&t, {}, {"date"});
  ASSERT_TRUE(cs.ok());
  ASSERT_EQ(cs->num_clusters(), 1);
  EXPECT_EQ(cs->cluster(0).at(0, 2).double_value(), 1);  // sorted by date
}

TEST(ClusteredSequence, StableSortKeepsInsertionOrderOnTies) {
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(t.AppendRow(QuoteRow("A", "1999-01-25", 1)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("A", "1999-01-25", 2)).ok());
  auto cs = ClusteredSequence::Build(&t, {"name"}, {"date"});
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->cluster(0).at(0, 2).double_value(), 1);
  EXPECT_EQ(cs->cluster(0).at(1, 2).double_value(), 2);
}

TEST(ClusteredSequence, UnknownColumnFails) {
  Table t(QuoteSchemaLocal());
  EXPECT_FALSE(ClusteredSequence::Build(&t, {"ticker"}, {"date"}).ok());
  EXPECT_FALSE(ClusteredSequence::Build(&t, {"name"}, {"when"}).ok());
}

TEST(ClusteredSequence, MultiColumnClusterKey) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("a", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("b", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("seq", TypeKind::kInt64).ok());
  Table t(s);
  for (int64_t a = 0; a < 2; ++a) {
    for (int64_t b = 0; b < 2; ++b) {
      ASSERT_TRUE(t.AppendRow({Value::Int64(a), Value::Int64(b),
                               Value::Int64(a * 10 + b)})
                      .ok());
    }
  }
  auto cs = ClusteredSequence::Build(&t, {"a", "b"}, {"seq"});
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->num_clusters(), 4);
}


// ---- Build property sweep ----------------------------------------------
//
// Seeded random tables through ClusteredSequence::Build, checked against
// invariants that fix its output uniquely.  The reference order below is
// written from Value::Compare, independently of Build's comparator.

/// NULLs first, then Value::Compare (NaN above every number, -0 == 0).
int RefCompare(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    return a.is_null() == b.is_null() ? 0 : (a.is_null() ? -1 : 1);
  }
  auto c = a.Compare(b);
  SQLTS_CHECK(c.ok()) << c.status();
  return *c;
}

int RefCompareRows(const Table& t, const std::vector<int>& cols, int64_t a,
                   int64_t b) {
  for (int c : cols) {
    int v = RefCompare(t.at(a, c), t.at(b, c));
    if (v != 0) return v;
  }
  return 0;
}

/// Bit-level identity: tells -0.0 from 0.0, treats every NaN alike.
bool SameCell(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (a.kind() == TypeKind::kDouble) {
    double x = a.double_value(), y = b.double_value();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  }
  return a.StructurallyEquals(b);
}

constexpr TypeKind kSweepTypes[] = {TypeKind::kInt64, TypeKind::kDouble,
                                    TypeKind::kString, TypeKind::kDate,
                                    TypeKind::kBool};

/// Columns c0..c4 (cluster-key candidates) and s0..s4 (sequence-key
/// candidates), one of each sweep type.
Schema SweepSchema() {
  Schema s;
  for (const char* prefix : {"c", "s"}) {
    for (int i = 0; i < 5; ++i) {
      SQLTS_CHECK_OK(s.AddColumn(prefix + std::to_string(i), kSweepTypes[i]));
    }
  }
  return s;
}

/// A small domain per type, so keys tie often; NULL, NaN (two payloads)
/// and both zeros included.
Value SweepCell(TypeKind type, std::mt19937_64& rng) {
  if (rng() % 6 == 0) return Value::Null();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  switch (type) {
    case TypeKind::kInt64: {
      const int64_t d[] = {std::numeric_limits<int64_t>::min(), -1, 0, 1, 2,
                           std::numeric_limits<int64_t>::max()};
      return Value::Int64(d[rng() % 6]);
    }
    case TypeKind::kDouble: {
      const double d[] = {kNaN, -kNaN, -0.0, 0.0, -1.5, 2.0,
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::infinity()};
      return Value::Double(d[rng() % 8]);
    }
    case TypeKind::kString: {
      const char* d[] = {"", "a", "ab", "b", "B"};
      return Value::String(d[rng() % 5]);
    }
    case TypeKind::kDate:
      return Value::FromDate(Date(static_cast<int32_t>(rng() % 4) - 1));
    default:
      return Value::Bool(rng() % 2 == 1);
  }
}

enum class SweepOrder { kPresorted, kReversed, kShuffled, kDateMajor };

/// Checks every invariant of Build's output for `t`.
void CheckBuild(const Table& t, const std::vector<std::string>& cluster_by,
                const std::vector<std::string>& sequence_by) {
  SCOPED_TRACE(::testing::Message() << t.num_rows() << " rows");
  std::vector<int> ccols, scols;
  for (const std::string& n : cluster_by) {
    ccols.push_back(*t.schema().FindColumn(n));
  }
  for (const std::string& n : sequence_by) {
    scols.push_back(*t.schema().FindColumn(n));
  }
  auto cs = ClusteredSequence::Build(&t, cluster_by, sequence_by);
  ASSERT_TRUE(cs.ok()) << cs.status();

  std::vector<int> seen(t.num_rows(), 0);
  std::vector<int64_t> first_rows;
  for (int i = 0; i < cs->num_clusters(); ++i) {
    const SequenceView& v = cs->cluster(i);
    ASSERT_GT(v.size(), 0) << "cluster " << i;
    int64_t first = v.row_index(0);
    for (int64_t p = 0; p < v.size(); ++p) {
      const int64_t r = v.row_index(p);
      ASSERT_TRUE(r >= 0 && r < t.num_rows());
      ++seen[r];
      first = std::min(first, r);
      // Keys are equal within a cluster.
      ASSERT_EQ(RefCompareRows(t, ccols, v.row_index(0), r), 0)
          << "cluster " << i << " pos " << p;
      if (p == 0) continue;
      // Non-decreasing, ties in row-index order.
      const int64_t prev = v.row_index(p - 1);
      const int c = RefCompareRows(t, scols, prev, r);
      ASSERT_TRUE(c < 0 || (c == 0 && prev < r))
          << "cluster " << i << " pos " << p << ": rows " << prev << ", " << r;
    }
    // cluster_key is the first row's cells.
    const Row& key = cs->cluster_key(i);
    ASSERT_EQ(key.size(), ccols.size());
    for (size_t k = 0; k < ccols.size(); ++k) {
      ASSERT_TRUE(SameCell(key[k], t.at(first, ccols[k])))
          << "cluster " << i << " key " << k << ": " << key[k] << " vs "
          << t.at(first, ccols[k]);
    }
    first_rows.push_back(first);
  }
  // The clusters partition the rows.
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_EQ(seen[r], 1) << "row " << r;
  }
  // Clusters are ordered by first row index, and their keys are distinct.
  for (size_t i = 1; i < first_rows.size(); ++i) {
    ASSERT_LT(first_rows[i - 1], first_rows[i]);
  }
  for (size_t i = 0; i < first_rows.size(); ++i) {
    for (size_t j = i + 1; j < first_rows.size(); ++j) {
      ASSERT_NE(RefCompareRows(t, ccols, first_rows[i], first_rows[j]), 0)
          << "clusters " << i << " and " << j;
    }
  }
}

/// A random table of `n` rows laid out in `order`: presorted and
/// reversed are cluster-major on (`ccols`, `scols`), date-major sorts by
/// the sequence key first so clusters interleave.
Table SweepTable(uint64_t seed, int64_t n, SweepOrder order,
                 const std::vector<int>& ccols, const std::vector<int>& scols) {
  std::mt19937_64 rng(seed);
  const Schema schema = SweepSchema();
  Table base(schema);
  for (int64_t r = 0; r < n; ++r) {
    Row row;
    for (int c = 0; c < schema.num_columns(); ++c) {
      row.push_back(SweepCell(schema.column(c).type, rng));
    }
    SQLTS_CHECK_OK(base.AppendRow(std::move(row)));
  }
  std::vector<int64_t> perm(n);
  std::iota(perm.begin(), perm.end(), int64_t{0});
  auto by = [&](const std::vector<int>& first, const std::vector<int>& then) {
    std::stable_sort(perm.begin(), perm.end(), [&](int64_t a, int64_t b) {
      int c = RefCompareRows(base, first, a, b);
      return c != 0 ? c < 0 : RefCompareRows(base, then, a, b) < 0;
    });
  };
  switch (order) {
    case SweepOrder::kPresorted:
      by(ccols, scols);
      break;
    case SweepOrder::kReversed:
      by(ccols, scols);
      std::reverse(perm.begin(), perm.end());
      break;
    case SweepOrder::kShuffled:
      std::shuffle(perm.begin(), perm.end(), rng);
      break;
    case SweepOrder::kDateMajor:
      by(scols, ccols);
      break;
  }
  Table out(schema);
  for (int64_t r : perm) SQLTS_CHECK_OK(out.AppendRow(base.GetRow(r)));
  return out;
}

TEST(ClusteredSequenceSweep, InvariantsHoldOnRandomTables) {
  const std::vector<std::vector<std::string>> cluster_keys = {
      {}, {"c0"}, {"c1"}, {"c2"}, {"c3"}, {"c4"}, {"c1", "c2"},
      {"c0", "c4", "c3"}};
  const std::vector<std::vector<std::string>> sequence_keys = {
      {"s0"}, {"s1"}, {"s2"}, {"s3"}, {"s4"}, {"s1", "s0"},
      {"s3", "s1", "s2"}};
  const Schema schema = SweepSchema();
  auto indices = [&](const std::vector<std::string>& names) {
    std::vector<int> out;
    for (const std::string& n : names) out.push_back(*schema.FindColumn(n));
    return out;
  };
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (SweepOrder order :
         {SweepOrder::kPresorted, SweepOrder::kReversed,
          SweepOrder::kShuffled, SweepOrder::kDateMajor}) {
      for (const auto& ck : cluster_keys) {
        for (const auto& sk : sequence_keys) {
          const int64_t n = static_cast<int64_t>((seed * 37) % 150) + 2;
          const Table t = SweepTable(seed, n, order, indices(ck), indices(sk));
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " order "
                       << static_cast<int>(order) << " cluster "
                       << ::testing::PrintToString(ck) << " sequence "
                       << ::testing::PrintToString(sk));
          CheckBuild(t, ck, sk);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(ClusteredSequenceSweep, EmptyAndOneRowTables) {
  for (int64_t n : {0, 1}) {
    const Table t = SweepTable(n + 11, n, SweepOrder::kShuffled, {}, {});
    for (const std::vector<std::string>& ck :
         {std::vector<std::string>{}, std::vector<std::string>{"c1", "c2"}}) {
      auto cs = ClusteredSequence::Build(&t, ck, {"s1"});
      ASSERT_TRUE(cs.ok()) << cs.status();
      ASSERT_EQ(cs->num_clusters(), n);
      CheckBuild(t, ck, {"s1"});
    }
  }
}

TEST(ClusteredSequenceSweep, NullNanAndSignedZeroKeys) {
  // NULLs form one cluster and sort first; every NaN is one cluster key
  // and sorts last; -0.0 and 0.0 are one key and tie in row order.
  Schema s;
  ASSERT_TRUE(s.AddColumn("k", TypeKind::kDouble).ok());
  ASSERT_TRUE(s.AddColumn("seq", TypeKind::kDouble).ok());
  ASSERT_TRUE(s.AddColumn("id", TypeKind::kInt64).ok());
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<Value, Value>> cells = {
      {Value::Double(-0.0), Value::Double(kNaN)},
      {Value::Double(kNaN), Value::Double(1)},
      {Value::Null(), Value::Double(0.0)},
      {Value::Double(0.0), Value::Double(-0.0)},
      {Value::Double(-kNaN), Value::Null()},
      {Value::Null(), Value::Double(-1)},
      {Value::Double(0.0), Value::Double(0.0)},
  };
  Table t(s);
  for (size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(t.AppendRow({cells[i].first, cells[i].second,
                             Value::Int64(static_cast<int64_t>(i))})
                    .ok());
  }
  auto cs = ClusteredSequence::Build(&t, {"k"}, {"seq"});
  ASSERT_TRUE(cs.ok()) << cs.status();
  auto ids = [&](int i) {
    std::vector<int64_t> out;
    for (int64_t p = 0; p < cs->cluster(i).size(); ++p) {
      out.push_back(cs->cluster(i).row_index(p));
    }
    return out;
  };
  ASSERT_EQ(cs->num_clusters(), 3);
  EXPECT_TRUE(std::signbit(cs->cluster_key(0)[0].double_value()));  // -0.0
  EXPECT_EQ(ids(0), (std::vector<int64_t>{3, 6, 0}));  // 0 ties, NaN last
  EXPECT_TRUE(std::isnan(cs->cluster_key(1)[0].double_value()));
  EXPECT_EQ(ids(1), (std::vector<int64_t>{4, 1}));  // NULL first
  EXPECT_TRUE(cs->cluster_key(2)[0].is_null());
  EXPECT_EQ(ids(2), (std::vector<int64_t>{5, 2}));
  CheckBuild(t, {"k"}, {"seq"});
}

}  // namespace
}  // namespace sqlts
