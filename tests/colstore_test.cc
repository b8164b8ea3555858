// Columnar container (src/colstore/) unit tests: encode/decode round
// trips over adversarial values, the CSV -> columnar conversion path,
// clustered physical layout, a golden-bytes format pin, and seeded
// corruption fuzzing (truncation + bit flips must yield typed errors,
// never crashes or silent wrong answers).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "colstore/format.h"
#include "colstore/reader.h"
#include "colstore/writer.h"
#include "engine/checkpoint.h"
#include "storage/csv.h"
#include "storage/table.h"

namespace sqlts {
namespace {

Schema QuoteSchema() {
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("name", TypeKind::kString));
  SQLTS_CHECK_OK(s.AddColumn("date", TypeKind::kDate));
  SQLTS_CHECK_OK(s.AddColumn("price", TypeKind::kDouble, /*nullable=*/true));
  SQLTS_CHECK_OK(s.AddColumn("vol", TypeKind::kInt64, /*nullable=*/true));
  return s;
}

Row MakeRow(const char* n, const char* d, Value price, Value vol) {
  return {Value::String(n), Value::FromDate(*Date::Parse(d)),
          std::move(price), std::move(vol)};
}

/// Cell-exact table comparison (kind + NULL-ness + value).
void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.schema().num_columns(), b.schema().num_columns());
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.schema().num_columns(); ++c) {
      const Value& va = a.at(r, c);
      const Value& vb = b.at(r, c);
      ASSERT_EQ(va.is_null(), vb.is_null()) << "row " << r << " col " << c;
      ASSERT_EQ(va.ToString(), vb.ToString()) << "row " << r << " col " << c;
    }
  }
}

std::string RowText(const Table& t, int64_t r) {
  std::string s;
  for (int c = 0; c < t.schema().num_columns(); ++c) {
    if (c) s += '\x1f';
    s += t.at(r, c).is_null() ? std::string("<null>") : t.at(r, c).ToString();
  }
  return s;
}

StatusOr<Table> RoundTrip(const Table& t,
                          const ColumnarWriterOptions& opts = {}) {
  SQLTS_ASSIGN_OR_RETURN(std::string bytes,
                         ColumnarWriter::WriteBytes(t, opts));
  SQLTS_ASSIGN_OR_RETURN(std::unique_ptr<ColumnarReader> reader,
                         ColumnarReader::OpenBytes(std::move(bytes)));
  return reader->ReadTable();
}

TEST(ColumnarRoundTrip, AdversarialValues) {
  Table t(QuoteSchema());
  // Strings with CSV-hostile content (commas, quotes, CR, LF, empty),
  // NULLs in both nullable columns, negative/huge int64, and doubles
  // that don't render losslessly in short decimal.
  ASSERT_TRUE(t.AppendRow(MakeRow("a,b", "1999-01-04", Value::Double(0.1),
                                  Value::Int64(INT64_MIN)))
                  .ok());
  ASSERT_TRUE(t.AppendRow(MakeRow("say \"hi\"", "1999-01-05", Value::Null(),
                                  Value::Int64(INT64_MAX)))
                  .ok());
  ASSERT_TRUE(t.AppendRow(MakeRow("line\r\nbreak", "1999-01-06",
                                  Value::Double(-0.0), Value::Null()))
                  .ok());
  ASSERT_TRUE(t.AppendRow(MakeRow("", "1999-01-07",
                                  Value::Double(1.0 / 3.0),
                                  Value::Int64(-1)))
                  .ok());
  ASSERT_TRUE(
      t.AppendRow(MakeRow("plain", "1999-01-08", Value::Null(), Value::Null()))
          .ok());
  auto back = RoundTrip(t);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesEqual(t, *back);
}

TEST(ColumnarRoundTrip, CsvEdgeCasesThroughConversion) {
  // The sqlts_cli --convert pipeline: CSV text (quoted separators,
  // escaped quotes, CRLF record terminators, embedded newlines, blank
  // cells = NULL) -> Table -> columnar bytes -> decoded Table must be
  // cell-identical to the parsed CSV.
  const std::string csv =
      "name,date,price,vol\r\n"
      "\"a,b\",1999-01-04,10.5,3\r\n"
      "\"say \"\"hi\"\"\",1999-01-05,,7\r\n"
      "\"two\nlines\",1999-01-06,12.25,\r\n"
      "plain,1999-01-07,13,9\r\n";
  auto parsed = ReadCsvString(csv, QuoteSchema());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_rows(), 4);
  EXPECT_TRUE(parsed->at(1, 2).is_null());
  EXPECT_TRUE(parsed->at(2, 3).is_null());
  auto back = RoundTrip(*parsed);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesEqual(*parsed, *back);
}

TEST(ColumnarRoundTrip, EmptyTableAndManyBlocks) {
  Table empty(QuoteSchema());
  auto back = RoundTrip(empty);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_rows(), 0);

  // > 2 blocks in one cluster: exercises block splitting + FOR/RLE
  // encodings on the monotone/constant columns.
  Table big(QuoteSchema());
  for (int i = 0; i < 700; ++i) {
    Date d = *Date::Parse("1999-01-04");
    ASSERT_TRUE(big.AppendRow({Value::String("IBM"),
                               Value::FromDate(Date(d.days_since_epoch() + i)),
                               Value::Double(80 + (i % 7)),
                               Value::Int64(1000 + i)})
                    .ok());
  }
  ColumnarWriterOptions opts;
  opts.cluster_by = {"name"};
  opts.sequence_by = {"date"};
  auto bytes = (ColumnarWriter::WriteBytes(big, opts)).value();
  auto reader = (ColumnarReader::OpenBytes(std::move(bytes))).value();
  EXPECT_EQ(reader->footer().blocks.size(), 3u);  // 256 + 256 + 188
  EXPECT_TRUE(reader->footer().clustered);
  auto full = reader->ReadTable();
  ASSERT_TRUE(full.ok()) << full.status();
  ExpectTablesEqual(big, *full);
}

TEST(ColumnarLayout, ClusteredFileIsClusterMajorAndSorted) {
  // Interleaved arrival order; the clustered writer must store rows
  // cluster-major (first-appearance order: B then A) and date-sorted
  // within each cluster, with blocks never spanning clusters.
  Table t(QuoteSchema());
  auto add = [&](const char* n, const char* d, double p) {
    ASSERT_TRUE(
        t.AppendRow(MakeRow(n, d, Value::Double(p), Value::Int64(0))).ok());
  };
  add("B", "1999-01-06", 1);
  add("A", "1999-01-05", 2);
  add("B", "1999-01-04", 3);
  add("A", "1999-01-07", 4);
  ColumnarWriterOptions opts;
  opts.cluster_by = {"name"};
  opts.sequence_by = {"date"};
  auto bytes = (ColumnarWriter::WriteBytes(t, opts)).value();
  auto reader = (ColumnarReader::OpenBytes(std::move(bytes))).value();
  const ColumnarFooter& f = reader->footer();
  ASSERT_EQ(f.clusters.size(), 2u);
  EXPECT_EQ(f.clusters[0].key[0].string_value(), "B");
  EXPECT_EQ(f.clusters[1].key[0].string_value(), "A");
  for (const RowBlockMeta& b : f.blocks) EXPECT_GE(b.cluster, 0);
  auto back = reader->ReadTable();
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_rows(), 4);
  EXPECT_EQ(back->at(0, 0).string_value(), "B");
  EXPECT_EQ(back->at(0, 1).date_value(), *Date::Parse("1999-01-04"));
  EXPECT_EQ(back->at(1, 1).date_value(), *Date::Parse("1999-01-06"));
  EXPECT_EQ(back->at(2, 0).string_value(), "A");
  EXPECT_EQ(back->at(2, 1).date_value(), *Date::Parse("1999-01-05"));
}

TEST(ColumnarLayout, EncodingsActuallyCompress) {
  // Constant int64 -> width-0 FOR (9 bytes, beats RLE's 16); long runs
  // -> RLE; small-range int64 -> FOR or RLE; repeated strings ->
  // dictionary.  This pins the encoder's choices so a regression to
  // raw encodings is visible.
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("tag", TypeKind::kString));
  SQLTS_CHECK_OK(s.AddColumn("k", TypeKind::kInt64));
  SQLTS_CHECK_OK(s.AddColumn("c", TypeKind::kInt64));
  SQLTS_CHECK_OK(s.AddColumn("runs", TypeKind::kInt64));
  Table t(s);
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::String(i % 2 ? "yes" : "no"),
                             Value::Int64(100 + i % 10), Value::Int64(42),
                             Value::Int64(i / 128)})
                    .ok());
  }
  auto bytes = (ColumnarWriter::WriteBytes(t)).value();
  auto reader = (ColumnarReader::OpenBytes(std::move(bytes))).value();
  const ColumnarFooter& f = reader->footer();
  ASSERT_EQ(f.blocks.size(), 1u);
  EXPECT_EQ(f.columns[0][0].encoding, BlockEncoding::kDict);
  EXPECT_TRUE(f.columns[1][0].encoding == BlockEncoding::kForI64 ||
              f.columns[1][0].encoding == BlockEncoding::kRleI64);
  EXPECT_EQ(f.columns[2][0].encoding, BlockEncoding::kForI64);
  EXPECT_EQ(f.columns[3][0].encoding, BlockEncoding::kRleI64);
  // Sketches carry exact zone bounds.
  EXPECT_EQ(f.columns[1][0].sketch.min.int64_value(), 100);
  EXPECT_EQ(f.columns[1][0].sketch.max.int64_value(), 109);
  EXPECT_EQ(f.columns[2][0].sketch.null_count, 0);
  auto back = reader->ReadTable();
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesEqual(t, *back);
}

TEST(ColumnarFormat, BloomPrimitives) {
  std::string bits(kColBloomBytes, '\0');
  BloomAdd(&bits, BloomHashBytes("IBM"));
  BloomAdd(&bits, BloomHashInt64(12345));
  EXPECT_TRUE(BloomMayContain(bits, BloomHashBytes("IBM")));
  EXPECT_TRUE(BloomMayContain(bits, BloomHashInt64(12345)));
  EXPECT_FALSE(BloomMayContain(bits, BloomHashBytes("INTC")));
  EXPECT_FALSE(BloomMayContain(bits, BloomHashInt64(54321)));
}

// ---------------------------------------------------------------------------
// Golden bytes: the on-disk format is pinned byte-for-byte.  Any change
// to the container layout must bump kColumnarVersion and regenerate the
// golden with SQLTS_UPDATE_GOLDEN=1.
// ---------------------------------------------------------------------------

Table GoldenTable() {
  Table t(QuoteSchema());
  const char* days[] = {"1999-01-04", "1999-01-05", "1999-01-06"};
  const char* names[] = {"IBM", "INTC"};
  int i = 0;
  for (const char* n : names) {
    for (const char* d : days) {
      SQLTS_CHECK_OK(t.AppendRow(MakeRow(
          n, d, i % 5 == 4 ? Value::Null() : Value::Double(60 + 2 * i),
          Value::Int64(1000 + i))));
      ++i;
    }
  }
  return t;
}

TEST(ColumnarFormat, GoldenBytes) {
  ColumnarWriterOptions opts;
  opts.cluster_by = {"name"};
  opts.sequence_by = {"date"};
  auto bytes = (ColumnarWriter::WriteBytes(GoldenTable(), opts)).value();
  const std::string path = std::string(SQLTS_TEST_DATA_DIR) + "/golden.sqlc";
  if (std::getenv("SQLTS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << "failed to rewrite " << path;
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with SQLTS_UPDATE_GOLDEN=1)";
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string golden = ss.str();
  ASSERT_EQ(bytes.size(), golden.size())
      << "container size drifted; format changes need a version bump";
  EXPECT_TRUE(bytes == golden)
      << "container bytes drifted from tests/data/golden.sqlc; a format "
         "change must bump kColumnarVersion and regenerate the golden";
  // And the pinned bytes still decode to the source rows.
  auto reader = (ColumnarReader::OpenBytes(std::move(golden))).value();
  auto back = reader->ReadTable();
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesEqual(GoldenTable(), *back);
}

// ---------------------------------------------------------------------------
// Corruption: every malformed container must fail with a typed Status.
// ---------------------------------------------------------------------------

std::string ValidContainer() {
  ColumnarWriterOptions opts;
  opts.cluster_by = {"name"};
  opts.sequence_by = {"date"};
  auto bytes = (ColumnarWriter::WriteBytes(GoldenTable(), opts)).value();
  return bytes;
}

bool IsTypedFailure(const Status& s) {
  return s.code() == StatusCode::kParseError ||
         s.code() == StatusCode::kIoError ||
         s.code() == StatusCode::kInvalidArgument;
}

TEST(ColumnarCorruption, HeaderValidation) {
  const std::string bytes = ValidContainer();
  EXPECT_TRUE(ColumnarReader::SniffBytes(bytes));
  EXPECT_FALSE(ColumnarReader::SniffBytes("name,date\nIBM,1999-01-04\n"));
  EXPECT_FALSE(ColumnarReader::SniffBytes(""));

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  auto r = ColumnarReader::OpenBytes(bad_magic);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsTypedFailure(r.status())) << r.status();

  std::string bad_version = bytes;
  bad_version[8] = 99;  // version field
  r = ColumnarReader::OpenBytes(bad_version);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsTypedFailure(r.status())) << r.status();

  r = ColumnarReader::OpenBytes(bytes.substr(0, kColumnarHeaderSize - 1));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsTypedFailure(r.status())) << r.status();
}

TEST(ColumnarCorruption, BlockBitflipDetectedExactlyWhenRead) {
  // Flip one byte inside block 0's first column.  The footer stays
  // intact, so Open succeeds; reading the damaged block fails its
  // per-block checksum; reading only the *other* block still works —
  // the format doc's "corruption is detected iff the block is read".
  std::string bytes = ValidContainer();
  auto probe = (ColumnarReader::OpenBytes(bytes)).value();
  ASSERT_GE(probe->footer().blocks.size(), 2u);  // one block per cluster
  const ColumnBlockMeta& target = probe->footer().columns[0][0];
  ASSERT_GT(target.size, 0u);
  bytes[target.offset] = static_cast<char>(bytes[target.offset] ^ 0x40);

  auto reader = (ColumnarReader::OpenBytes(bytes)).value();
  auto damaged = reader->ReadBlockRange(0, 1);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kParseError)
      << damaged.status();
  auto intact = reader->ReadBlockRange(1, 1);
  EXPECT_TRUE(intact.ok()) << intact.status();
}

TEST(ColumnarCorruption, TruncationFuzz) {
  const std::string bytes = ValidContainer();
  const std::vector<std::string> reference = [&] {
    auto r = (ColumnarReader::OpenBytes(bytes)).value();
    auto t = (r->ReadTable()).value();
    std::vector<std::string> rows;
    for (int64_t i = 0; i < t.num_rows(); ++i) rows.push_back(RowText(t, i));
    return rows;
  }();
  int failures = 0;
  for (size_t len = 0; len < bytes.size(); len += 3) {
    auto r = ColumnarReader::OpenBytes(bytes.substr(0, len));
    if (!r.ok()) {
      EXPECT_TRUE(IsTypedFailure(r.status())) << "len=" << len << ": "
                                              << r.status();
      ++failures;
      continue;
    }
    auto t = (*r)->ReadTable();
    if (!t.ok()) {
      EXPECT_TRUE(IsTypedFailure(t.status())) << "len=" << len << ": "
                                              << t.status();
      ++failures;
    }
  }
  // Every strict prefix must have been rejected somewhere.
  EXPECT_EQ(failures, static_cast<int>((bytes.size() + 2) / 3));
  (void)reference;
}

TEST(ColumnarCorruption, BitflipFuzz) {
  const std::string bytes = ValidContainer();
  std::mt19937_64 rng(0xc0ffee);
  std::uniform_int_distribution<size_t> pos(0, bytes.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  const std::vector<std::string> reference = [&] {
    auto r = (ColumnarReader::OpenBytes(bytes)).value();
    auto t = (r->ReadTable()).value();
    std::vector<std::string> rows;
    for (int64_t i = 0; i < t.num_rows(); ++i) rows.push_back(RowText(t, i));
    return rows;
  }();
  int detected = 0;
  const int kIters = 300;
  for (int i = 0; i < kIters; ++i) {
    std::string mutated = bytes;
    const size_t p = pos(rng);
    mutated[p] = static_cast<char>(mutated[p] ^ (1u << bit(rng)));
    auto r = ColumnarReader::OpenBytes(std::move(mutated));
    if (!r.ok()) {
      EXPECT_TRUE(IsTypedFailure(r.status())) << "flip@" << p << ": "
                                              << r.status();
      ++detected;
      continue;
    }
    auto t = (*r)->ReadTable();
    if (!t.ok()) {
      EXPECT_TRUE(IsTypedFailure(t.status())) << "flip@" << p << ": "
                                              << t.status();
      ++detected;
      continue;
    }
    // A flip the checksums did not catch must not have changed any
    // decoded cell (it landed in dead bytes, if anywhere).
    ASSERT_EQ(t->num_rows(), static_cast<int64_t>(reference.size()));
    for (int64_t row = 0; row < t->num_rows(); ++row) {
      ASSERT_EQ(RowText(*t, row), reference[row]) << "flip@" << p;
    }
  }
  // FNV-1a over same-length inputs always separates single-byte
  // differences, and the header/footer fields are validated, so a flip
  // in any live byte is caught.
  EXPECT_GT(detected, kIters * 9 / 10);
}


// ---------------------------------------------------------------------------
// Block decoder: EncodeColumnBlock -> DecodeColumnBlock round trips over
// every type and encoding, and one malformed block per typed error.
// ---------------------------------------------------------------------------

/// Exact cell identity: same kind, and for doubles the same bit pattern
/// (so NaN, -0.0 and 0.0 are told apart).
bool SameCell(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (a.double_if() != nullptr) {
    return std::bit_cast<uint64_t>(*a.double_if()) ==
           std::bit_cast<uint64_t>(*b.double_if());
  }
  return a.StructurallyEquals(b);
}

/// Cell `i` of a generated column: `shape` picks the value pattern, so
/// the encoder's choices (FOR of each width, RLE, dictionaries) all show.
Value GenCell(TypeKind type, int shape, int i) {
  switch (type) {
    case TypeKind::kInt64: {
      if (shape == 0) return Value::Int64(1000 + i % 200);  // FOR, width 1
      if (shape == 1) return Value::Int64(i / 100 - 7);     // RLE
      const int64_t edge[] = {INT64_MIN, INT64_MAX, 0, -1, 70000};
      return Value::Int64(edge[i % 5]);  // FOR, width 8
    }
    case TypeKind::kDate:
      if (shape == 0) return Value::FromDate(Date(10000 + i * 100));  // width 2
      if (shape == 1) return Value::FromDate(Date(-5 + i / 128));     // RLE
      return Value::FromDate(Date(i % 2 ? INT32_MAX : INT32_MIN));
    case TypeKind::kDouble: {
      using lim = std::numeric_limits<double>;
      const double edge[] = {0.0,   -0.0,     lim::quiet_NaN(),
                             1e308, -1.0 / 3, lim::infinity()};
      return Value::Double(shape == 0 ? edge[i % 6] : 0.5 * i);
    }
    case TypeKind::kBool:
      return Value::Bool(shape == 0 ? i % 3 == 0 : true);
    case TypeKind::kString: {
      // Sorted neighbours share prefixes, so the dictionary is
      // prefix-compressed; "" is a valid entry.
      const char* words[] = {"alpha", "alphabet", "alpine", "", "beta",
                             "be",    "zeta",     "zetas"};
      return Value::String(shape == 0 ? words[i % 8]
                                      : "k" + std::to_string(i % 300));
    }
    case TypeKind::kNull:
      break;
  }
  return Value::Null();
}

TEST(ColumnarBlockCodec, RoundTripsEveryTypeEncodingAndNullPattern) {
  const TypeKind types[] = {TypeKind::kInt64, TypeKind::kDate,
                            TypeKind::kDouble, TypeKind::kBool,
                            TypeKind::kString};
  std::set<std::pair<TypeKind, BlockEncoding>> seen;
  for (TypeKind type : types) {
    for (int shape = 0; shape < 3; ++shape) {
      for (int rows : {1, 255, 256}) {
        for (int nulls = 0; nulls < 3; ++nulls) {  // none, mixed, all
          std::vector<Value> col;
          for (int i = 0; i < rows; ++i) {
            const bool null = nulls == 2 || (nulls == 1 && i % 3 == 1);
            col.push_back(null ? Value::Null() : GenCell(type, shape, i));
          }
          ColumnBlockMeta meta;
          const std::string bytes =
              EncodeColumnBlock(col, 0, rows, type, false, &meta);
          seen.insert({type, meta.encoding});
          // Decode behind an existing cell, as the reader appends block
          // after block to one column.
          std::vector<Value> out = {Value::String("before")};
          const Status st = DecodeColumnBlock(bytes, meta.encoding, type, rows,
                                              meta.sketch.null_count, &out);
          ASSERT_TRUE(st.ok()) << st << " type " << TypeKindToString(type)
                               << " shape " << shape << " rows " << rows
                               << " nulls " << nulls;
          ASSERT_EQ(out.size(), col.size() + 1);
          EXPECT_EQ(out[0].string_value(), "before");
          for (int i = 0; i < rows; ++i) {
            ASSERT_TRUE(SameCell(out[i + 1], col[i]))
                << TypeKindToString(type) << " shape " << shape << " rows "
                << rows << " nulls " << nulls << " row " << i << ": "
                << out[i + 1].ToString() << " vs " << col[i].ToString();
          }
        }
      }
    }
  }
  // Every encoding the writer picks showed up; raw-i64 only as an
  // all-NULL block, which the hand-built case below covers with values.
  for (auto want : std::vector<std::pair<TypeKind, BlockEncoding>>{
           {TypeKind::kInt64, BlockEncoding::kForI64},
           {TypeKind::kInt64, BlockEncoding::kRleI64},
           {TypeKind::kInt64, BlockEncoding::kRawI64},
           {TypeKind::kDate, BlockEncoding::kForI64},
           {TypeKind::kDate, BlockEncoding::kRleI64},
           {TypeKind::kDouble, BlockEncoding::kRawF64},
           {TypeKind::kBool, BlockEncoding::kRawBool},
           {TypeKind::kString, BlockEncoding::kDict}}) {
    EXPECT_TRUE(seen.count(want)) << TypeKindToString(want.first) << " "
                                  << BlockEncodingName(want.second);
  }
}

/// `v` as `width` little-endian bytes (zero bytes past the eighth).
std::string LE(uint64_t v, int width) {
  std::string s;
  for (int b = 0; b < width; ++b) {
    s += static_cast<char>(b < 8 ? v >> (8 * b) : 0);
  }
  return s;
}

TEST(ColumnarBlockCodec, RawI64BlocksWithValuesDecode) {
  // The writer emits raw-i64 only for all-NULL blocks, but the format
  // allows values; one NULL (bitmap 0b101) sits between them.
  const std::string bytes =
      std::string(1, '\x05') + LE(static_cast<uint64_t>(INT64_MIN), 8) +
      LE(42, 8);
  std::vector<Value> out;
  ASSERT_TRUE(DecodeColumnBlock(bytes, BlockEncoding::kRawI64,
                                TypeKind::kInt64, 3, 1, &out)
                  .ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].int64_value(), INT64_MIN);
  EXPECT_TRUE(out[1].is_null());
  EXPECT_EQ(out[2].int64_value(), 42);
  out.clear();
  ASSERT_TRUE(DecodeColumnBlock(LE(19000, 8) + LE(static_cast<uint64_t>(-3), 8),
                                BlockEncoding::kRawI64, TypeKind::kDate, 2, 0,
                                &out)
                  .ok());
  EXPECT_EQ(out[0].date_value(), Date(19000));
  EXPECT_EQ(out[1].date_value(), Date(-3));
}

struct BadBlock {
  const char* name;
  TypeKind type;
  BlockEncoding encoding;
  int rows;
  int64_t nulls;
  std::string bytes;
  const char* error;  // substring of the expected ParseError
};

void PrintTo(const BadBlock& b, std::ostream* os) { *os << b.name; }

class ColumnarBadBlock : public ::testing::TestWithParam<BadBlock> {};

TEST_P(ColumnarBadBlock, FailsWithTypedParseError) {
  const BadBlock& b = GetParam();
  std::vector<Value> out;
  const Status st =
      DecodeColumnBlock(b.bytes, b.encoding, b.type, b.rows, b.nulls, &out);
  ASSERT_EQ(st.code(), StatusCode::kParseError) << st;
  EXPECT_NE(st.message().find(b.error), std::string::npos) << st;
}

using TK = TypeKind;
using BE = BlockEncoding;
// A valid 2-entry dictionary ("ab", "ac") up to its index width byte.
const std::string kDict2 = LE(2, 4) + LE(0, 4) + LE(2, 4) + "ab" + LE(1, 4) +
                           LE(1, 4) + "c";

INSTANTIATE_TEST_SUITE_P(
    EveryTypedError, ColumnarBadBlock,
    ::testing::Values(
        BadBlock{"negative_rows", TK::kInt64, BE::kRawI64, -1, 0, "",
                 "row/null"},
        BadBlock{"nulls_over_rows", TK::kInt64, BE::kRawI64, 2, 3, "",
                 "row/null"},
        BadBlock{"negative_nulls", TK::kInt64, BE::kRawI64, 2, -1, "",
                 "row/null"},
        BadBlock{"bitmap_truncated", TK::kInt64, BE::kRawI64, 9, 1, "\xff",
                 "truncated validity bitmap"},
        BadBlock{"bitmap_count", TK::kInt64, BE::kRawI64, 3, 1,
                 std::string(1, '\x07') + LE(1, 8) + LE(2, 8),
                 "validity bitmap mismatch"},
        BadBlock{"double_as_dict", TK::kDouble, BE::kDict, 1, 0, LE(0, 8),
                 "encoding/type mismatch"},
        BadBlock{"bool_as_raw_i64", TK::kBool, BE::kRawI64, 1, 0, "\x01",
                 "encoding/type mismatch"},
        BadBlock{"string_as_rle", TK::kString, BE::kRleI64, 1, 0, kDict2,
                 "encoding/type mismatch"},
        BadBlock{"int64_as_f64", TK::kInt64, BE::kRawF64, 1, 0, LE(0, 8),
                 "encoding/type mismatch"},
        BadBlock{"untyped", TK::kNull, BE::kRawI64, 1, 0, LE(0, 8),
                 "untyped column"},
        BadBlock{"no_type", static_cast<TK>(9), BE::kRawI64, 1, 0, LE(0, 8),
                 "untyped column"},
        BadBlock{"double_short", TK::kDouble, BE::kRawF64, 2, 0, LE(0, 8),
                 "truncated payload"},
        BadBlock{"double_trailing", TK::kDouble, BE::kRawF64, 1, 0,
                 LE(0, 8) + "x", "trailing bytes"},
        BadBlock{"bool_length", TK::kBool, BE::kRawBool, 2, 0, "\x01",
                 "length mismatch"},
        BadBlock{"bool_value", TK::kBool, BE::kRawBool, 2, 0, "\x01\x02",
                 "bad bool"},
        BadBlock{"raw_short", TK::kInt64, BE::kRawI64, 2, 0, LE(0, 8),
                 "truncated payload"},
        BadBlock{"raw_trailing", TK::kInt64, BE::kRawI64, 1, 0, LE(0, 9),
                 "length mismatch"},
        BadBlock{"for_no_base", TK::kInt64, BE::kForI64, 1, 0, LE(0, 7),
                 "truncated payload"},
        BadBlock{"for_no_width", TK::kInt64, BE::kForI64, 1, 0, LE(0, 8),
                 "truncated payload"},
        BadBlock{"for_width_3", TK::kInt64, BE::kForI64, 1, 0,
                 LE(0, 8) + LE(3, 1) + LE(0, 3), "bad FOR width"},
        BadBlock{"for_width_16", TK::kInt64, BE::kForI64, 1, 0,
                 LE(0, 8) + LE(16, 1), "bad FOR width"},
        BadBlock{"for_short", TK::kInt64, BE::kForI64, 3, 0,
                 LE(0, 8) + LE(2, 1) + LE(0, 4), "truncated payload"},
        BadBlock{"for_trailing", TK::kInt64, BE::kForI64, 1, 0,
                 LE(0, 8) + LE(0, 1) + "x", "length mismatch"},
        BadBlock{"rle_no_count", TK::kInt64, BE::kRleI64, 1, 0, LE(1, 3),
                 "truncated payload"},
        BadBlock{"rle_run_short", TK::kInt64, BE::kRleI64, 1, 0,
                 LE(1, 4) + LE(5, 8) + LE(1, 3), "truncated payload"},
        BadBlock{"rle_empty_run", TK::kInt64, BE::kRleI64, 1, 0,
                 LE(1, 4) + LE(5, 8) + LE(0, 4), "bad RLE run"},
        BadBlock{"rle_overlong_run", TK::kInt64, BE::kRleI64, 2, 0,
                 LE(1, 4) + LE(5, 8) + LE(3, 4), "bad RLE run"},
        BadBlock{"rle_too_few_rows", TK::kInt64, BE::kRleI64, 2, 0,
                 LE(1, 4) + LE(5, 8) + LE(1, 4), "length mismatch"},
        BadBlock{"rle_trailing", TK::kInt64, BE::kRleI64, 1, 0,
                 LE(1, 4) + LE(5, 8) + LE(1, 4) + "x", "length mismatch"},
        BadBlock{"int64_as_dict", TK::kInt64, BE::kDict, 1, 0,
                 kDict2 + LE(1, 1) + LE(0, 1),
                 "encoding/type mismatch"},
        BadBlock{"date_above_int32", TK::kDate, BE::kRawI64, 1, 0,
                 LE(uint64_t{1} << 31, 8), "date out of range"},
        BadBlock{"date_below_int32", TK::kDate, BE::kForI64, 1, 0,
                 LE(static_cast<uint64_t>(int64_t{INT32_MIN} - 1), 8) +
                     LE(0, 1),
                 "date out of range"},
        BadBlock{"date_rle_range", TK::kDate, BE::kRleI64, 1, 0,
                 LE(1, 4) + LE(uint64_t{1} << 40, 8) + LE(1, 4),
                 "date out of range"},
        BadBlock{"dict_no_size", TK::kString, BE::kDict, 1, 0, LE(1, 3),
                 "truncated payload"},
        BadBlock{"dict_too_large", TK::kString, BE::kDict, 1, 0, LE(1000, 4),
                 "dictionary too large"},
        BadBlock{"dict_entry_short", TK::kString, BE::kDict, 1, 0,
                 LE(1, 4) + LE(0, 4) + LE(1, 2), "truncated payload"},
        BadBlock{"dict_first_prefix", TK::kString, BE::kDict, 1, 0,
                 LE(1, 4) + LE(1, 4) + LE(0, 4) + LE(0, 1) + LE(0, 1),
                 "bad dictionary prefix"},
        BadBlock{"dict_long_prefix", TK::kString, BE::kDict, 1, 0,
                 LE(2, 4) + LE(0, 4) + LE(1, 4) + "a" + LE(2, 4) + LE(0, 4),
                 "bad dictionary prefix"},
        BadBlock{"dict_tail_short", TK::kString, BE::kDict, 1, 0,
                 LE(1, 4) + LE(0, 4) + LE(5, 4) + "ab", "truncated payload"},
        BadBlock{"dict_no_width", TK::kString, BE::kDict, 1, 0, kDict2,
                 "truncated payload"},
        BadBlock{"dict_width_3", TK::kString, BE::kDict, 1, 0,
                 kDict2 + LE(3, 1) + LE(0, 3), "bad dictionary index width"},
        BadBlock{"dict_indexes_short", TK::kString, BE::kDict, 2, 0,
                 kDict2 + LE(2, 1) + LE(0, 2), "truncated payload"},
        BadBlock{"dict_trailing", TK::kString, BE::kDict, 1, 0,
                 kDict2 + LE(1, 1) + LE(1, 1) + "x", "trailing bytes"},
        BadBlock{"dict_index_range", TK::kString, BE::kDict, 2, 0,
                 kDict2 + LE(1, 1) + LE(1, 1) + LE(2, 1),
                 "dictionary index range"}));

TEST(ColumnarBlockCodec, HandBuiltDictionaryDecodes) {
  // The valid prefix of the malformed cases above, so their failures
  // come from the byte each one breaks.
  std::vector<Value> out;
  ASSERT_TRUE(DecodeColumnBlock(kDict2 + LE(1, 1) + LE(1, 1) + LE(0, 1),
                                BlockEncoding::kDict, TypeKind::kString, 2, 0,
                                &out)
                  .ok());
  // Index width 4 (the writer needs > 65535 entries for it).
  ASSERT_TRUE(DecodeColumnBlock(kDict2 + LE(4, 1) + LE(0, 4),
                                BlockEncoding::kDict, TypeKind::kString, 1, 0,
                                &out)
                  .ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].string_value(), "ac");
  EXPECT_EQ(out[1].string_value(), "ab");
  EXPECT_EQ(out[2].string_value(), "ab");
}

// ---------------------------------------------------------------------------
// Multi-block range reads: one read per column per range, each block
// checked on its slice.
// ---------------------------------------------------------------------------

/// 5 unclustered blocks (4 x 256 + 100 rows) over every column type,
/// with NULLs in the nullable columns.
Table FiveBlockTable() {
  Table t(QuoteSchema());
  const char* names[] = {"IBM", "INTC", "IBMX"};
  for (int i = 0; i < 4 * 256 + 100; ++i) {
    SQLTS_CHECK_OK(t.AppendRow(
        {Value::String(names[i % 3]), Value::FromDate(Date(10000 + i)),
         i % 7 == 3 ? Value::Null() : Value::Double(50 + i * 0.25),
         i % 11 == 5 ? Value::Null() : Value::Int64(i / 40)}));
  }
  return t;
}

/// Rebuilds a container from a data region and a footer, with a fresh
/// header (footer offset, size and checksum).
std::string BuildContainer(const std::string& data,
                           const ColumnarFooter& footer) {
  const std::string f = EncodeFooter(footer);
  return std::string(kColumnarMagic) + LE(kColumnarVersion, 4) +
         LE(kColumnarHeaderSize + data.size(), 8) + LE(f.size(), 8) +
         LE(Fnv1a64(f), 8) + data + f;
}

/// Appends the rows of `part` to `all`.
void AppendTable(const Table& part, Table* all) {
  for (int64_t r = 0; r < part.num_rows(); ++r) {
    SQLTS_CHECK_OK(all->AppendRow(part.GetRow(r)));
  }
}

TEST(ColumnarRangeRead, RangeEqualsConcatenatedSingleBlocks) {
  const Table source = FiveBlockTable();
  std::string bytes = ColumnarWriter::WriteBytes(source).value();
  const std::string path = ::testing::TempDir() + "/sqlts_range_read.sqlc";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::vector<std::unique_ptr<ColumnarReader>> readers;
  readers.push_back(ColumnarReader::OpenBytes(bytes).value());
  readers.push_back(ColumnarReader::Open(path).value());
  for (auto& reader : readers) {
    ASSERT_EQ(reader->footer().blocks.size(), 5u);
    for (int b = 0; b + 3 <= 5; ++b) {
      auto range = reader->ReadBlockRange(b, 3);
      ASSERT_TRUE(range.ok()) << range.status();
      Table singles(QuoteSchema());
      for (int k = b; k < b + 3; ++k) {
        AppendTable(reader->ReadBlockRange(k, 1).value(), &singles);
      }
      ExpectTablesEqual(*range, singles);
    }
    auto empty = reader->ReadBlockRange(5, 0);
    ASSERT_TRUE(empty.ok()) << empty.status();
    EXPECT_EQ(empty->num_rows(), 0);
    EXPECT_EQ(reader->ReadBlockRange(4, 2).status().code(),
              StatusCode::kInvalidArgument);
    auto all = reader->ReadTable();
    ASSERT_TRUE(all.ok()) << all.status();
    ExpectTablesEqual(source, *all);
  }
  std::remove(path.c_str());
}

TEST(ColumnarRangeRead, MiddleBlockFlipFailsOnlyRangesThatCoverIt) {
  std::string bytes = ColumnarWriter::WriteBytes(FiveBlockTable()).value();
  const ColumnarFooter footer =
      ColumnarReader::OpenBytes(bytes).value()->footer();
  // Damage block 2 of the date column (column 1): inside range [1, 4).
  const ColumnBlockMeta& target = footer.columns[1][2];
  bytes[target.offset + target.size / 2] ^= 0x10;

  auto reader = ColumnarReader::OpenBytes(bytes).value();
  auto damaged = reader->ReadBlockRange(1, 3);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kParseError)
      << damaged.status();
  // Counted: the range's blocks of column 0, then block 1 of column 1 —
  // every block verified before the damaged one, and nothing after it.
  int64_t verified = footer.columns[1][1].size;
  for (int b = 1; b < 4; ++b) verified += footer.columns[0][b].size;
  EXPECT_EQ(reader->bytes_read(), verified);

  int64_t before = reader->bytes_read();
  for (auto [first, n] : {std::pair{0, 2}, std::pair{3, 2}}) {
    auto intact = reader->ReadBlockRange(first, n);
    ASSERT_TRUE(intact.ok()) << intact.status();
    int64_t sizes = 0;
    for (const auto& column : footer.columns) {
      for (int b = first; b < first + n; ++b) sizes += column[b].size;
    }
    EXPECT_EQ(reader->bytes_read() - before, sizes);
    before = reader->bytes_read();
  }
}

TEST(ColumnarRangeRead, OpenRefusesColumnBlocksNotBackToBack) {
  const std::string bytes =
      ColumnarWriter::WriteBytes(FiveBlockTable()).value();
  const ColumnarFooter footer =
      ColumnarReader::OpenBytes(bytes).value()->footer();
  const uint64_t footer_offset = footer.columns.back().back().offset +
                                 footer.columns.back().back().size;
  const std::string data =
      bytes.substr(kColumnarHeaderSize, footer_offset - kColumnarHeaderSize);
  ASSERT_EQ(BuildContainer(data, footer), bytes);  // the helper is exact

  // One padding byte at data offset `at`; every later block moves by one,
  // so each block still matches its checksum.
  auto padded = [&](uint64_t at) {
    ColumnarFooter f = footer;
    for (auto& column : f.columns) {
      for (ColumnBlockMeta& m : column) {
        if (m.offset >= kColumnarHeaderSize + at) ++m.offset;
      }
    }
    return BuildContainer(data.substr(0, at) + "#" + data.substr(at), f);
  };
  // Between two columns: still back to back within each column.
  const uint64_t column_gap = footer.columns[1][0].offset - kColumnarHeaderSize;
  auto ok = ColumnarReader::OpenBytes(padded(column_gap));
  ASSERT_TRUE(ok.ok()) << ok.status();
  ExpectTablesEqual(FiveBlockTable(), (*ok)->ReadTable().value());
  // Between blocks 1 and 2 of column 1: a gap.
  const uint64_t block_gap = footer.columns[1][2].offset - kColumnarHeaderSize;
  auto gap = ColumnarReader::OpenBytes(padded(block_gap));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), StatusCode::kParseError) << gap.status();

  // Column 0's blocks 0 and 1 swapped: contiguous, but out of block order.
  ColumnarFooter swapped = footer;
  ColumnBlockMeta& b0 = swapped.columns[0][0];
  ColumnBlockMeta& b1 = swapped.columns[0][1];
  std::string moved = data.substr(b1.offset - kColumnarHeaderSize, b1.size) +
                      data.substr(0, b0.size) + data.substr(b0.size + b1.size);
  b1.offset = kColumnarHeaderSize;
  b0.offset = kColumnarHeaderSize + b1.size;
  auto out_of_order = ColumnarReader::OpenBytes(BuildContainer(moved, swapped));
  ASSERT_FALSE(out_of_order.ok());
  EXPECT_EQ(out_of_order.status().code(), StatusCode::kParseError)
      << out_of_order.status();
}

}  // namespace
}  // namespace sqlts
