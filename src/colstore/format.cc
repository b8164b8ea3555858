#include "colstore/format.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "engine/checkpoint.h"

namespace sqlts {
namespace {

void PutU8(std::string* s, uint8_t v) { s->push_back(static_cast<char>(v)); }

void PutU32(std::string* s, uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(s, static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::string* s, uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(s, static_cast<uint8_t>(v >> (8 * i)));
}

void PutI64(std::string* s, int64_t v) { PutU64(s, static_cast<uint64_t>(v)); }

/// Little-endian load of a W-byte field (W = 0 loads 0); the caller has
/// already checked the bytes are there.
template <int W>
uint64_t LoadLE(const char* p) {
  uint64_t v = 0;
  for (int b = 0; b < W; ++b) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[b])) << (8 * b);
  }
  return v;
}

/// Bounds-checked little-endian reader over a block's header fields.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  /// The bytes not yet consumed.
  std::string_view rest() const { return data_.substr(pos_); }
  StatusOr<uint8_t> U8() { return Load<1, uint8_t>(); }
  StatusOr<uint32_t> U32() { return Load<4, uint32_t>(); }
  StatusOr<uint64_t> U64() { return Load<8, uint64_t>(); }
  StatusOr<std::string_view> Bytes(size_t n) {
    if (data_.size() - pos_ < n) {
      return Status::ParseError("columnar block: truncated payload");
    }
    pos_ += n;
    return data_.substr(pos_ - n, n);
  }

 private:
  template <int W, typename T>
  StatusOr<T> Load() {
    SQLTS_ASSIGN_OR_RETURN(std::string_view b, Bytes(W));
    return static_cast<T>(LoadLE<W>(b.data()));
  }
  std::string_view data_;
  size_t pos_ = 0;
};

/// Numeric cell as int64 (int64 columns and dates; dates store their
/// epoch-day number).
int64_t CellI64(const Value& v, TypeKind type) {
  return type == TypeKind::kDate
             ? static_cast<int64_t>(v.date_value().days_since_epoch())
             : v.int64_value();
}

/// The int64 or date cell holding `raw`; NULL for a date outside int32.
Value I64Cell(int64_t raw, TypeKind type) {
  if (type != TypeKind::kDate) return Value::Int64(raw);
  if (raw < std::numeric_limits<int32_t>::min() ||
      raw > std::numeric_limits<int32_t>::max()) {
    return Value::Null();
  }
  return Value::FromDate(Date(static_cast<int32_t>(raw)));
}

int ForWidth(uint64_t range) {
  if (range == 0) return 0;
  if (range <= 0xffu) return 1;
  if (range <= 0xffffu) return 2;
  if (range <= 0xffffffffu) return 4;
  return 8;
}

std::string EncodeI64s(const std::vector<int64_t>& vals,
                       BlockEncoding* encoding) {
  const size_t n = vals.size();
  if (n == 0) {
    *encoding = BlockEncoding::kRawI64;
    return {};
  }
  int64_t lo = vals[0], hi = vals[0];
  size_t runs = 1;
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, vals[i]);
    hi = std::max(hi, vals[i]);
    if (vals[i] != vals[i - 1]) ++runs;
  }
  const uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  const int width = ForWidth(range);
  const size_t for_size = 9 + n * static_cast<size_t>(width);
  const size_t rle_size = 4 + runs * 12;
  std::string out;
  if (rle_size < for_size) {
    *encoding = BlockEncoding::kRleI64;
    out.reserve(rle_size);
    PutU32(&out, static_cast<uint32_t>(runs));
    size_t i = 0;
    while (i < n) {
      size_t j = i;
      while (j < n && vals[j] == vals[i]) ++j;
      PutI64(&out, vals[i]);
      PutU32(&out, static_cast<uint32_t>(j - i));
      i = j;
    }
  } else {
    *encoding = BlockEncoding::kForI64;
    out.reserve(for_size);
    PutI64(&out, lo);
    PutU8(&out, static_cast<uint8_t>(width));
    for (size_t i = 0; i < n; ++i) {
      const uint64_t d =
          static_cast<uint64_t>(vals[i]) - static_cast<uint64_t>(lo);
      for (int b = 0; b < width; ++b) {
        PutU8(&out, static_cast<uint8_t>(d >> (8 * b)));
      }
    }
  }
  return out;
}

std::string EncodeDict(const std::vector<const std::string*>& vals) {
  // Sorted unique dictionary with common-prefix compression.
  std::vector<const std::string*> sorted(vals);
  std::sort(sorted.begin(), sorted.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  std::vector<const std::string*> dict;
  for (const std::string* s : sorted) {
    if (dict.empty() || *dict.back() != *s) dict.push_back(s);
  }
  std::string out;
  PutU32(&out, static_cast<uint32_t>(dict.size()));
  for (size_t i = 0; i < dict.size(); ++i) {
    size_t prefix = 0;
    if (i > 0) {
      const std::string& prev = *dict[i - 1];
      const std::string& curr = *dict[i];
      const size_t limit = std::min(prev.size(), curr.size());
      while (prefix < limit && prev[prefix] == curr[prefix]) ++prefix;
    }
    PutU32(&out, static_cast<uint32_t>(prefix));
    PutU32(&out, static_cast<uint32_t>(dict[i]->size() - prefix));
    out.append(*dict[i], prefix, dict[i]->size() - prefix);
  }
  const int width = dict.size() <= 0xff ? 1 : dict.size() <= 0xffff ? 2 : 4;
  PutU8(&out, static_cast<uint8_t>(width));
  for (const std::string* s : vals) {
    const auto it = std::lower_bound(
        dict.begin(), dict.end(), s,
        [](const std::string* a, const std::string* b) { return *a < *b; });
    const uint32_t idx = static_cast<uint32_t>(it - dict.begin());
    for (int b = 0; b < width; ++b) {
      PutU8(&out, static_cast<uint8_t>(idx >> (8 * b)));
    }
  }
  return out;
}

/// Calls `f(std::integral_constant<int, W>{})` for a byte width W in
/// {0, 1, 2, 4, 8}, so the per-cell loads see a constant width.
template <typename F>
Status WithWidth(int width, F f) {
  switch (width) {
    case 0: return f(std::integral_constant<int, 0>{});
    case 1: return f(std::integral_constant<int, 1>{});
    case 2: return f(std::integral_constant<int, 2>{});
    case 4: return f(std::integral_constant<int, 4>{});
    default: return f(std::integral_constant<int, 8>{});
  }
}

/// ParseError unless `bytes` is `need` long; a longer one is `too_long`.
Status ExactSize(std::string_view bytes, size_t need, const char* too_long) {
  if (bytes.size() < need) {
    return Status::ParseError("columnar block: truncated payload");
  }
  if (bytes.size() > need) return Status::ParseError(too_long);
  return Status::OK();
}

constexpr const char* kLengthMismatch = "columnar block: length mismatch";
constexpr const char* kTrailingBytes = "columnar block: trailing bytes";

/// Appends `n` int64 or date cells, cell i being `get(i)`.  The type is
/// settled once per call, not per cell.
template <typename Get>
Status PutI64Cells(TypeKind type, size_t n, Get get, std::vector<Value>* out) {
  if (type == TypeKind::kInt64) {
    for (size_t i = 0; i < n; ++i) out->push_back(Value::Int64(get(i)));
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    out->push_back(I64Cell(get(i), type));
    if (out->back().holds_null()) {
      return Status::ParseError("columnar block: date out of range");
    }
  }
  return Status::OK();
}

Status DecodeI64Cells(std::string_view bytes, BlockEncoding encoding,
                      TypeKind type, size_t n, std::vector<Value>* out) {
  Cursor cur(bytes);
  switch (encoding) {
    case BlockEncoding::kRawI64:  // as FOR from 0 with 8-byte deltas
    case BlockEncoding::kForI64: {
      uint64_t lo = 0;
      uint8_t width = 8;
      if (encoding == BlockEncoding::kForI64) {
        SQLTS_ASSIGN_OR_RETURN(lo, cur.U64());
        SQLTS_ASSIGN_OR_RETURN(width, cur.U8());
      }
      if (width > 8 || !(width == 0 || std::has_single_bit(width))) {
        return Status::ParseError("columnar block: bad FOR width");
      }
      SQLTS_RETURN_IF_ERROR(ExactSize(cur.rest(), n * width, kLengthMismatch));
      const char* p = cur.rest().data();
      return WithWidth(width, [&](auto w) {
        constexpr int W = decltype(w)::value;
        return PutI64Cells(
            type, n,
            [lo, p](size_t i) { return int64_t(lo + LoadLE<W>(p + W * i)); },
            out);
      });
    }
    case BlockEncoding::kRleI64: {
      // Every run is checked before the first cell is emitted.
      SQLTS_ASSIGN_OR_RETURN(uint32_t runs, cur.U32());
      const char* p = cur.rest().data();
      size_t total = 0;
      for (uint32_t r = 0; r < runs; ++r) {
        SQLTS_ASSIGN_OR_RETURN(std::string_view run, cur.Bytes(12));
        const uint64_t len = LoadLE<4>(run.data() + 8);
        if (len == 0 || total + len > n) {
          return Status::ParseError("columnar block: bad RLE run");
        }
        total += len;
      }
      if (total != n || !cur.rest().empty()) {
        return Status::ParseError(kLengthMismatch);
      }
      for (size_t r = 0; r < runs; ++r) {
        const int64_t v = static_cast<int64_t>(LoadLE<8>(p + 12 * r));
        SQLTS_RETURN_IF_ERROR(PutI64Cells(
            type, LoadLE<4>(p + 12 * r + 8), [v](size_t) { return v; }, out));
      }
      return Status::OK();
    }
    default:
      return Status::ParseError("columnar block: encoding/type mismatch");
  }
}

/// Dictionary block: the entries are decoded once, as the cells they
/// become, and each row copies its entry.
Status DecodeDictCells(std::string_view bytes, size_t n,
                       std::vector<Value>* out) {
  Cursor cur(bytes);
  SQLTS_ASSIGN_OR_RETURN(uint32_t dict_size, cur.U32());
  if (dict_size > bytes.size()) {
    return Status::ParseError("columnar block: dictionary too large");
  }
  std::vector<Value> dict;
  std::string entry;
  for (uint32_t i = 0; i < dict_size; ++i) {
    SQLTS_ASSIGN_OR_RETURN(uint32_t prefix, cur.U32());
    SQLTS_ASSIGN_OR_RETURN(uint32_t suffix, cur.U32());
    if (prefix > entry.size()) {  // the first entry has no prefix
      return Status::ParseError("columnar block: bad dictionary prefix");
    }
    SQLTS_ASSIGN_OR_RETURN(std::string_view tail, cur.Bytes(suffix));
    entry.resize(prefix);
    entry.append(tail);
    dict.push_back(Value::String(entry));
  }
  SQLTS_ASSIGN_OR_RETURN(uint8_t width, cur.U8());
  if (width != 1 && width != 2 && width != 4) {
    return Status::ParseError("columnar block: bad dictionary index width");
  }
  SQLTS_RETURN_IF_ERROR(ExactSize(cur.rest(), n * width, kTrailingBytes));
  const char* p = cur.rest().data();
  return WithWidth(width, [&](auto w) {
    constexpr int W = decltype(w)::value;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t idx = LoadLE<W>(p + W * i);
      if (idx >= dict_size) {
        return Status::ParseError("columnar block: dictionary index range");
      }
      out->push_back(dict[idx]);
    }
    return Status::OK();
  });
}

/// Moves the dense cells out[base, end) to their rows among the `rows`
/// cells from `base`, NULL where `bitmap` has a clear bit.  Going
/// backwards reads each dense slot before its row overwrites it.
void SpreadNulls(std::string_view bitmap, int rows, size_t base,
                 std::vector<Value>* out) {
  size_t k = out->size();
  out->resize(base + static_cast<size_t>(rows));
  for (int r = rows - 1; r >= 0; --r) {
    Value& slot = (*out)[base + r];
    if ((static_cast<uint8_t>(bitmap[r >> 3]) >> (r & 7)) & 1) {
      if (--k != base + r) slot = std::move((*out)[k]);
    } else {
      slot = Value::Null();
    }
  }
}

}  // namespace

std::string_view BlockEncodingName(BlockEncoding e) {
  switch (e) {
    case BlockEncoding::kRawI64: return "raw-i64";
    case BlockEncoding::kRawF64: return "raw-f64";
    case BlockEncoding::kRawBool: return "raw-bool";
    case BlockEncoding::kForI64: return "for-i64";
    case BlockEncoding::kRleI64: return "rle-i64";
    case BlockEncoding::kDict: return "dict";
  }
  return "?";
}

uint64_t BloomHashBytes(std::string_view bytes) { return Fnv1a64(bytes); }

uint64_t BloomHashInt64(int64_t v) {
  char raw[8];
  const uint64_t u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) raw[i] = static_cast<char>(u >> (8 * i));
  return Fnv1a64(std::string_view(raw, 8));
}

namespace {
inline uint32_t BloomProbe(uint64_t hash, int k) {
  const uint64_t h2 = hash * 0x9e3779b97f4a7c15ull | 1;
  return static_cast<uint32_t>((hash + static_cast<uint64_t>(k) * h2) %
                               (kColBloomBytes * 8));
}
}  // namespace

void BloomAdd(std::string* bits, uint64_t hash) {
  if (bits->size() != kColBloomBytes) bits->assign(kColBloomBytes, '\0');
  for (int k = 0; k < kColBloomProbes; ++k) {
    const uint32_t p = BloomProbe(hash, k);
    (*bits)[p >> 3] |= static_cast<char>(1u << (p & 7));
  }
}

bool BloomMayContain(std::string_view bits, uint64_t hash) {
  if (bits.size() != kColBloomBytes) return true;  // no filter: unknown
  for (int k = 0; k < kColBloomProbes; ++k) {
    const uint32_t p = BloomProbe(hash, k);
    if ((static_cast<uint8_t>(bits[p >> 3]) & (1u << (p & 7))) == 0) {
      return false;
    }
  }
  return true;
}

std::string EncodeColumnBlock(const std::vector<Value>& col, int64_t start,
                              int rows, TypeKind type, bool want_bloom,
                              ColumnBlockMeta* meta) {
  BlockSketch& sketch = meta->sketch;
  sketch = BlockSketch{};
  std::string bitmap((rows + 7) / 8, '\0');
  bool has_null = false;
  for (int r = 0; r < rows; ++r) {
    if (col[start + r].is_null()) {
      has_null = true;
      ++sketch.null_count;
    } else {
      bitmap[r >> 3] |= static_cast<char>(1u << (r & 7));
    }
  }

  std::string payload;
  switch (type) {
    case TypeKind::kInt64:
    case TypeKind::kDate: {
      std::vector<int64_t> vals;
      vals.reserve(rows);
      bool first = true;
      int64_t lo = 0, hi = 0;
      for (int r = 0; r < rows; ++r) {
        const Value& v = col[start + r];
        if (v.is_null()) continue;
        const int64_t x = CellI64(v, type);
        vals.push_back(x);
        if (first) {
          lo = hi = x;
          first = false;
        } else {
          lo = std::min(lo, x);
          hi = std::max(hi, x);
        }
        if (want_bloom) BloomAdd(&sketch.bloom, BloomHashInt64(x));
      }
      if (!first) {
        sketch.min = I64Cell(lo, type);
        sketch.max = I64Cell(hi, type);
      }
      payload = EncodeI64s(vals, &meta->encoding);
      break;
    }
    case TypeKind::kDouble: {
      meta->encoding = BlockEncoding::kRawF64;
      bool first = true;
      bool saw_nan = false;
      double lo = 0, hi = 0;
      for (int r = 0; r < rows; ++r) {
        const Value& v = col[start + r];
        if (v.is_null()) continue;
        const double x = v.double_value();
        if (std::isnan(x)) {
          saw_nan = true;
        } else if (first) {
          lo = hi = x;
          first = false;
        } else {
          lo = std::min(lo, x);
          hi = std::max(hi, x);
        }
        PutU64(&payload, std::bit_cast<uint64_t>(x));
      }
      // A NaN cell poisons ordering; publish no zone bounds (sound:
      // the skipper simply cannot constrain this block).
      if (!first && !saw_nan) {
        sketch.min = Value::Double(lo);
        sketch.max = Value::Double(hi);
      }
      break;
    }
    case TypeKind::kBool: {
      meta->encoding = BlockEncoding::kRawBool;
      bool first = true;
      bool lo = false, hi = false;
      for (int r = 0; r < rows; ++r) {
        const Value& v = col[start + r];
        if (v.is_null()) continue;
        const bool x = v.bool_value();
        if (first) {
          lo = hi = x;
          first = false;
        } else {
          lo = lo && x;
          hi = hi || x;
        }
        PutU8(&payload, x ? 1 : 0);
      }
      if (!first) {
        sketch.min = Value::Bool(lo);
        sketch.max = Value::Bool(hi);
      }
      break;
    }
    case TypeKind::kString: {
      meta->encoding = BlockEncoding::kDict;
      std::vector<const std::string*> vals;
      vals.reserve(rows);
      const std::string* lo = nullptr;
      const std::string* hi = nullptr;
      for (int r = 0; r < rows; ++r) {
        const Value& v = col[start + r];
        if (v.is_null()) continue;
        const std::string& s = v.string_value();
        vals.push_back(&s);
        if (lo == nullptr || s < *lo) lo = &s;
        if (hi == nullptr || *hi < s) hi = &s;
        if (want_bloom) BloomAdd(&sketch.bloom, BloomHashBytes(s));
      }
      if (lo != nullptr) {
        sketch.min = Value::String(*lo);
        sketch.max = Value::String(*hi);
      }
      payload = EncodeDict(vals);
      break;
    }
    case TypeKind::kNull:
      meta->encoding = BlockEncoding::kRawI64;
      break;
  }

  std::string out;
  if (has_null) out = std::move(bitmap);
  out += payload;
  return out;
}

Status DecodeColumnBlock(std::string_view bytes, BlockEncoding encoding,
                         TypeKind type, int rows, int64_t null_count,
                         std::vector<Value>* out) {
  if (rows < 0 || null_count < 0 || null_count > rows) {
    return Status::ParseError("columnar block: bad row/null counts");
  }
  std::string_view bitmap;
  if (null_count > 0) {
    const size_t bitmap_bytes = (static_cast<size_t>(rows) + 7) / 8;
    if (bytes.size() < bitmap_bytes) {
      return Status::ParseError("columnar block: truncated validity bitmap");
    }
    bitmap = bytes.substr(0, bitmap_bytes);
    bytes.remove_prefix(bitmap_bytes);
    int64_t set = 0;
    for (int r = 0; r < rows; ++r) {
      set += (static_cast<uint8_t>(bitmap[r >> 3]) >> (r & 7)) & 1;
    }
    if (set != rows - null_count) {
      return Status::ParseError("columnar block: validity bitmap mismatch");
    }
  }
  const size_t n = static_cast<size_t>(rows - null_count);
  const size_t base = out->size();
  if ((type == TypeKind::kDouble && encoding != BlockEncoding::kRawF64) ||
      (type == TypeKind::kBool && encoding != BlockEncoding::kRawBool) ||
      (type == TypeKind::kString && encoding != BlockEncoding::kDict)) {
    return Status::ParseError("columnar block: encoding/type mismatch");
  }
  switch (type) {
    case TypeKind::kInt64:
    case TypeKind::kDate:
      SQLTS_RETURN_IF_ERROR(DecodeI64Cells(bytes, encoding, type, n, out));
      break;
    case TypeKind::kDouble:
      SQLTS_RETURN_IF_ERROR(ExactSize(bytes, n * 8, kTrailingBytes));
      for (size_t i = 0; i < n; ++i) {
        const uint64_t bits = LoadLE<8>(bytes.data() + 8 * i);
        out->push_back(Value::Double(std::bit_cast<double>(bits)));
      }
      break;
    case TypeKind::kBool:
      if (bytes.size() != n) return Status::ParseError(kLengthMismatch);
      for (size_t i = 0; i < n; ++i) {
        const uint8_t b = static_cast<uint8_t>(bytes[i]);
        if (b > 1) return Status::ParseError("columnar block: bad bool");
        out->push_back(Value::Bool(b != 0));
      }
      break;
    case TypeKind::kString:
      SQLTS_RETURN_IF_ERROR(DecodeDictCells(bytes, n, out));
      break;
    default:  // kNull, or no type at all
      return Status::ParseError("columnar block: untyped column");
  }
  if (null_count > 0) SpreadNulls(bitmap, rows, base, out);
  return Status::OK();
}

std::string EncodeFooter(const ColumnarFooter& footer) {
  CheckpointWriter w;
  const Schema& schema = footer.schema;
  w.WriteU32(static_cast<uint32_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    const ColumnDef& col = schema.column(c);
    w.WriteString(col.name);
    w.WriteU8(static_cast<uint8_t>(col.type));
    w.WriteBool(col.nullable);
    w.WriteBool(col.positive);
  }
  w.WriteI64(footer.num_rows);
  w.WriteU32(static_cast<uint32_t>(footer.block_rows));
  w.WriteBool(footer.clustered);
  w.WriteU32(static_cast<uint32_t>(footer.cluster_by.size()));
  for (const std::string& s : footer.cluster_by) w.WriteString(s);
  w.WriteU32(static_cast<uint32_t>(footer.sequence_by.size()));
  for (const std::string& s : footer.sequence_by) w.WriteString(s);
  w.WriteU32(static_cast<uint32_t>(footer.clusters.size()));
  for (const ClusterMeta& cl : footer.clusters) {
    w.WriteRow(cl.key);
    w.WriteI64(cl.start_row);
    w.WriteI64(cl.row_count);
    w.WriteU32(static_cast<uint32_t>(cl.first_block));
    w.WriteU32(static_cast<uint32_t>(cl.num_blocks));
  }
  w.WriteU32(static_cast<uint32_t>(footer.blocks.size()));
  for (const RowBlockMeta& b : footer.blocks) {
    w.WriteI64(b.start_row);
    w.WriteU32(static_cast<uint32_t>(b.row_count));
    w.WriteI64(b.cluster);
  }
  for (const auto& column : footer.columns) {
    for (const ColumnBlockMeta& m : column) {
      w.WriteU8(static_cast<uint8_t>(m.encoding));
      w.WriteU64(m.offset);
      w.WriteU64(m.size);
      w.WriteU64(m.checksum);
      w.WriteI64(m.sketch.null_count);
      w.WriteValue(m.sketch.min);
      w.WriteValue(m.sketch.max);
      w.WriteString(m.sketch.bloom);
    }
  }
  return w.payload();
}

StatusOr<ColumnarFooter> DecodeFooter(std::string_view payload,
                                      uint64_t file_size) {
  CheckpointReader r(payload);
  ColumnarFooter footer;
  SQLTS_ASSIGN_OR_RETURN(uint32_t ncols, r.ReadU32());
  if (ncols == 0 || ncols > 100000) {
    return Status::ParseError("columnar footer: bad column count");
  }
  for (uint32_t c = 0; c < ncols; ++c) {
    SQLTS_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    SQLTS_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
    SQLTS_ASSIGN_OR_RETURN(bool nullable, r.ReadBool());
    SQLTS_ASSIGN_OR_RETURN(bool positive, r.ReadBool());
    if (type == 0 || type > static_cast<uint8_t>(TypeKind::kDate)) {
      return Status::ParseError("columnar footer: bad column type");
    }
    SQLTS_RETURN_IF_ERROR(footer.schema.AddColumn(
        name, static_cast<TypeKind>(type), nullable, positive));
  }
  SQLTS_ASSIGN_OR_RETURN(footer.num_rows, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(uint32_t block_rows, r.ReadU32());
  if (footer.num_rows < 0 || block_rows == 0 || block_rows > (1u << 20)) {
    return Status::ParseError("columnar footer: bad row/block geometry");
  }
  footer.block_rows = static_cast<int32_t>(block_rows);
  SQLTS_ASSIGN_OR_RETURN(footer.clustered, r.ReadBool());
  SQLTS_ASSIGN_OR_RETURN(uint32_t ncluster_by, r.ReadU32());
  if (ncluster_by > ncols) {
    return Status::ParseError("columnar footer: bad cluster_by");
  }
  for (uint32_t i = 0; i < ncluster_by; ++i) {
    SQLTS_ASSIGN_OR_RETURN(std::string s, r.ReadString());
    footer.cluster_by.push_back(std::move(s));
  }
  SQLTS_ASSIGN_OR_RETURN(uint32_t nsequence_by, r.ReadU32());
  if (nsequence_by > ncols) {
    return Status::ParseError("columnar footer: bad sequence_by");
  }
  for (uint32_t i = 0; i < nsequence_by; ++i) {
    SQLTS_ASSIGN_OR_RETURN(std::string s, r.ReadString());
    footer.sequence_by.push_back(std::move(s));
  }
  SQLTS_ASSIGN_OR_RETURN(uint32_t nclusters, r.ReadU32());
  if (nclusters > static_cast<uint64_t>(footer.num_rows) + 1) {
    return Status::ParseError("columnar footer: bad cluster count");
  }
  for (uint32_t i = 0; i < nclusters; ++i) {
    ClusterMeta cl;
    SQLTS_ASSIGN_OR_RETURN(cl.key, r.ReadRow());
    SQLTS_ASSIGN_OR_RETURN(cl.start_row, r.ReadI64());
    SQLTS_ASSIGN_OR_RETURN(cl.row_count, r.ReadI64());
    SQLTS_ASSIGN_OR_RETURN(uint32_t first_block, r.ReadU32());
    SQLTS_ASSIGN_OR_RETURN(uint32_t num_blocks, r.ReadU32());
    cl.first_block = static_cast<int32_t>(first_block);
    cl.num_blocks = static_cast<int32_t>(num_blocks);
    if (cl.key.size() != footer.cluster_by.size()) {
      return Status::ParseError("columnar footer: cluster key arity");
    }
    footer.clusters.push_back(std::move(cl));
  }
  SQLTS_ASSIGN_OR_RETURN(uint32_t nblocks, r.ReadU32());
  if (nblocks > static_cast<uint64_t>(footer.num_rows) + 1) {
    return Status::ParseError("columnar footer: bad block count");
  }
  int64_t next_row = 0;
  for (uint32_t b = 0; b < nblocks; ++b) {
    RowBlockMeta m;
    SQLTS_ASSIGN_OR_RETURN(m.start_row, r.ReadI64());
    SQLTS_ASSIGN_OR_RETURN(uint32_t row_count, r.ReadU32());
    int64_t cluster;
    SQLTS_ASSIGN_OR_RETURN(cluster, r.ReadI64());
    m.row_count = static_cast<int32_t>(row_count);
    m.cluster = static_cast<int32_t>(cluster);
    if (m.start_row != next_row || m.row_count <= 0 ||
        m.row_count > footer.block_rows ||
        (footer.clustered &&
         (m.cluster < 0 ||
          m.cluster >= static_cast<int64_t>(footer.clusters.size())))) {
      return Status::ParseError("columnar footer: bad block directory");
    }
    next_row += m.row_count;
    footer.blocks.push_back(m);
  }
  if (next_row != footer.num_rows) {
    return Status::ParseError("columnar footer: blocks do not tile rows");
  }
  // Clusters must cover whole, consecutive block ranges.
  if (footer.clustered) {
    int64_t next_block = 0;
    int64_t row = 0;
    for (const ClusterMeta& cl : footer.clusters) {
      if (cl.first_block != next_block || cl.num_blocks <= 0 ||
          cl.first_block + cl.num_blocks >
              static_cast<int64_t>(footer.blocks.size()) ||
          cl.start_row != row || cl.row_count <= 0) {
        return Status::ParseError("columnar footer: bad cluster directory");
      }
      int64_t rows_in_blocks = 0;
      for (int b = cl.first_block; b < cl.first_block + cl.num_blocks; ++b) {
        if (footer.blocks[b].cluster !=
            static_cast<int32_t>(&cl - footer.clusters.data())) {
          return Status::ParseError("columnar footer: cluster/block link");
        }
        rows_in_blocks += footer.blocks[b].row_count;
      }
      if (rows_in_blocks != cl.row_count) {
        return Status::ParseError("columnar footer: cluster row count");
      }
      next_block += cl.num_blocks;
      row += cl.row_count;
    }
    if (next_block != static_cast<int64_t>(footer.blocks.size()) ||
        row != footer.num_rows) {
      return Status::ParseError("columnar footer: clusters do not tile");
    }
  } else if (!footer.clusters.empty()) {
    return Status::ParseError("columnar footer: clusters without ordering");
  }
  footer.columns.resize(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    const TypeKind type = footer.schema.column(static_cast<int>(c)).type;
    footer.columns[c].resize(nblocks);
    for (uint32_t b = 0; b < nblocks; ++b) {
      ColumnBlockMeta& m = footer.columns[c][b];
      SQLTS_ASSIGN_OR_RETURN(uint8_t enc, r.ReadU8());
      if (enc > static_cast<uint8_t>(BlockEncoding::kDict)) {
        return Status::ParseError("columnar footer: bad encoding");
      }
      m.encoding = static_cast<BlockEncoding>(enc);
      SQLTS_ASSIGN_OR_RETURN(m.offset, r.ReadU64());
      SQLTS_ASSIGN_OR_RETURN(m.size, r.ReadU64());
      SQLTS_ASSIGN_OR_RETURN(m.checksum, r.ReadU64());
      SQLTS_ASSIGN_OR_RETURN(m.sketch.null_count, r.ReadI64());
      SQLTS_ASSIGN_OR_RETURN(m.sketch.min, r.ReadValue());
      SQLTS_ASSIGN_OR_RETURN(m.sketch.max, r.ReadValue());
      SQLTS_ASSIGN_OR_RETURN(m.sketch.bloom, r.ReadString());
      if (m.offset < kColumnarHeaderSize || m.size > file_size ||
          m.offset + m.size > file_size ||
          m.sketch.null_count < 0 ||
          m.sketch.null_count > footer.blocks[b].row_count ||
          (!m.sketch.bloom.empty() &&
           m.sketch.bloom.size() != kColBloomBytes)) {
        return Status::ParseError("columnar footer: bad block extent");
      }
      // A column's blocks lie back to back in block order (the writer's
      // layout), so the reader fetches any block range in one read.
      if (b > 0 && m.offset != footer.columns[c][b - 1].offset +
                                   footer.columns[c][b - 1].size) {
        return Status::ParseError("columnar footer: blocks not back to back");
      }
      // Zone values must be NULL or match the column type; anything else
      // would let a corrupted footer feed the skipping oracle garbage.
      if ((!m.sketch.min.is_null() && m.sketch.min.kind() != type) ||
          (!m.sketch.max.is_null() && m.sketch.max.kind() != type) ||
          m.sketch.min.is_null() != m.sketch.max.is_null()) {
        return Status::ParseError("columnar footer: bad zone map");
      }
    }
  }
  if (r.remaining() != 0) {
    return Status::ParseError("columnar footer: trailing bytes");
  }
  return footer;
}

}  // namespace sqlts
