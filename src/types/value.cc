#include "types/value.h"

#include <charconv>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"
#include "types/numeric_ops.h"

namespace sqlts {

std::string_view TypeKindToString(TypeKind kind) {
  switch (kind) {
    case TypeKind::kNull:
      return "NULL";
    case TypeKind::kBool:
      return "BOOL";
    case TypeKind::kInt64:
      return "INT64";
    case TypeKind::kDouble:
      return "DOUBLE";
    case TypeKind::kString:
      return "STRING";
    case TypeKind::kDate:
      return "DATE";
  }
  return "?";
}

StatusOr<TypeKind> TypeKindFromString(std::string_view name) {
  std::string up = ToUpper(name);
  if (up == "BOOL" || up == "BOOLEAN") return TypeKind::kBool;
  if (up == "INT64" || up == "INT" || up == "INTEGER" || up == "BIGINT") {
    return TypeKind::kInt64;
  }
  if (up == "DOUBLE" || up == "FLOAT" || up == "REAL" || up == "NUMERIC") {
    return TypeKind::kDouble;
  }
  if (up == "STRING" || up == "TEXT" || StartsWith(up, "VARCHAR") ||
      StartsWith(up, "CHAR")) {
    return TypeKind::kString;
  }
  if (up == "DATE") return TypeKind::kDate;
  return Status::InvalidArgument("unknown type name: '" + std::string(name) +
                                 "'");
}

bool Value::bool_value() const {
  SQLTS_CHECK(kind() == TypeKind::kBool) << "not a bool: " << ToString();
  return std::get<bool>(v_);
}

int64_t Value::int64_value() const {
  SQLTS_CHECK(kind() == TypeKind::kInt64) << "not an int64: " << ToString();
  return std::get<int64_t>(v_);
}

double Value::double_value() const {
  SQLTS_CHECK(kind() == TypeKind::kDouble) << "not a double: " << ToString();
  return std::get<double>(v_);
}

const std::string& Value::string_value() const {
  SQLTS_CHECK(kind() == TypeKind::kString) << "not a string: " << ToString();
  return std::get<std::string>(v_);
}

Date Value::date_value() const {
  SQLTS_CHECK(kind() == TypeKind::kDate) << "not a date: " << ToString();
  return std::get<Date>(v_);
}

double Value::AsDouble() const {
  switch (kind()) {
    case TypeKind::kInt64:
      return static_cast<double>(std::get<int64_t>(v_));
    case TypeKind::kDouble:
      return std::get<double>(v_);
    case TypeKind::kDate:
      return static_cast<double>(std::get<Date>(v_).days_since_epoch());
    default:
      SQLTS_CHECK(false) << "AsDouble on non-numeric value: " << ToString();
  }
  return 0.0;
}

StatusOr<int> Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    return Status::InvalidArgument("comparison with NULL");
  }
  TypeKind a = kind(), b = other.kind();
  if (is_numeric() && other.is_numeric()) {
    // Mixed int64/double comparisons are exact for the full int64
    // range (no coercion through double, which is lossy above 2^53),
    // and doubles compare under a NaN-aware total order.  See
    // types/numeric_ops.h — the vectorized kernels use the same
    // helpers, so both evaluation tiers agree by construction.
    if (a == TypeKind::kInt64 && b == TypeKind::kInt64) {
      int64_t x = int64_value(), y = other.int64_value();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    if (a == TypeKind::kInt64) {
      return num::CompareI64F64(int64_value(), other.double_value());
    }
    if (b == TypeKind::kInt64) {
      return num::CompareF64I64(double_value(), other.int64_value());
    }
    return num::CompareF64(double_value(), other.double_value());
  }
  if (a != b) {
    return Status::TypeError(std::string("cannot compare ") +
                             std::string(TypeKindToString(a)) + " with " +
                             std::string(TypeKindToString(b)));
  }
  switch (a) {
    case TypeKind::kBool: {
      int x = bool_value() ? 1 : 0, y = other.bool_value() ? 1 : 0;
      return x - y;
    }
    case TypeKind::kString: {
      int c = string_value().compare(other.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeKind::kDate: {
      int32_t x = date_value().days_since_epoch(),
              y = other.date_value().days_since_epoch();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default:
      return Status::TypeError("incomparable kinds");
  }
}

bool Value::StructurallyEquals(const Value& other) const {
  if (kind() != other.kind()) {
    // Numeric cross-kind equality still counts as equal if the values
    // agree, so tests can compare Int64(3) with Double(3.0).
    if (is_numeric() && other.is_numeric()) {
      auto cmp = Compare(other);
      return cmp.ok() && *cmp == 0;
    }
    return false;
  }
  if (is_null()) return true;
  auto cmp = Compare(other);
  return cmp.ok() && *cmp == 0;
}

std::string Value::ToString() const {
  switch (kind()) {
    case TypeKind::kNull:
      return "NULL";
    case TypeKind::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case TypeKind::kInt64:
      return std::to_string(int64_value());
    case TypeKind::kDouble: {
      std::ostringstream os;
      os << double_value();
      return os.str();
    }
    case TypeKind::kString:
      return "'" + string_value() + "'";
    case TypeKind::kDate:
      return date_value().ToString();
  }
  return "?";
}

StatusOr<Value> Value::ParseAs(TypeKind kind, std::string_view text) {
  text = StripWhitespace(text);
  switch (kind) {
    case TypeKind::kNull:
      return Value::Null();
    case TypeKind::kBool: {
      if (EqualsIgnoreCase(text, "true") || text == "1") {
        return Value::Bool(true);
      }
      if (EqualsIgnoreCase(text, "false") || text == "0") {
        return Value::Bool(false);
      }
      return Status::ParseError("bad bool: '" + std::string(text) + "'");
    }
    case TypeKind::kInt64: {
      int64_t v = 0;
      auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                     v);
      if (ec != std::errc() || p != text.data() + text.size()) {
        return Status::ParseError("bad int64: '" + std::string(text) + "'");
      }
      return Value::Int64(v);
    }
    case TypeKind::kDouble: {
      // std::from_chars for double is not available everywhere; strtod via
      // a NUL-terminated copy is fine for CSV-sized inputs.
      std::string copy(text);
      char* end = nullptr;
      double v = std::strtod(copy.c_str(), &end);
      if (end != copy.c_str() + copy.size() || copy.empty()) {
        return Status::ParseError("bad double: '" + copy + "'");
      }
      return Value::Double(v);
    }
    case TypeKind::kString:
      return Value::String(std::string(text));
    case TypeKind::kDate: {
      SQLTS_ASSIGN_OR_RETURN(Date d, Date::Parse(text));
      return Value::FromDate(d);
    }
  }
  return Status::InvalidArgument("bad kind");
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace sqlts
