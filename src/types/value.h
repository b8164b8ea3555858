#ifndef SQLTS_TYPES_VALUE_H_
#define SQLTS_TYPES_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/statusor.h"
#include "types/date.h"

namespace sqlts {

/// Physical type of a column or value.
enum class TypeKind : uint8_t {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
  kDate,
};

/// Human-readable type name ("INT64", "DOUBLE", ...).
std::string_view TypeKindToString(TypeKind kind);

/// Parses a type name (case-insensitive, accepts SQL aliases such as
/// INTEGER and VARCHAR).
StatusOr<TypeKind> TypeKindFromString(std::string_view name);

/// A dynamically typed SQL value.  NULL is a distinct value; comparisons
/// involving NULL yield "unknown" which callers treat as not-satisfied.
class Value {
 public:
  /// Constructs NULL.
  Value() : v_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(std::in_place_type<bool>, b); }
  static Value Int64(int64_t i) {
    return Value(std::in_place_type<int64_t>, i);
  }
  static Value Double(double d) { return Value(std::in_place_type<double>, d); }
  static Value String(std::string s) {
    return Value(std::in_place_type<std::string>, std::move(s));
  }
  static Value FromDate(Date d) { return Value(std::in_place_type<Date>, d); }

  /// The payload's alternatives are declared in TypeKind order.
  TypeKind kind() const { return static_cast<TypeKind>(v_.index()); }

  bool is_null() const { return kind() == TypeKind::kNull; }
  bool is_numeric() const {
    TypeKind k = kind();
    return k == TypeKind::kInt64 || k == TypeKind::kDouble;
  }

  /// Typed accessors; it is a checked error to call the wrong one.
  bool bool_value() const;
  int64_t int64_value() const;
  double double_value() const;
  const std::string& string_value() const;
  Date date_value() const;

  /// Numeric view: int64 and double both convert; dates convert to their
  /// day number (so dates can participate in arithmetic like the paper's
  /// SEQUENCE BY ordering).  Checked error for other kinds.
  double AsDouble() const;

  /// Three-way comparison following SQL semantics within a type family;
  /// numerics compare cross-type.  Returns TypeError for incomparable
  /// kinds and InvalidArgument when either side is NULL.
  StatusOr<int> Compare(const Value& other) const;

  /// Structural equality (NULL == NULL here, unlike SQL `=`); suitable
  /// for tests and container use.
  bool StructurallyEquals(const Value& other) const;

  /// Inline variant peeks for batch code (the vectorized kernels read
  /// two cells per lane; the checked accessors above are out-of-line
  /// and verify the kind twice).  Non-null iff the payload holds
  /// exactly that alternative; a mismatch is the caller's decision,
  /// not an error.
  const bool* bool_if() const { return std::get_if<bool>(&v_); }
  const int64_t* int64_if() const { return std::get_if<int64_t>(&v_); }
  const double* double_if() const { return std::get_if<double>(&v_); }
  const Date* date_if() const { return std::get_if<Date>(&v_); }
  const std::string* string_if() const {
    return std::get_if<std::string>(&v_);
  }
  bool holds_null() const { return std::holds_alternative<std::monostate>(v_); }

  /// Renders the value for display ("NULL", 42, 3.5, 'abc', 1999-01-25).
  std::string ToString() const;

  /// Parses `text` as a value of `kind`.
  static StatusOr<Value> ParseAs(TypeKind kind, std::string_view text);

 private:
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string, Date>;
  static_assert(std::is_same_v<std::variant_alternative_t<
                     static_cast<size_t>(TypeKind::kDate), Payload>,
                 Date>);
  /// Builds the alternative in place.  Moving a temporary Payload into
  /// v_ instead makes GCC 12 (-O2 with ASan) report its std::string
  /// member as maybe-uninitialized, a false positive.
  template <typename T>
  Value(std::in_place_type_t<T> type, T x) : v_(type, std::move(x)) {}

  Payload v_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace sqlts

#endif  // SQLTS_TYPES_VALUE_H_
