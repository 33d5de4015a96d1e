#include "types/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>

#include "types/date.h"
#include "util/string_util.h"

namespace prefsql {

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOLEAN";
    case ValueType::kInt:
      return "INTEGER";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kText:
      return "TEXT";
    case ValueType::kDate:
      return "DATE";
    case ValueType::kParam:
      return "PARAMETER";
  }
  return "?";
}

std::optional<ColumnType> ParseColumnType(const std::string& name) {
  std::string n = ToUpper(name);
  if (n == "INT" || n == "INTEGER" || n == "BIGINT" || n == "SMALLINT") {
    return ColumnType::kInt;
  }
  if (n == "DOUBLE" || n == "REAL" || n == "FLOAT" || n == "NUMERIC" ||
      n == "DECIMAL") {
    return ColumnType::kDouble;
  }
  if (n == "TEXT" || n == "VARCHAR" || n == "CHAR" || n == "STRING") {
    return ColumnType::kText;
  }
  if (n == "BOOLEAN" || n == "BOOL") return ColumnType::kBool;
  if (n == "DATE") return ColumnType::kDate;
  return std::nullopt;
}

Value Value::Text(std::string s) {
  Value v(ValueType::kText);
  v.bits_.box = new Box{{1}, 0, std::move(s)};
  return v;
}

Value Value::Param(int32_t index, std::string name) {
  Value v(ValueType::kParam);
  v.bits_.box = new Box{{1}, index, std::move(name)};
  return v;
}

Value NegateNumeric(const Value& v) {
  if (v.type() == ValueType::kInt &&
      v.AsInt() != std::numeric_limits<int64_t>::min()) {
    return Value::Int(-v.AsInt());
  }
  return Value::Double(-v.AsDouble());
}

void Value::Release(Box* box) {
  // A count of 1 means this value is the box's only holder: no other thread
  // holds a value to copy the box from, so the decrement can be skipped.
  if (box->refs.load(std::memory_order_acquire) == 1 ||
      box->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete box;
  }
}

void Value::WrongType(const char* accessor) const {
  std::fprintf(stderr, "prefsql: Value::%s() called on a %s value\n",
               accessor, ValueTypeToString(type()));
  std::abort();
}

std::optional<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kDate:
      return AsDouble();
    case ValueType::kText: {
      auto days = ParseDate(AsText());
      if (days) return static_cast<double>(*days);
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

namespace {

// Comparison kind buckets: values of the same bucket are comparable.
// Parameter placeholders never execute; they get a bucket of their own so
// the total ordering stays total if one slips into a sort.
enum class Kind { kNull, kBool, kNumeric, kText, kParam };

Kind KindOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return Kind::kNull;
    case ValueType::kBool:
      return Kind::kBool;
    case ValueType::kText:
      return Kind::kText;
    case ValueType::kParam:
      return Kind::kParam;
    default:
      return Kind::kNumeric;
  }
}

// CompareNumbers' answer when a NaN takes part.
constexpr int kUnordered = 2;

template <typename T>
int Sign(T x, T y) {
  return x < y ? -1 : (y < x ? 1 : 0);
}

// The integer of an INT or a DATE (its day number).
int64_t IntegralOf(const Value& v) {
  return v.type() == ValueType::kInt ? v.AsInt() : v.AsDateDays();
}

// Three-way order of an int64 and a double, exact for every pair: the
// int64 is never rounded through a double.
int CompareIntDouble(int64_t i, double d) {
  if (std::isnan(d)) return kUnordered;
  // 2^63; every double in [-2^63, 2^63) truncates to an int64.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  const double whole = std::trunc(d);
  const int64_t w = static_cast<int64_t>(whole);
  if (i != w) return i < w ? -1 : 1;
  return Sign(whole, d);  // same integer part: the fraction decides
}

// Three-way exact order of two numeric values (INT, DOUBLE, DATE);
// kUnordered when either is NaN.
int CompareNumbers(const Value& a, const Value& b) {
  const bool ad = a.type() == ValueType::kDouble;
  const bool bd = b.type() == ValueType::kDouble;
  if (!ad && !bd) return Sign(IntegralOf(a), IntegralOf(b));
  if (ad && bd) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return x == y ? 0 : (x < y ? -1 : (x > y ? 1 : kUnordered));
  }
  if (bd) return CompareIntDouble(IntegralOf(a), b.AsDouble());
  const int c = CompareIntDouble(IntegralOf(b), a.AsDouble());
  return c == kUnordered ? c : -c;
}

}  // namespace

std::optional<bool> Value::SqlEquals(const Value& other) const {
  if (is_null() || other.is_null()) return std::nullopt;
  Kind ka = KindOf(*this), kb = KindOf(other);
  if (ka != kb) {
    // TEXT vs DATE comparisons succeed when the text parses as a date; other
    // cross-kind comparisons are simply false (dynamic typing, SQLite-like).
    if ((type() == ValueType::kDate && other.type() == ValueType::kText) ||
        (type() == ValueType::kText && other.type() == ValueType::kDate)) {
      auto a = ToNumeric(), b = other.ToNumeric();
      if (a && b) return *a == *b;
    }
    return false;
  }
  switch (ka) {
    case Kind::kBool:
      return AsBool() == other.AsBool();
    case Kind::kNumeric:
      return CompareNumbers(*this, other) == 0;
    case Kind::kText:
      return AsText() == other.AsText();
    default:
      return std::nullopt;
  }
}

std::optional<bool> Value::SqlLess(const Value& other) const {
  if (is_null() || other.is_null()) return std::nullopt;
  Kind ka = KindOf(*this), kb = KindOf(other);
  if (ka != kb) {
    if ((type() == ValueType::kDate || other.type() == ValueType::kDate)) {
      auto a = ToNumeric(), b = other.ToNumeric();
      if (a && b) return *a < *b;
    }
    return std::nullopt;
  }
  switch (ka) {
    case Kind::kBool:
      return AsBool() < other.AsBool();
    case Kind::kNumeric:
      return CompareNumbers(*this, other) < 0;
    case Kind::kText:
      return AsText() < other.AsText();
    default:
      return std::nullopt;
  }
}

int Value::Compare(const Value& a, const Value& b) {
  Kind ka = KindOf(a), kb = KindOf(b);
  if (ka != kb) return static_cast<int>(ka) < static_cast<int>(kb) ? -1 : 1;
  switch (ka) {
    case Kind::kNull:
      return 0;
    case Kind::kBool:
      return Sign(a.AsBool(), b.AsBool());
    case Kind::kNumeric: {
      const int c = CompareNumbers(a, b);
      return c == kUnordered ? 0 : c;
    }
    case Kind::kText:
      return Sign(a.AsText().compare(b.AsText()), 0);
    case Kind::kParam:
      return Sign(a.ParamIndex(), b.ParamIndex());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return AsBool() ? "TRUE" : "FALSE";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      double d = AsDouble();
      if (std::abs(d) < 1e15 && d == static_cast<int64_t>(d)) {
        // Integral doubles print without trailing zeros (e.g. "40000").
        return std::to_string(static_cast<int64_t>(d));
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", d);
      return buf;
    }
    case ValueType::kText:
      return AsText();
    case ValueType::kDate:
      return FormatDate(AsDateDays());
    case ValueType::kParam:
      // Prints exactly as the placeholder was written, so ASTs containing
      // parameters round-trip through the printer and the parser.
      return ParamName().empty() ? "?" : "$" + ParamName();
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  switch (type()) {
    case ValueType::kText:
      return QuoteSqlString(AsText());
    case ValueType::kDate:
      return "DATE " + QuoteSqlString(FormatDate(AsDateDays()));
    default:
      return ToString();
  }
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kBool:
      return AsBool() ? 2 : 1;
    case ValueType::kText:
      return std::hash<std::string>{}(AsText());
    case ValueType::kParam:
      return 0x517cc1b727220a95ULL ^ static_cast<size_t>(ParamIndex());
    default:
      // All numeric kinds hash through double so INT 3, DOUBLE 3.0 and a date
      // with day number 3 collide consistently with IdentityEquals.
      return std::hash<double>{}(AsDouble());
  }
}

size_t HashRow(const Row& row) { return HashRowPrefix(row, row.size()); }

size_t HashRowPrefix(const Row& row, size_t width) {
  size_t h = 0;
  for (size_t i = 0; i < width && i < row.size(); ++i) {
    h = h * 1099511628211ULL + row[i].Hash();
  }
  return h;
}

bool RowsIdentityEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  return RowPrefixIdentityEqual(a, b, a.size());
}

bool RowPrefixIdentityEqual(const Row& a, const Row& b, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    if (!a[i].IdentityEquals(b[i])) return false;
  }
  return true;
}

}  // namespace prefsql
