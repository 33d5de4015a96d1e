// Dynamically typed SQL value.
//
// The engine is dynamically typed like SQLite: every cell holds a Value and
// operators coerce between the numeric types. NULL follows SQL three-valued
// logic; comparison helpers therefore return std::optional<bool> where
// nullopt means UNKNOWN.

#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace prefsql {

/// Runtime type tag of a Value.
enum class ValueType {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kText,
  kDate,   ///< day number (days since 1970-01-01), prints as YYYY-MM-DD
  kParam,  ///< unbound statement parameter ('?' / '$name'); never executed
};

/// Declared column types accepted by CREATE TABLE.
enum class ColumnType { kInt, kDouble, kText, kBool, kDate };

/// Name of a ValueType ("NULL", "INTEGER", ...).
const char* ValueTypeToString(ValueType t);

/// Parses a CREATE TABLE type name (INTEGER/INT, DOUBLE/REAL/FLOAT/NUMERIC,
/// TEXT/VARCHAR/CHAR/STRING, BOOLEAN/BOOL, DATE).
std::optional<ColumnType> ParseColumnType(const std::string& name);

/// One SQL value: NULL, boolean, 64-bit integer, double, text, or date.
///
/// 16 bytes: an 8-byte payload (bool, int64, double, day number, or a
/// pointer to a Box) and a one-byte type tag. TEXT bytes and a PARAM's
/// index and name live out of line in an immutable, reference-counted Box,
/// so a copy of a TEXT value shares its bytes. Rows are read by many
/// sessions at once, so the count is atomic; a move steals the pointer and
/// leaves NULL behind.
class Value {
 public:
  /// NULL value.
  Value() noexcept : bits_{0}, tag_(kNullTag) {}
  ~Value() { Unref(); }
  Value(const Value& other) noexcept : bits_(other.bits_), tag_(other.tag_) {
    Ref();
  }
  Value(Value&& other) noexcept : bits_(other.bits_), tag_(other.tag_) {
    other.tag_ = kNullTag;
  }
  Value& operator=(const Value& other) noexcept {
    other.Ref();  // before Unref: safe under self-assignment
    Unref();
    bits_ = other.bits_;
    tag_ = other.tag_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Unref();
      bits_ = other.bits_;
      tag_ = other.tag_;
      other.tag_ = kNullTag;
    }
    return *this;
  }

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v(ValueType::kBool);
    v.bits_.b = b;
    return v;
  }
  static Value Int(int64_t i) {
    Value v(ValueType::kInt);
    v.bits_.i = i;
    return v;
  }
  static Value Double(double d) {
    Value v(ValueType::kDouble);
    v.bits_.d = d;
    return v;
  }
  static Value Text(std::string s);
  /// A date from its day number (see types/date.h).
  static Value Date(int64_t day_number) {
    Value v(ValueType::kDate);
    v.bits_.i = day_number;
    return v;
  }
  /// An unbound statement parameter: the hole left by a `?` or `$name`
  /// placeholder (0-based ordinal; name empty for positional parameters).
  /// Parameter values only live inside ASTs — binding replaces them before
  /// execution, and every execution path rejects leftovers with a
  /// kBindError.
  static Value Param(int32_t index, std::string name = std::string());

  ValueType type() const { return static_cast<ValueType>(tag_); }
  bool is_null() const { return tag_ == kNullTag; }
  bool is_param() const { return type() == ValueType::kParam; }
  bool is_numeric() const {
    ValueType t = type();
    return t == ValueType::kInt || t == ValueType::kDouble ||
           t == ValueType::kDate;
  }

  /// Accessors; each requires the matching type(). A mismatch is a bug in
  /// the caller: it terminates the program with a message naming both.
  bool AsBool() const {
    Require(ValueType::kBool, "AsBool");
    return bits_.b;
  }
  /// INT, or DOUBLE truncated toward zero.
  int64_t AsInt() const {
    if (type() == ValueType::kDouble) return static_cast<int64_t>(bits_.d);
    Require(ValueType::kInt, "AsInt");
    return bits_.i;
  }
  /// DOUBLE, or INT / DATE converted.
  double AsDouble() const {
    if (type() == ValueType::kDouble) return bits_.d;
    if (type() != ValueType::kDate) Require(ValueType::kInt, "AsDouble");
    return static_cast<double>(bits_.i);
  }
  const std::string& AsText() const {
    Require(ValueType::kText, "AsText");
    return bits_.box->str;
  }
  int64_t AsDateDays() const {
    Require(ValueType::kDate, "AsDateDays");
    return bits_.i;
  }
  /// 0-based ordinal of a parameter value; requires is_param().
  int32_t ParamIndex() const {
    Require(ValueType::kParam, "ParamIndex");
    return bits_.box->param_index;
  }
  /// Name of a named parameter ("" for positional); requires is_param().
  const std::string& ParamName() const {
    Require(ValueType::kParam, "ParamName");
    return bits_.box->str;
  }

  /// Numeric view used by arithmetic and distance computations: INT, DOUBLE
  /// and DATE produce their numeric magnitude; TEXT that parses as a date
  /// produces its day number (so `start_day AROUND '1999/7/3'` works on TEXT
  /// columns); everything else is nullopt.
  std::optional<double> ToNumeric() const;

  /// SQL equality under three-valued logic (NULL ⇒ UNKNOWN). Numeric types
  /// compare exactly by value across INT/DOUBLE/DATE; TEXT compares
  /// case-sensitively; BOOL compares with BOOL only; cross-kind comparisons
  /// are false.
  std::optional<bool> SqlEquals(const Value& other) const;

  /// SQL `<` under three-valued logic; same coercion rules as SqlEquals.
  /// Cross-kind comparisons yield UNKNOWN.
  std::optional<bool> SqlLess(const Value& other) const;

  /// Total ordering for ORDER BY / GROUP BY / DISTINCT and index keys:
  /// NULL < BOOL < numeric < TEXT; deterministic across kinds (unlike the
  /// SQL comparisons, never "unknown"). Numbers order exactly (an int64
  /// above 2^53 against its neighbours and against a double); a NaN
  /// compares equal to every number.
  static int Compare(const Value& a, const Value& b);

  /// Exact equality under the total ordering (NULL equals NULL here).
  bool IdentityEquals(const Value& other) const {
    return Compare(*this, other) == 0;
  }

  /// SQL text rendering (NULL prints as "NULL", booleans as TRUE/FALSE,
  /// doubles trimmed, dates as YYYY-MM-DD).
  std::string ToString() const;

  /// Rendering as a SQL literal (TEXT quoted, DATE as DATE 'YYYY-MM-DD').
  std::string ToSqlLiteral() const;

  /// Hash consistent with IdentityEquals (for hash joins / grouping).
  size_t Hash() const;

 private:
  // The out-of-line part of a TEXT or PARAM value; immutable once shared.
  struct Box {
    std::atomic<uint32_t> refs;
    int32_t param_index;  // PARAM only
    std::string str;      // TEXT bytes, or a PARAM's name
  };
  union Bits {
    int64_t i;  // INT, or a DATE's day number
    bool b;
    double d;
    Box* box;  // TEXT, PARAM
  };
  static constexpr uint8_t kNullTag = static_cast<uint8_t>(ValueType::kNull);

  explicit Value(ValueType t) : bits_{0}, tag_(static_cast<uint8_t>(t)) {}

  bool boxed() const {
    return tag_ == static_cast<uint8_t>(ValueType::kText) ||
           tag_ == static_cast<uint8_t>(ValueType::kParam);
  }
  void Ref() const {
    if (boxed()) bits_.box->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Unref() {
    if (boxed()) Release(bits_.box);
  }
  static void Release(Box* box);
  void Require(ValueType t, const char* accessor) const {
    if (type() != t) WrongType(accessor);
  }
  [[noreturn]] void WrongType(const char* accessor) const;

  Bits bits_;
  uint8_t tag_;  // a ValueType
};

static_assert(sizeof(Value) == 16, "a Value is a tag plus an 8-byte payload");

/// -v for a numeric `v`: an INT stays an INT, except INT64_MIN, whose
/// negation is no int64 and becomes the DOUBLE 2^63 (as in SQLite); DOUBLE
/// and DATE negate as DOUBLE.
Value NegateNumeric(const Value& v);

/// A tuple: one Value per column of the owning schema.
using Row = std::vector<Value>;

/// Hash of a full row (grouping keys, hash join keys).
size_t HashRow(const Row& row);

/// Hash of the first `width` values of a row (DISTINCT over the visible
/// columns while hidden sort keys trail behind).
size_t HashRowPrefix(const Row& row, size_t width);

/// Identity comparison of two rows (same arity assumed).
bool RowsIdentityEqual(const Row& a, const Row& b);

/// Identity comparison of the first `width` values (both rows must have at
/// least `width` columns).
bool RowPrefixIdentityEqual(const Row& a, const Row& b, size_t width);

}  // namespace prefsql
