#include "types/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/connection.h"
#include "storage/column_codes.h"
#include "storage/table.h"
#include "types/date.h"

namespace prefsql {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), ValueType::kBool);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Text("hi").AsText(), "hi");
  EXPECT_EQ(Value::Date(10775).AsDateDays(), 10775);
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_EQ(Value::Int(3).AsDouble(), 3.0);
  EXPECT_EQ(Value::Double(3.9).AsInt(), 3);  // truncation
  EXPECT_TRUE(Value::Int(1).is_numeric());
  EXPECT_TRUE(Value::Date(0).is_numeric());
  EXPECT_FALSE(Value::Text("x").is_numeric());
}

TEST(ValueTest, ToNumericParsesDateText) {
  auto n = Value::Text("1999/7/3").ToNumeric();
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 10775.0);
  EXPECT_FALSE(Value::Text("hello").ToNumeric().has_value());
  EXPECT_FALSE(Value::Null().ToNumeric().has_value());
  EXPECT_FALSE(Value::Bool(true).ToNumeric().has_value());
}

TEST(ValueTest, SqlEqualsThreeValued) {
  EXPECT_FALSE(Value::Null().SqlEquals(Value::Int(1)).has_value());
  EXPECT_FALSE(Value::Int(1).SqlEquals(Value::Null()).has_value());
  EXPECT_EQ(Value::Int(3).SqlEquals(Value::Double(3.0)), true);
  EXPECT_EQ(Value::Int(3).SqlEquals(Value::Int(4)), false);
  EXPECT_EQ(Value::Text("a").SqlEquals(Value::Text("a")), true);
  EXPECT_EQ(Value::Text("a").SqlEquals(Value::Text("A")), false);
  // Cross-kind equality is plain false (not unknown).
  EXPECT_EQ(Value::Int(1).SqlEquals(Value::Text("1")), false);
  EXPECT_EQ(Value::Bool(true).SqlEquals(Value::Int(1)), false);
}

TEST(ValueTest, DateTextEquality) {
  Value d = Value::Date(10775);
  EXPECT_EQ(d.SqlEquals(Value::Text("1999/7/3")), true);
  EXPECT_EQ(Value::Text("1999-07-03").SqlEquals(d), true);
  EXPECT_EQ(d.SqlEquals(Value::Text("1999/7/4")), false);
}

TEST(ValueTest, SqlLess) {
  EXPECT_EQ(Value::Int(1).SqlLess(Value::Int(2)), true);
  EXPECT_EQ(Value::Int(2).SqlLess(Value::Int(1)), false);
  EXPECT_EQ(Value::Double(1.5).SqlLess(Value::Int(2)), true);
  EXPECT_EQ(Value::Text("a").SqlLess(Value::Text("b")), true);
  EXPECT_FALSE(Value::Null().SqlLess(Value::Int(1)).has_value());
  // Text vs int is unknown, not an order.
  EXPECT_FALSE(Value::Text("a").SqlLess(Value::Int(1)).has_value());
  // Dates order by day number.
  EXPECT_EQ(Value::Date(10).SqlLess(Value::Date(11)), true);
}

TEST(ValueTest, TotalOrderCompare) {
  // NULL < BOOL < numeric < TEXT.
  EXPECT_LT(Value::Compare(Value::Null(), Value::Bool(false)), 0);
  EXPECT_LT(Value::Compare(Value::Bool(true), Value::Int(0)), 0);
  EXPECT_LT(Value::Compare(Value::Int(999), Value::Text("")), 0);
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
  EXPECT_EQ(Value::Compare(Value::Int(3), Value::Double(3.0)), 0);
  EXPECT_GT(Value::Compare(Value::Text("b"), Value::Text("a")), 0);
}

TEST(ValueTest, IdentityEqualsTreatsNullsEqual) {
  EXPECT_TRUE(Value::Null().IdentityEquals(Value::Null()));
  EXPECT_TRUE(Value::Int(2).IdentityEquals(Value::Double(2.0)));
  EXPECT_FALSE(Value::Int(2).IdentityEquals(Value::Int(3)));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Bool(false).ToString(), "FALSE");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Double(40000.0).ToString(), "40000");  // integral doubles
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Text("x").ToString(), "x");
  EXPECT_EQ(Value::Date(10775).ToString(), "1999-07-03");
}

TEST(ValueTest, ToSqlLiteral) {
  EXPECT_EQ(Value::Text("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value::Int(3).ToSqlLiteral(), "3");
  EXPECT_EQ(Value::Date(10775).ToSqlLiteral(), "DATE '1999-07-03'");
  EXPECT_EQ(Value::Null().ToSqlLiteral(), "NULL");
}

TEST(ValueTest, HashConsistentWithIdentity) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
  EXPECT_EQ(Value::Text("abc").Hash(), Value::Text("abc").Hash());
}

TEST(ValueTest, RowHelpers) {
  Row a{Value::Int(1), Value::Text("x")};
  Row b{Value::Int(1), Value::Text("x")};
  Row c{Value::Int(1), Value::Text("y")};
  EXPECT_TRUE(RowsIdentityEqual(a, b));
  EXPECT_FALSE(RowsIdentityEqual(a, c));
  EXPECT_FALSE(RowsIdentityEqual(a, Row{Value::Int(1)}));
  EXPECT_EQ(HashRow(a), HashRow(b));
}

// -- Ownership (the 16-byte layout is static_asserted in value.h) ----------

// Everything observable about a value, parameter fields included.
std::string Describe(const Value& v) {
  std::string out = std::string(ValueTypeToString(v.type())) + " " +
                    v.ToSqlLiteral();
  if (v.is_param()) {
    out += " #" + std::to_string(v.ParamIndex()) + " '" + v.ParamName() + "'";
  }
  return out;
}

// One value of each of the seven types (a TEXT past the small-string
// buffer, a named PARAM).
std::vector<Value> OneOfEachType() {
  return {Value::Null(),
          Value::Bool(true),
          Value::Int(-42),
          Value::Double(2.5),
          Value::Text("a text longer than any small-string buffer"),
          Value::Date(10775),
          Value::Param(3, "price")};
}

TEST(ValueOwnershipTest, CopyMoveAndAssignEveryType) {
  for (const Value& original : OneOfEachType()) {
    const std::string want = Describe(original);
    SCOPED_TRACE(want);

    Value copy(original);
    EXPECT_EQ(Describe(copy), want);
    EXPECT_EQ(Describe(original), want);

    Value moved(std::move(copy));
    EXPECT_EQ(Describe(moved), want);
    EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)

    Value assigned = Value::Text("overwritten");
    assigned = original;
    EXPECT_EQ(Describe(assigned), want);

    Value move_assigned = Value::Param(0);
    move_assigned = std::move(assigned);
    EXPECT_EQ(Describe(move_assigned), want);
    EXPECT_TRUE(assigned.is_null());  // NOLINT(bugprone-use-after-move)

    Value self = original;
    const Value& alias = self;
    self = alias;
    EXPECT_EQ(Describe(self), want);
    Value& move_alias = self;
    self = std::move(move_alias);
    EXPECT_EQ(Describe(self), want);

    Value other = Value::Text("other");
    std::swap(self, other);
    EXPECT_EQ(Describe(self), "TEXT 'other'");
    EXPECT_EQ(Describe(other), want);
  }
}

TEST(ValueOwnershipTest, CopiesShareTextAndSurviveTheOriginal) {
  auto original = std::make_unique<Value>(Value::Text("shared bytes"));
  Value copy = *original;
  EXPECT_EQ(&copy.AsText(), &original->AsText());  // one box, two holders
  original.reset();
  EXPECT_EQ(copy.AsText(), "shared bytes");
}

TEST(ValueOwnershipTest, AsTextStaysValidWhileItsRowReallocates) {
  Row row{Value::Int(1), Value::Text("short"),
          Value::Text("a text longer than any small-string buffer")};
  const std::string& short_text = row[1].AsText();
  const std::string& long_text = row[2].AsText();
  for (int i = 0; i < 1000; ++i) row.push_back(Value::Int(i));
  EXPECT_EQ(&row[1].AsText(), &short_text);
  EXPECT_EQ(&row[2].AsText(), &long_text);
  EXPECT_EQ(short_text, "short");
  EXPECT_EQ(long_text, "a text longer than any small-string buffer");
}

// Compare/Hash/ToString/ToSqlLiteral over one value of each type: the
// renderings, hashes and order that goldens, indexes and hash operators
// rely on.
TEST(ValueOwnershipTest, RenderingHashAndOrderTable) {
  // Ascending under Compare: NULL < BOOL < numeric < TEXT < PARAM.
  const std::vector<Value> ascending = {
      Value::Null(),    Value::Bool(false),     Value::Double(2.5),
      Value::Int(7),    Value::Date(10775),     Value::Text("it's"),
      Value::Param(1, "p")};
  struct Expected {
    const char* str;
    const char* literal;
    size_t hash;
  };
  const Expected expected[] = {
      {"NULL", "NULL", 0x9e3779b97f4a7c15ULL},
      {"FALSE", "FALSE", 1},
      {"2.5", "2.5", std::hash<double>{}(2.5)},
      {"7", "7", std::hash<double>{}(7.0)},
      {"1999-07-03", "DATE '1999-07-03'", std::hash<double>{}(10775.0)},
      {"it's", "'it''s'", std::hash<std::string>{}("it's")},
      {"$p", "$p", 0x517cc1b727220a95ULL ^ 1},
  };
  for (size_t i = 0; i < ascending.size(); ++i) {
    SCOPED_TRACE(expected[i].str);
    EXPECT_EQ(ascending[i].ToString(), expected[i].str);
    EXPECT_EQ(ascending[i].ToSqlLiteral(), expected[i].literal);
    EXPECT_EQ(ascending[i].Hash(), expected[i].hash);
    for (size_t j = 0; j < ascending.size(); ++j) {
      const int want = i < j ? -1 : (i > j ? 1 : 0);
      EXPECT_EQ(Value::Compare(ascending[i], ascending[j]), want) << j;
    }
  }
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Bool(true).Hash(), 2u);
  EXPECT_EQ(Value::Param(0).ToString(), "?");
  EXPECT_EQ(Value::Double(40000.0).ToSqlLiteral(), "40000");
}

TEST(ValueDeathTest, WrongTypeAccessorTerminatesWithAMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(Value::Int(1).AsText(),
               "Value::AsText\\(\\) called on a INTEGER value");
  EXPECT_DEATH(Value::Text("x").AsBool(),
               "Value::AsBool\\(\\) called on a TEXT value");
  EXPECT_DEATH(Value::Null().ParamIndex(),
               "Value::ParamIndex\\(\\) called on a NULL value");
}

// -- Exact numeric comparison -----------------------------------------------

constexpr int64_t kTwo53 = int64_t{1} << 53;

TEST(ValueExactCompareTest, IntegersAboveTwoTo53) {
  const Value lo = Value::Int(kTwo53), hi = Value::Int(kTwo53 + 1);
  EXPECT_EQ(hi.SqlEquals(lo), false);
  EXPECT_EQ(hi.SqlLess(lo), false);
  EXPECT_EQ(lo.SqlLess(hi), true);
  EXPECT_EQ(Value::Compare(lo, hi), -1);
  EXPECT_EQ(Value::Compare(hi, lo), 1);
  // INT against DATE compares as int64 too.
  EXPECT_EQ(Value::Compare(Value::Date(kTwo53 + 1), lo), 1);
  EXPECT_EQ(Value::Date(kTwo53).SqlEquals(lo), true);
}

TEST(ValueExactCompareTest, IntAgainstDoubleIsExact) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  const double two63 = 9223372036854775808.0;
  struct Case {
    Value a, b;
    int want;
  };
  const Case cases[] = {
      {Value::Int(kTwo53 + 1), Value::Double(9007199254740992.0), 1},
      {Value::Int(kTwo53), Value::Double(9007199254740992.0), 0},
      {Value::Int(max), Value::Double(two63), -1},
      {Value::Int(min), Value::Double(-two63), 0},
      {Value::Int(min), Value::Double(-two63 * 2), 1},
      {Value::Int(3), Value::Double(3.5), -1},
      {Value::Int(4), Value::Double(3.5), 1},
      {Value::Int(-3), Value::Double(-3.5), 1},
      {Value::Int(0), Value::Double(-0.5), 1},
      {Value::Int(0), Value::Double(-0.0), 0},
      {Value::Int(5), Value::Double(std::numeric_limits<double>::infinity()),
       -1},
      {Value::Date(10775), Value::Double(10775.25), -1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.a.ToString() + " vs " + c.b.ToString());
    EXPECT_EQ(Value::Compare(c.a, c.b), c.want);
    EXPECT_EQ(Value::Compare(c.b, c.a), -c.want);
    EXPECT_EQ(c.a.SqlEquals(c.b), c.want == 0);
    EXPECT_EQ(c.a.SqlLess(c.b), c.want < 0);
    EXPECT_EQ(c.b.SqlLess(c.a), c.want > 0);
    // Exactly equal values hash alike (Hash stays double-based).
    if (c.want == 0) {
      EXPECT_EQ(c.a.Hash(), c.b.Hash());
    }
  }
}

TEST(ValueExactCompareTest, NanKeepsItsBehaviour) {
  const Value nan = Value::Double(std::nan(""));
  for (const Value& x : {Value::Int(1), Value::Double(1.0), Value::Date(1),
                         nan}) {
    EXPECT_EQ(Value::Compare(nan, x), 0);
    EXPECT_EQ(Value::Compare(x, nan), 0);
    EXPECT_EQ(nan.SqlEquals(x), false);
    EXPECT_EQ(x.SqlEquals(nan), false);
    EXPECT_EQ(nan.SqlLess(x), false);
    EXPECT_EQ(x.SqlLess(nan), false);
  }
}

TEST(ValueExactCompareTest, CompareIsAStrictWeakOrderingNearTwoTo53) {
  std::vector<Value> values;
  for (int64_t d = -2; d <= 2; ++d) {
    values.push_back(Value::Int(kTwo53 + d));
    values.push_back(Value::Double(static_cast<double>(kTwo53 + d)));
    values.push_back(Value::Date(kTwo53 + d));
  }
  values.push_back(Value::Double(static_cast<double>(kTwo53) - 0.5));
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(Value::Compare(a, b), -Value::Compare(b, a));
      for (const Value& c : values) {
        if (Value::Compare(a, b) <= 0 && Value::Compare(b, c) <= 0) {
          EXPECT_LE(Value::Compare(a, c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
}

// -- Shared boxes across threads (this suite runs in the CI TSan job) -------

TEST(ValueConcurrencyTest, ThreadsCopyAndDropSharedTextCells) {
  Connection conn;
  ASSERT_TRUE(conn.Execute("CREATE TABLE t (id INTEGER, name TEXT, tag TEXT)")
                  .ok());
  ASSERT_TRUE(conn.Execute("INSERT INTO t VALUES (1, 'alpha', 'x'), "
                           "(2, 'beta', 'y'), (3, 'alpha', 'z')")
                  .ok());
  auto table = conn.database().catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  const Table* t = *table;
  const Row& shared = t->heap().row(0);
  const size_t rows = t->heap_size();
  constexpr int kThreads = 4, kRounds = 10000;
  std::vector<std::thread> threads;
  std::vector<int> good_rounds(kThreads, 0);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      std::vector<uint8_t> truth;
      for (int round = 0; round < kRounds; ++round) {
        Row copy = shared;                 // one more holder per TEXT cell
        Value cell = copy[1];
        Value moved = std::move(copy[2]);  // steals; dropped with `moved`
        // The dictionary entries share the heap cells' boxes.
        const ColumnCodes* codes = t->CodesFor(
            1, rows,
            [](const Value& v) {
              Value entry = v;
              return entry.AsText() == "alpha";
            },
            &truth);
        const bool ok = codes != nullptr && truth == std::vector<uint8_t>{1, 0} &&
                        cell.AsText() == "alpha" && moved.AsText() == "x";
        good_rounds[w] += ok ? 1 : 0;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int good : good_rounds) EXPECT_EQ(good, kRounds);
  EXPECT_EQ(shared[1].AsText(), "alpha");
  EXPECT_EQ(shared[2].AsText(), "x");
}

TEST(ColumnTypeTest, ParseColumnTypeAliases) {
  EXPECT_EQ(ParseColumnType("INT"), ColumnType::kInt);
  EXPECT_EQ(ParseColumnType("integer"), ColumnType::kInt);
  EXPECT_EQ(ParseColumnType("VARCHAR"), ColumnType::kText);
  EXPECT_EQ(ParseColumnType("REAL"), ColumnType::kDouble);
  EXPECT_EQ(ParseColumnType("bool"), ColumnType::kBool);
  EXPECT_EQ(ParseColumnType("DATE"), ColumnType::kDate);
  EXPECT_FALSE(ParseColumnType("BLOB").has_value());
}

}  // namespace
}  // namespace prefsql
