#include "engine/evaluator.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace prefsql {
namespace {

// Evaluates a standalone expression against a fixed one-row scope.
Value Eval(const std::string& text) {
  static Schema schema = Schema::FromNames({"a", "b", "s", "n"});
  static Row row{Value::Int(10), Value::Double(2.5), Value::Text("hello"),
                 Value::Null()};
  auto e = ParseExpression(text);
  EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
  auto v = Evaluate(**e, EvalContext::For(schema, row));
  EXPECT_TRUE(v.ok()) << text << ": " << v.status().ToString();
  return std::move(v).value();
}

Status EvalError(const std::string& text) {
  static Schema schema = Schema::FromNames({"a"});
  static Row row{Value::Int(1)};
  auto e = ParseExpression(text);
  if (!e.ok()) return e.status();
  return Evaluate(**e, EvalContext::For(schema, row)).status();
}

TEST(EvaluatorTest, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3").AsInt(), 7);
  EXPECT_EQ(Eval("a - 4").AsInt(), 6);
  EXPECT_DOUBLE_EQ(Eval("b * 2").AsDouble(), 5.0);
  EXPECT_EQ(Eval("7 / 2").AsDouble(), 3.5);   // non-divisor -> double
  EXPECT_EQ(Eval("8 / 2").AsInt(), 4);        // exact -> int
  EXPECT_EQ(Eval("7 % 3").AsInt(), 1);
  EXPECT_EQ(Eval("-a").AsInt(), -10);
}

TEST(EvaluatorTest, DivisionByZeroYieldsNull) {
  EXPECT_TRUE(Eval("1 / 0").is_null());
  EXPECT_TRUE(Eval("1 % 0").is_null());
}

TEST(EvaluatorTest, NullPropagatesThroughArithmetic) {
  EXPECT_TRUE(Eval("n + 1").is_null());
  EXPECT_TRUE(Eval("n * 0").is_null());
  EXPECT_TRUE(Eval("-n").is_null());
  // Non-numeric text coerces to NULL under arithmetic (documented,
  // SQLite-flavored; the preference rewriter relies on it).
  EXPECT_TRUE(Eval("s + 1").is_null());
  EXPECT_TRUE(Eval("-s").is_null());
}

TEST(EvaluatorTest, Comparisons) {
  EXPECT_TRUE(Eval("a = 10").AsBool());
  EXPECT_TRUE(Eval("a <> 9").AsBool());
  EXPECT_TRUE(Eval("a >= 10").AsBool());
  EXPECT_FALSE(Eval("a < 10").AsBool());
  EXPECT_TRUE(Eval("s = 'hello'").AsBool());
  EXPECT_TRUE(Eval("n = 1").is_null());  // UNKNOWN
}

TEST(EvaluatorTest, ThreeValuedAndOr) {
  // FALSE AND UNKNOWN = FALSE; TRUE OR UNKNOWN = TRUE.
  EXPECT_FALSE(Eval("a < 0 AND n = 1").AsBool());
  EXPECT_TRUE(Eval("a > 0 OR n = 1").AsBool());
  // TRUE AND UNKNOWN = UNKNOWN; FALSE OR UNKNOWN = UNKNOWN.
  EXPECT_TRUE(Eval("a > 0 AND n = 1").is_null());
  EXPECT_TRUE(Eval("a < 0 OR n = 1").is_null());
  EXPECT_TRUE(Eval("NOT (n = 1)").is_null());
  EXPECT_FALSE(Eval("NOT (a = 10)").AsBool());
}

TEST(EvaluatorTest, InListWithNulls) {
  EXPECT_TRUE(Eval("a IN (1, 10)").AsBool());
  EXPECT_FALSE(Eval("a IN (1, 2)").AsBool());
  EXPECT_TRUE(Eval("a NOT IN (1, 2)").AsBool());
  // x IN (..NULL..) without match is UNKNOWN, with match TRUE.
  EXPECT_TRUE(Eval("a IN (1, n)").is_null());
  EXPECT_TRUE(Eval("a IN (10, n)").AsBool());
  EXPECT_TRUE(Eval("n IN (1, 2)").is_null());
}

TEST(EvaluatorTest, BetweenAndLike) {
  EXPECT_TRUE(Eval("a BETWEEN 5 AND 15").AsBool());
  EXPECT_FALSE(Eval("a BETWEEN 11 AND 15").AsBool());
  EXPECT_TRUE(Eval("a NOT BETWEEN 11 AND 15").AsBool());
  EXPECT_TRUE(Eval("n BETWEEN 1 AND 2").is_null());
  EXPECT_TRUE(Eval("s LIKE 'he%'").AsBool());
  EXPECT_TRUE(Eval("s LIKE '%ll%'").AsBool());
  EXPECT_TRUE(Eval("s LIKE 'h_llo'").AsBool());
  EXPECT_FALSE(Eval("s LIKE 'h_l'").AsBool());
  EXPECT_TRUE(Eval("s NOT LIKE 'x%'").AsBool());
}

TEST(EvaluatorTest, SqlLikeEdgeCases) {
  EXPECT_TRUE(SqlLike("", ""));
  EXPECT_TRUE(SqlLike("", "%"));
  EXPECT_FALSE(SqlLike("", "_"));
  EXPECT_TRUE(SqlLike("abc", "%%c"));
  EXPECT_TRUE(SqlLike("aXbXc", "a%b%c"));
  EXPECT_FALSE(SqlLike("ab", "a%bc"));
}

TEST(EvaluatorTest, IsNull) {
  EXPECT_TRUE(Eval("n IS NULL").AsBool());
  EXPECT_FALSE(Eval("a IS NULL").AsBool());
  EXPECT_TRUE(Eval("a IS NOT NULL").AsBool());
}

TEST(EvaluatorTest, CaseSearchedAndSimple) {
  EXPECT_EQ(Eval("CASE WHEN a = 10 THEN 'ten' ELSE 'other' END").AsText(),
            "ten");
  EXPECT_EQ(Eval("CASE WHEN a = 9 THEN 'nine' END").type(), ValueType::kNull);
  EXPECT_EQ(Eval("CASE a WHEN 9 THEN 'x' WHEN 10 THEN 'y' END").AsText(), "y");
  // UNKNOWN in WHEN is treated as not-matching.
  EXPECT_EQ(Eval("CASE WHEN n = 1 THEN 'x' ELSE 'z' END").AsText(), "z");
}

TEST(EvaluatorTest, ScalarFunctions) {
  EXPECT_EQ(Eval("ABS(-5)").AsInt(), 5);
  EXPECT_DOUBLE_EQ(Eval("ABS(0.0 - b)").AsDouble(), 2.5);
  EXPECT_EQ(Eval("LOWER('ABC')").AsText(), "abc");
  EXPECT_EQ(Eval("UPPER(s)").AsText(), "HELLO");
  EXPECT_EQ(Eval("LENGTH(s)").AsInt(), 5);
  EXPECT_EQ(Eval("COALESCE(n, n, 7)").AsInt(), 7);
  EXPECT_TRUE(Eval("COALESCE(n, n)").is_null());
  EXPECT_DOUBLE_EQ(Eval("ROUND(2.567, 1)").AsDouble(), 2.6);
  EXPECT_DOUBLE_EQ(Eval("SQRT(16)").AsDouble(), 4.0);
  EXPECT_TRUE(Eval("CONTAINS(s, 'ELL')").AsBool());
  EXPECT_FALSE(Eval("CONTAINS(s, 'xyz')").AsBool());
  EXPECT_EQ(Eval("'a' || s").AsText(), "ahello");
}

TEST(EvaluatorTest, ErrorsAreStatusesNotCrashes) {
  EXPECT_TRUE(EvalError("missing_column").IsInvalidArgument());
  EXPECT_TRUE(EvalError("nosuchfn(1)").IsInvalidArgument());
  EXPECT_TRUE(EvalError("LENGTH(1)").IsInvalidArgument());
  // Quality functions outside preference queries are rejected.
  EXPECT_TRUE(EvalError("LEVEL(a)").IsInvalidArgument());
  // Aggregates outside aggregation context are rejected.
  EXPECT_TRUE(EvalError("SUM(a)").IsInvalidArgument());
}

TEST(EvaluatorTest, PredicateSemantics) {
  Schema schema = Schema::FromNames({"n"});
  Row row{Value::Null()};
  auto e = ParseExpression("n = 1");
  ASSERT_TRUE(e.ok());
  auto pass = EvaluatePredicate(**e, EvalContext::For(schema, row));
  ASSERT_TRUE(pass.ok());
  EXPECT_FALSE(*pass);  // UNKNOWN filters out
}

TEST(EvaluatorTest, OuterScopeResolution) {
  Schema outer_schema = Schema::FromNames({"x"}).WithQualifier("o");
  Row outer_row{Value::Int(42)};
  EvalContext outer = EvalContext::For(outer_schema, outer_row);
  Schema inner_schema = Schema::FromNames({"y"}).WithQualifier("i");
  Row inner_row{Value::Int(1)};
  EvalContext inner{&inner_schema, &inner_row, &outer, nullptr};
  auto e = ParseExpression("o.x + i.y");
  ASSERT_TRUE(e.ok());
  auto v = Evaluate(**e, inner);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsInt(), 43);
}

// A bound expression reads the same cells the name path resolves: inner
// names shadow outer ones, qualifiers pick the scope, and a name that does
// not resolve (or resolves ambiguously) keeps the name path and its error.
TEST(EvaluatorTest, BoundExpressionsMatchTheNamePath) {
  Schema outer_schema = Schema::FromNames({"x", "z"}).WithQualifier("o");
  Row outer_row{Value::Int(42), Value::Int(7)};
  EvalContext outer = EvalContext::For(outer_schema, outer_row);
  Schema inner_schema(
      std::vector<ColumnInfo>{{"i", "x"}, {"i", "y"}, {"j", "y"}});
  Row inner_row{Value::Int(1), Value::Int(2), Value::Int(3)};
  EvalContext inner{&inner_schema, &inner_row, &outer, nullptr};
  const char* cases[] = {
      "x", "o.x", "i.x", "z", "o.z + i.y * 10", "j.y", "x + o.x",
      "CASE WHEN x < o.x THEN i.y ELSE j.y END", "COALESCE(NULL, z)",
      "x IN (1, o.z)", "o.x BETWEEN x AND 100",
      "y", "nope", "o.y", "q.x"};
  for (const char* text : cases) {
    SCOPED_TRACE(text);
    auto e = ParseExpression(text);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    auto by_name = Evaluate(**e, inner);
    BoundExpr bound(**e, inner_schema, &outer);
    auto by_slot = Evaluate(bound, inner);
    ASSERT_EQ(by_name.ok(), by_slot.ok());
    if (by_name.ok()) {
      EXPECT_EQ(by_name->ToString(), by_slot->ToString());
    } else {
      EXPECT_EQ(by_name.status().ToString(), by_slot.status().ToString());
    }
  }
  // Only references of the current row are plain slot copies.
  auto x = ParseExpression("x");
  auto ox = ParseExpression("o.x");
  ASSERT_TRUE(x.ok() && ox.ok());
  EXPECT_EQ(BoundExpr(**x, inner_schema, &outer).input_slot(), 0);
  EXPECT_EQ(BoundExpr(**ox, inner_schema, &outer).input_slot(), -1);
}

TEST(EvaluatorTest, ContainsAggregateDetector) {
  auto plain = ParseExpression("a + 1");
  auto agg = ParseExpression("1 + SUM(a)");
  auto nested = ParseExpression("CASE WHEN MAX(a) > 2 THEN 1 ELSE 0 END");
  ASSERT_TRUE(plain.ok() && agg.ok() && nested.ok());
  EXPECT_FALSE(ContainsAggregate(**plain));
  EXPECT_TRUE(ContainsAggregate(**agg));
  EXPECT_TRUE(ContainsAggregate(**nested));
}

TEST(EvaluatorTest, DateArithmeticAndComparison) {
  Schema schema = Schema::FromNames({"d"});
  Row row{Value::Date(10775)};  // 1999-07-03
  auto diff = ParseExpression("ABS(d - DATE '1999-07-01')");
  ASSERT_TRUE(diff.ok());
  auto v = Evaluate(**diff, EvalContext::For(schema, row));
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsDouble(), 2.0);
  auto cmp = ParseExpression("d > DATE '1999-01-01'");
  auto c = Evaluate(**cmp, EvalContext::For(schema, row));
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->AsBool());
}

}  // namespace
}  // namespace prefsql
