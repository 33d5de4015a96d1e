#include "sql/parser.h"

#include <gtest/gtest.h>

#include <limits>

#include "sql/printer.h"

namespace prefsql {
namespace {

Statement Parse(const std::string& sql) {
  auto r = ParseStatement(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return std::move(r).value();
}

SelectStmt& AsSelect(Statement& st) {
  EXPECT_EQ(st.kind, StatementKind::kSelect);
  return *st.select;
}

TEST(ParserTest, SimpleSelect) {
  Statement st = Parse("SELECT a, b FROM t WHERE a > 1");
  SelectStmt& s = AsSelect(st);
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0]->table_name, "t");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->binary_op, BinaryOp::kGt);
}

TEST(ParserTest, SelectStarAndQualifiedStar) {
  Statement st = Parse("SELECT *, t.* FROM t");
  SelectStmt& s = AsSelect(st);
  EXPECT_EQ(s.items[0].expr->kind, ExprKind::kStar);
  EXPECT_EQ(s.items[1].expr->kind, ExprKind::kStar);
  EXPECT_EQ(s.items[1].expr->qualifier, "t");
}

TEST(ParserTest, AliasesWithAndWithoutAs) {
  Statement st = Parse("SELECT a AS x, b y FROM t u");
  SelectStmt& s = AsSelect(st);
  EXPECT_EQ(s.items[0].alias, "x");
  EXPECT_EQ(s.items[1].alias, "y");
  EXPECT_EQ(s.from[0]->alias, "u");
}

TEST(ParserTest, OperatorPrecedence) {
  Statement st = Parse("SELECT 1 + 2 * 3 FROM t");
  const Expr& e = *AsSelect(st).items[0].expr;
  ASSERT_EQ(e.kind, ExprKind::kBinary);
  EXPECT_EQ(e.binary_op, BinaryOp::kAdd);
  EXPECT_EQ(e.right->binary_op, BinaryOp::kMul);
}

TEST(ParserTest, AndOrNotPrecedence) {
  Statement st = Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND NOT c = 3");
  const Expr& e = *AsSelect(st).where;
  EXPECT_EQ(e.binary_op, BinaryOp::kOr);
  EXPECT_EQ(e.right->binary_op, BinaryOp::kAnd);
  EXPECT_EQ(e.right->right->kind, ExprKind::kUnary);
}

TEST(ParserTest, InBetweenLikeIsNull) {
  Statement st = Parse(
      "SELECT * FROM t WHERE a IN (1,2) AND b NOT IN (3) AND "
      "c BETWEEN 1 AND 5 AND d NOT LIKE 'x%' AND e IS NOT NULL");
  EXPECT_NE(AsSelect(st).where, nullptr);
}

TEST(ParserTest, CaseExpressions) {
  Statement st = Parse(
      "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'many' END, "
      "CASE a WHEN 1 THEN 10 WHEN 2 THEN 20 END FROM t");
  SelectStmt& s = AsSelect(st);
  EXPECT_EQ(s.items[0].expr->kind, ExprKind::kCase);
  EXPECT_EQ(s.items[0].expr->case_whens.size(), 1u);
  EXPECT_NE(s.items[1].expr->left, nullptr);  // simple CASE operand
  EXPECT_EQ(s.items[1].expr->case_whens.size(), 2u);
}

TEST(ParserTest, FunctionsAndCountStar) {
  Statement st = Parse("SELECT COUNT(*), SUM(x), ABS(-2), COUNT(DISTINCT y) FROM t");
  SelectStmt& s = AsSelect(st);
  EXPECT_EQ(s.items[0].expr->function_name, "count");
  EXPECT_EQ(s.items[0].expr->args[0]->kind, ExprKind::kStar);
  EXPECT_TRUE(s.items[3].expr->distinct_arg);
}

TEST(ParserTest, SubqueriesExistsInScalar) {
  Statement st = Parse(
      "SELECT (SELECT MAX(x) FROM u) FROM t WHERE EXISTS (SELECT 1 FROM u) "
      "AND NOT EXISTS (SELECT 1 FROM v) AND a IN (SELECT b FROM w)");
  SelectStmt& s = AsSelect(st);
  EXPECT_EQ(s.items[0].expr->kind, ExprKind::kSubquery);
  EXPECT_NE(s.where, nullptr);
}

TEST(ParserTest, JoinVariants) {
  Statement st = Parse(
      "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id "
      "CROSS JOIN d");
  SelectStmt& s = AsSelect(st);
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0]->kind, TableRef::Kind::kJoin);
  EXPECT_EQ(s.from[0]->join_type, TableRef::JoinType::kCross);
}

TEST(ParserTest, DerivedTableNeedsAlias) {
  EXPECT_TRUE(ParseStatement("SELECT * FROM (SELECT 1) x").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM (SELECT 1)").ok());
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  Statement st = Parse(
      "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 "
      "ORDER BY 2 DESC, a ASC LIMIT 10 OFFSET 5");
  SelectStmt& s = AsSelect(st);
  EXPECT_EQ(s.group_by.size(), 1u);
  EXPECT_NE(s.having, nullptr);
  EXPECT_EQ(s.order_by.size(), 2u);
  EXPECT_FALSE(s.order_by[0].ascending);
  EXPECT_TRUE(s.order_by[1].ascending);
  EXPECT_EQ(s.limit, 10);
  EXPECT_EQ(s.offset, 5);
}

TEST(ParserTest, DdlAndDml) {
  Statement ct = Parse(
      "CREATE TABLE t (id INTEGER, name VARCHAR(40), price DOUBLE, "
      "ok BOOLEAN, d DATE)");
  EXPECT_EQ(ct.kind, StatementKind::kCreateTable);
  EXPECT_EQ(ct.columns.size(), 5u);
  EXPECT_EQ(ct.columns[1].type, ColumnType::kText);

  Statement iv = Parse("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')");
  EXPECT_EQ(iv.kind, StatementKind::kInsert);
  EXPECT_EQ(iv.insert_columns.size(), 2u);
  EXPECT_EQ(iv.insert_rows.size(), 2u);

  Statement is = Parse("INSERT INTO t SELECT * FROM u");
  EXPECT_NE(is.select, nullptr);

  Statement up = Parse("UPDATE t SET name = 'x', price = price * 2 WHERE id = 1");
  EXPECT_EQ(up.kind, StatementKind::kUpdate);
  EXPECT_EQ(up.assignments.size(), 2u);

  Statement del = Parse("DELETE FROM t WHERE id = 3");
  EXPECT_EQ(del.kind, StatementKind::kDelete);

  Statement drop = Parse("DROP TABLE IF EXISTS t");
  EXPECT_TRUE(drop.if_exists);

  Statement cv = Parse("CREATE VIEW v AS SELECT * FROM t");
  EXPECT_EQ(cv.kind, StatementKind::kCreateView);

  Statement ci = Parse("CREATE INDEX i ON t (id, name)");
  EXPECT_EQ(ci.kind, StatementKind::kCreateIndex);
  EXPECT_EQ(ci.index_columns.size(), 2u);
}

TEST(ParserTest, DateLiteral) {
  Statement st = Parse("SELECT DATE '1999-07-03' FROM t");
  const Expr& e = *AsSelect(st).items[0].expr;
  ASSERT_EQ(e.kind, ExprKind::kLiteral);
  EXPECT_EQ(e.literal.type(), ValueType::kDate);
  EXPECT_FALSE(ParseStatement("SELECT DATE 'nonsense' FROM t").ok());
}

TEST(ParserTest, ScriptSplitsOnSemicolons) {
  auto r = ParseScript("SELECT 1; SELECT 2;; SELECT 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
}

TEST(ParserTest, TrailingGarbageIsError) {
  EXPECT_FALSE(ParseStatement("SELECT 1 FROM t garbage garbage").ok());
}

// A literal followed by ',' or ')' skips the precedence ladder. Each form
// must parse to the AST the full ladder builds: a select item followed by
// AS always descends the ladder, so it is the reference.
TEST(ParserTest, LiteralShortcutBuildsTheLadderAst) {
  const std::vector<std::string> forms = {
      "5", "-5", "- 5", "+5", "(5)", "5 + 1", "1e3", ".5", "'it''s'", "''",
      "'" + std::string(40, 'x') + "'", "DATE '2001-01-01'", "NULL", "TRUE",
      "99999999999999999999", "-9223372036854775808"};
  for (const std::string& form : forms) {
    SCOPED_TRACE(form);
    Statement ladder = Parse("SELECT " + form + " AS a");
    const Expr& want = *AsSelect(ladder).items[0].expr;
    Statement st = Parse("INSERT INTO t VALUES (" + form + ", " + form + ")");
    ASSERT_EQ(st.insert_rows.size(), 1u);
    Statement rebuilt = st.Clone();
    for (ExprPtr& e : rebuilt.insert_rows[0]) e = want.Clone();
    EXPECT_EQ(StatementToSql(st), StatementToSql(rebuilt));
    for (const ExprPtr& e : st.insert_rows[0]) {
      ASSERT_EQ(e->kind, want.kind);
      if (e->kind == ExprKind::kLiteral) {
        EXPECT_TRUE(RowsIdentityEqual({e->literal}, {want.literal}));
      }
    }
    // The same literal as an IN-list member and as a call argument.
    Statement in = Parse("SELECT a FROM t WHERE a IN (" + form + ", f(" +
                         form + "))");
    const Expr& where = *AsSelect(in).where;
    ASSERT_EQ(where.in_list.size(), 2u);
    EXPECT_EQ(ExprToSql(*where.in_list[0]), ExprToSql(want));
    EXPECT_EQ(ExprToSql(*where.in_list[1]->args[0]), ExprToSql(want));
  }
}

TEST(ParserTest, OutOfRangeIntegerLiteralsAreDoubles) {
  auto literal = [](const std::string& text) {
    auto e = ParseExpression(text);
    EXPECT_TRUE(e.ok()) << text << " -> " << e.status().ToString();
    EXPECT_EQ((*e)->kind, ExprKind::kLiteral) << text;
    return (*e)->literal;
  };
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_TRUE(RowsIdentityEqual({literal("9223372036854775807")},
                                {Value::Int(kMax)}));
  EXPECT_TRUE(RowsIdentityEqual({literal("-9223372036854775807")},
                                {Value::Int(-kMax)}));
  // -2^63 is an int64 although 2^63 is not: the minus folds into INT64_MIN.
  EXPECT_TRUE(RowsIdentityEqual({literal("-9223372036854775808")},
                                {Value::Int(kMin)}));
  EXPECT_TRUE(RowsIdentityEqual({literal("- 09223372036854775808")},
                                {Value::Int(kMin)}));
  EXPECT_TRUE(RowsIdentityEqual({literal("9223372036854775808")},
                                {Value::Double(0x1p63)}));
  // Negating INT64_MIN leaves int64: a DOUBLE, never an overflow.
  EXPECT_TRUE(RowsIdentityEqual({literal("- -9223372036854775808")},
                                {Value::Double(0x1p63)}));
  EXPECT_TRUE(RowsIdentityEqual({literal("99999999999999999999")},
                                {Value::Double(1e20)}));
  EXPECT_TRUE(RowsIdentityEqual({literal("-99999999999999999999")},
                                {Value::Double(-1e20)}));
  auto pref = ParsePreference("x AROUND -9223372036854775808");
  ASSERT_TRUE(pref.ok()) << pref.status().ToString();
  EXPECT_TRUE(RowsIdentityEqual({(*pref)->target}, {Value::Int(kMin)}));
}

TEST(ParserTest, MalformedValuesKeepTheirErrors) {
  auto error = [](const std::string& sql) {
    auto r = ParseStatement(sql);
    EXPECT_FALSE(r.ok()) << sql;
    return r.ok() ? std::string() : r.status().message();
  };
  EXPECT_EQ(error("INSERT INTO t VALUES (1,)"),
            "expected an expression, found ')' at offset 24");
  EXPECT_EQ(error("INSERT INTO t VALUES (1 2)"),
            "expected ')', found integer 2 at offset 24");
  EXPECT_EQ(error("INSERT INTO t VALUES ('a', 'b)"),
            "unterminated string literal at offset 27");
  EXPECT_EQ(error("INSERT INTO t VALUES (1) (2)"),
            "unexpected trailing input after statement");
}

TEST(ParserTest, ParserCountsPlaceholders) {
  EXPECT_EQ(Parse("INSERT INTO t VALUES (1, 'a')").has_parameters, false);
  EXPECT_EQ(Parse("INSERT INTO t VALUES (1, ?)").has_parameters, true);
  EXPECT_EQ(Parse("UPDATE t SET a = $v WHERE b = 1").has_parameters, true);
  EXPECT_EQ(Parse("SELECT a FROM t LIMIT ?").has_parameters, true);
  // Ordinals and the count restart with each statement of a script.
  auto script = ParseScript("SELECT ?; SELECT 1");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ((*script)[0].has_parameters, true);
  EXPECT_EQ((*script)[1].has_parameters, false);
}

// ---------------------------------------------------------------------------
// PREFERRING clause
// ---------------------------------------------------------------------------

PrefTermPtr ParsePref(const std::string& text) {
  auto r = ParsePreference(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  return std::move(r).value();
}

TEST(PreferenceParserTest, AroundPreference) {
  auto p = ParsePref("duration AROUND 14");
  EXPECT_EQ(p->kind, PrefKind::kAround);
  EXPECT_EQ(p->target.AsInt(), 14);
}

TEST(PreferenceParserTest, AroundNegativeAndDateTargets) {
  EXPECT_EQ(ParsePref("x AROUND -5")->target.AsInt(), -5);
  auto p = ParsePref("start_day AROUND '1999/7/3'");
  EXPECT_EQ(p->kind, PrefKind::kAround);  // text that parses as a date is ok
  EXPECT_FALSE(ParsePreference("x AROUND 'hello'").ok());
}

TEST(PreferenceParserTest, BetweenUsesCommaSyntax) {
  auto p = ParsePref("price BETWEEN 1500, 2000");
  EXPECT_EQ(p->kind, PrefKind::kBetween);
  EXPECT_EQ(p->low.AsInt(), 1500);
  EXPECT_EQ(p->high.AsInt(), 2000);
}

TEST(PreferenceParserTest, LowestHighest) {
  EXPECT_EQ(ParsePref("LOWEST(mileage)")->kind, PrefKind::kLowest);
  EXPECT_EQ(ParsePref("HIGHEST(power)")->kind, PrefKind::kHighest);
  // Arithmetic expressions are admissible attributes (§2.2.1).
  auto p = ParsePref("HIGHEST(power / weight)");
  EXPECT_EQ(p->attr->kind, ExprKind::kBinary);
}

TEST(PreferenceParserTest, PosNegAtoms) {
  auto pos = ParsePref("exp IN ('java', 'C++')");
  EXPECT_EQ(pos->kind, PrefKind::kPos);
  EXPECT_EQ(pos->values.size(), 2u);
  auto pos1 = ParsePref("color = 'red'");
  EXPECT_EQ(pos1->kind, PrefKind::kPos);
  auto neg1 = ParsePref("location <> 'downtown'");
  EXPECT_EQ(neg1->kind, PrefKind::kNeg);
  auto negn = ParsePref("city NOT IN ('a', 'b')");
  EXPECT_EQ(negn->kind, PrefKind::kNeg);
  EXPECT_EQ(negn->values.size(), 2u);
}

TEST(PreferenceParserTest, ElseCombinations) {
  auto pp = ParsePref("color = 'white' ELSE color = 'yellow'");
  EXPECT_EQ(pp->kind, PrefKind::kPosPos);
  auto pn = ParsePref("category = 'roadster' ELSE category <> 'passenger'");
  EXPECT_EQ(pn->kind, PrefKind::kPosNeg);
  // Mismatched attributes are rejected.
  EXPECT_FALSE(ParsePreference("a = 'x' ELSE b = 'y'").ok());
  // NEG ELSE POS is not a defined combination.
  EXPECT_FALSE(ParsePreference("a <> 'x' ELSE a = 'y'").ok());
}

TEST(PreferenceParserTest, ContainsAndExplicit) {
  auto c = ParsePref("description CONTAINS 'garden'");
  EXPECT_EQ(c->kind, PrefKind::kContains);
  auto e = ParsePref(
      "color EXPLICIT ('red' BETTER THAN 'blue', 'blue' BETTER THAN 'green')");
  EXPECT_EQ(e->kind, PrefKind::kExplicit);
  EXPECT_EQ(e->edges.size(), 2u);
  EXPECT_FALSE(ParsePreference("x CONTAINS 5").ok());
}

TEST(PreferenceParserTest, ParetoAndCascadePrecedence) {
  // CASCADE binds weaker than AND.
  auto p = ParsePref("HIGHEST(a) AND LOWEST(b) CASCADE c = 'x'");
  ASSERT_EQ(p->kind, PrefKind::kPrioritized);
  ASSERT_EQ(p->children.size(), 2u);
  EXPECT_EQ(p->children[0]->kind, PrefKind::kPareto);
  EXPECT_EQ(p->children[1]->kind, PrefKind::kPos);
}

TEST(PreferenceParserTest, CommaIsCascadeSynonym) {
  auto p = ParsePref("HIGHEST(a), LOWEST(b)");
  EXPECT_EQ(p->kind, PrefKind::kPrioritized);
  // ... and BETWEEN's comma does not terminate the preference.
  auto q = ParsePref("x BETWEEN 0, 0.9, LOWEST(y)");
  ASSERT_EQ(q->kind, PrefKind::kPrioritized);
  EXPECT_EQ(q->children[0]->kind, PrefKind::kBetween);
}

TEST(PreferenceParserTest, ParenthesesGroup) {
  auto p = ParsePref("(a = 'x' CASCADE b = 'y') AND LOWEST(c)");
  ASSERT_EQ(p->kind, PrefKind::kPareto);
  EXPECT_EQ(p->children[0]->kind, PrefKind::kPrioritized);
}

TEST(PreferenceParserTest, PaperCarQuery) {
  // The full §2.2.2 car wish, verbatim.
  Statement st = Parse(
      "SELECT * FROM car WHERE make = 'Opel' "
      "PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND "
      "price AROUND 40000 AND HIGHEST(power)) "
      "CASCADE color = 'red' CASCADE LOWEST(mileage)");
  SelectStmt& s = AsSelect(st);
  ASSERT_NE(s.preferring, nullptr);
  ASSERT_EQ(s.preferring->kind, PrefKind::kPrioritized);
  EXPECT_EQ(s.preferring->children.size(), 3u);
  EXPECT_EQ(s.preferring->children[0]->kind, PrefKind::kPareto);
  EXPECT_EQ(s.preferring->children[0]->children.size(), 3u);
}

TEST(PreferenceParserTest, QueryBlockClauses) {
  Statement st = Parse(
      "SELECT * FROM trips "
      "PREFERRING start_day AROUND '1999/7/3' AND duration AROUND 14 "
      "GROUPING destination "
      "BUT ONLY DISTANCE(start_day) <= 2 AND DISTANCE(duration) <= 2 "
      "ORDER BY price");
  SelectStmt& s = AsSelect(st);
  EXPECT_TRUE(s.IsPreferenceQuery());
  EXPECT_EQ(s.grouping, std::vector<std::string>{"destination"});
  ASSERT_NE(s.but_only, nullptr);
  EXPECT_EQ(s.order_by.size(), 1u);
}

TEST(PreferenceParserTest, MissingPreferenceOperatorIsError) {
  EXPECT_FALSE(ParsePreference("price").ok());
  EXPECT_FALSE(ParsePreference("price AROUND").ok());
  EXPECT_FALSE(ParsePreference("BETWEEN 1, 2").ok());
}

TEST(PreferenceParserTest, ExpressionParserStandalone) {
  auto e = ParseExpression("1 + a.b * 2");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->binary_op, BinaryOp::kAdd);
  EXPECT_FALSE(ParseExpression("1 +").ok());
}

}  // namespace
}  // namespace prefsql
