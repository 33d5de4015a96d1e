#include "engine/executor.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/connection.h"
#include "engine/database.h"
#include "engine/operators/filter.h"
#include "engine/operators/scan.h"
#include "sql/parser.h"

namespace prefsql {
namespace {

// Fixture with a small populated database.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Run("CREATE TABLE emp (id INTEGER, name TEXT, dept TEXT, salary INTEGER)");
    Run("INSERT INTO emp VALUES (1, 'ann', 'dev', 100), (2, 'bob', 'dev', 80), "
        "(3, 'cid', 'ops', 90), (4, 'dee', 'ops', 90), (5, 'eva', 'hr', NULL)");
    Run("CREATE TABLE dept (dname TEXT, budget INTEGER)");
    Run("INSERT INTO dept VALUES ('dev', 1000), ('ops', 500)");
  }

  ResultTable Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultTable();
  }

  Status RunError(const std::string& sql) { return db_.Execute(sql).status(); }

  Database db_;
};

TEST_F(ExecutorTest, SelectConstantWithoutFrom) {
  ResultTable t = Run("SELECT 1 + 2 AS three, 'x'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 3);
  EXPECT_EQ(t.schema().column(0).name, "three");
}

TEST_F(ExecutorTest, WhereFiltersAndNullsDrop) {
  ResultTable t = Run("SELECT name FROM emp WHERE salary > 80");
  EXPECT_EQ(t.num_rows(), 3u);  // eva's NULL salary is UNKNOWN -> dropped
}

TEST_F(ExecutorTest, ProjectionsAndAliases) {
  ResultTable t = Run("SELECT salary * 2 AS double_pay FROM emp WHERE id = 1");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 200);
}

TEST_F(ExecutorTest, StarExpansion) {
  ResultTable t = Run("SELECT * FROM emp WHERE id = 1");
  EXPECT_EQ(t.num_columns(), 4u);
  EXPECT_EQ(t.schema().Names(),
            (std::vector<std::string>{"id", "name", "dept", "salary"}));
}

TEST_F(ExecutorTest, OrderByColumnAliasAndOrdinal) {
  ResultTable by_col = Run("SELECT name FROM emp ORDER BY salary DESC, name");
  EXPECT_EQ(by_col.at(0, 0).AsText(), "ann");
  // NULL sorts first ascending (total order: NULL smallest).
  ResultTable asc = Run("SELECT name FROM emp ORDER BY salary");
  EXPECT_EQ(asc.at(0, 0).AsText(), "eva");
  ResultTable by_alias =
      Run("SELECT name, salary * 2 AS pay2 FROM emp WHERE id < 3 ORDER BY pay2");
  EXPECT_EQ(by_alias.at(0, 0).AsText(), "bob");
  ResultTable by_ord = Run("SELECT name, salary FROM emp WHERE id < 3 ORDER BY 2 DESC");
  EXPECT_EQ(by_ord.at(0, 0).AsText(), "ann");
  EXPECT_TRUE(RunError("SELECT name FROM emp ORDER BY 9").IsInvalidArgument());
}

TEST_F(ExecutorTest, LimitOffset) {
  ResultTable t = Run("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 2);
  EXPECT_EQ(t.at(1, 0).AsInt(), 3);
}

TEST_F(ExecutorTest, Distinct) {
  ResultTable t = Run("SELECT DISTINCT dept FROM emp ORDER BY dept");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.at(0, 0).AsText(), "dev");
}

// 2^53 + 1 and 2^53 round to one double; every comparison must still tell
// them apart, through a scan and through an index (tests/golden/023 covers
// the SQL surface in every configuration).
TEST_F(ExecutorTest, IntegersAboveTwoTo53CompareExactly) {
  Run("CREATE TABLE big (id INTEGER, a INTEGER)");
  Run("INSERT INTO big VALUES (1, 9007199254740993), (2, 9007199254740992)");
  EXPECT_EQ(Run("SELECT id FROM big WHERE a = 9007199254740992").num_rows(),
            1u);
  EXPECT_EQ(Run("SELECT DISTINCT a FROM big").num_rows(), 2u);
  EXPECT_EQ(Run("SELECT a FROM big GROUP BY a").num_rows(), 2u);
  ResultTable sorted = Run("SELECT id FROM big ORDER BY a");
  ASSERT_EQ(sorted.num_rows(), 2u);
  EXPECT_EQ(sorted.at(0, 0).AsInt(), 2);

  Run("CREATE INDEX big_a ON big (a)");
  const uint64_t before = db_.executor().stats().index_scans;
  ResultTable hit = Run("SELECT id FROM big WHERE a = 9007199254740993");
  EXPECT_EQ(db_.executor().stats().index_scans, before + 1);
  ASSERT_EQ(hit.num_rows(), 1u);
  EXPECT_EQ(hit.at(0, 0).AsInt(), 1);
  EXPECT_EQ(Run("SELECT id FROM big WHERE a < 9007199254740993").num_rows(),
            1u);
}

TEST_F(ExecutorTest, CommaJoinWithWhere) {
  ResultTable t = Run(
      "SELECT name, budget FROM emp, dept WHERE dept = dname ORDER BY id");
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.at(0, 0).AsText(), "ann");
  EXPECT_EQ(t.at(0, 1).AsInt(), 1000);
}

TEST_F(ExecutorTest, InnerJoinOn) {
  ResultTable t = Run(
      "SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.dname "
      "ORDER BY e.id");
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST_F(ExecutorTest, LeftJoinPadsNulls) {
  ResultTable t = Run(
      "SELECT e.name, d.budget FROM emp e LEFT JOIN dept d "
      "ON e.dept = d.dname ORDER BY e.id");
  ASSERT_EQ(t.num_rows(), 5u);
  EXPECT_TRUE(t.at(4, 1).is_null());  // eva's hr dept has no budget row
}

TEST_F(ExecutorTest, CrossJoinCardinality) {
  ResultTable t = Run("SELECT * FROM emp CROSS JOIN dept");
  EXPECT_EQ(t.num_rows(), 10u);
}

TEST_F(ExecutorTest, JoinWithResidualPredicate) {
  ResultTable t = Run(
      "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.dname "
      "AND e.salary < d.budget ORDER BY e.id");
  // dev: 100,80 < 1000 (2 rows); ops: 90,90 < 500 (2 rows).
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST_F(ExecutorTest, Aggregates) {
  ResultTable t = Run(
      "SELECT COUNT(*), COUNT(salary), SUM(salary), AVG(salary), "
      "MIN(salary), MAX(salary) FROM emp");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 5);
  EXPECT_EQ(t.at(0, 1).AsInt(), 4);  // NULL skipped
  EXPECT_EQ(t.at(0, 2).AsInt(), 360);
  EXPECT_DOUBLE_EQ(t.at(0, 3).AsDouble(), 90.0);
  EXPECT_EQ(t.at(0, 4).AsInt(), 80);
  EXPECT_EQ(t.at(0, 5).AsInt(), 100);
}

TEST_F(ExecutorTest, AggregatesOnEmptyInput) {
  ResultTable t = Run("SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 99");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 0);
  EXPECT_TRUE(t.at(0, 1).is_null());
}

TEST_F(ExecutorTest, CountDistinct) {
  ResultTable t = Run("SELECT COUNT(DISTINCT dept) FROM emp");
  EXPECT_EQ(t.at(0, 0).AsInt(), 3);
}

TEST_F(ExecutorTest, GroupByHaving) {
  ResultTable t = Run(
      "SELECT dept, COUNT(*) AS c, SUM(salary) FROM emp GROUP BY dept "
      "HAVING COUNT(*) >= 2 ORDER BY dept");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(0, 0).AsText(), "dev");
  EXPECT_EQ(t.at(0, 1).AsInt(), 2);
  EXPECT_EQ(t.at(1, 0).AsText(), "ops");
  EXPECT_EQ(t.at(1, 2).AsInt(), 180);
}

TEST_F(ExecutorTest, GroupByExpression) {
  ResultTable t = Run(
      "SELECT salary % 2, COUNT(*) FROM emp WHERE salary IS NOT NULL "
      "GROUP BY salary % 2 ORDER BY 1");
  EXPECT_EQ(t.num_rows(), 1u);  // all salaries are even
  EXPECT_EQ(t.at(0, 1).AsInt(), 4);
}

TEST_F(ExecutorTest, SelectStarWithGroupByIsError) {
  EXPECT_TRUE(RunError("SELECT * FROM emp GROUP BY dept").IsInvalidArgument());
}

TEST_F(ExecutorTest, ScalarSubquery) {
  ResultTable t = Run(
      "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsText(), "ann");
}

TEST_F(ExecutorTest, CorrelatedExists) {
  // Employees above their department average.
  ResultTable t = Run(
      "SELECT e1.name FROM emp e1 WHERE NOT EXISTS "
      "(SELECT 1 FROM emp e2 WHERE e2.dept = e1.dept AND "
      "e2.salary > e1.salary) AND e1.salary IS NOT NULL ORDER BY e1.id");
  // ann tops dev; cid and dee tie atop ops.
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.at(0, 0).AsText(), "ann");
}

TEST_F(ExecutorTest, InSubquery) {
  ResultTable t = Run(
      "SELECT name FROM emp WHERE dept IN (SELECT dname FROM dept) "
      "ORDER BY id");
  EXPECT_EQ(t.num_rows(), 4u);
  ResultTable t2 = Run(
      "SELECT name FROM emp WHERE dept NOT IN (SELECT dname FROM dept)");
  EXPECT_EQ(t2.num_rows(), 1u);
}

TEST_F(ExecutorTest, DerivedTable) {
  ResultTable t = Run(
      "SELECT top.name FROM (SELECT name, salary FROM emp "
      "WHERE salary >= 90) top ORDER BY top.salary DESC");
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST_F(ExecutorTest, ViewExpansion) {
  Run("CREATE VIEW rich AS SELECT * FROM emp WHERE salary >= 90");
  ResultTable t = Run("SELECT name FROM rich ORDER BY id");
  EXPECT_EQ(t.num_rows(), 3u);
  Run("DROP VIEW rich");
  EXPECT_TRUE(RunError("SELECT * FROM rich").IsNotFound());
}

TEST_F(ExecutorTest, InsertSelect) {
  Run("CREATE TABLE emp2 (id INTEGER, name TEXT, dept TEXT, salary INTEGER)");
  ResultTable t = Run("INSERT INTO emp2 SELECT * FROM emp WHERE dept = 'dev'");
  EXPECT_EQ(t.at(0, 0).AsInt(), 2);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM emp2").at(0, 0).AsInt(), 2);
}

TEST_F(ExecutorTest, InsertPartialColumnsDefaultsNull) {
  Run("CREATE TABLE s (a INTEGER, b TEXT)");
  Run("INSERT INTO s (b) VALUES ('only-b')");
  ResultTable t = Run("SELECT a, b FROM s");
  EXPECT_TRUE(t.at(0, 0).is_null());
  EXPECT_EQ(t.at(0, 1).AsText(), "only-b");
}

// VALUES literals skip the parser's precedence ladder; a select item
// followed by AS always descends it. Both must store the same row, cell for
// cell, type for type.
TEST_F(ExecutorTest, InsertValuesStoresWhatTheLadderStores) {
  const std::vector<std::pair<std::string, std::string>> columns = {
      {"INTEGER", "5"}, {"INTEGER", "-5"}, {"INTEGER", "- 5"},
      {"INTEGER", "+5"}, {"INTEGER", "(5)"}, {"INTEGER", "5 + 1"},
      {"DOUBLE", "1e3"}, {"DOUBLE", ".5"}, {"TEXT", "'it''s'"},
      {"TEXT", "''"}, {"TEXT", "'" + std::string(40, 'y') + "'"},
      {"DATE", "DATE '2001-01-01'"}, {"INTEGER", "NULL"},
      {"BOOLEAN", "TRUE"}, {"DOUBLE", "99999999999999999999"},
      {"INTEGER", "-9223372036854775808"}, {"DOUBLE", "5"}, {"TEXT", "5"}};
  std::string create = "CREATE TABLE lit (", values, items;
  for (size_t i = 0; i < columns.size(); ++i) {
    const std::string sep = i == 0 ? "" : ", ";
    create += sep + "c" + std::to_string(i) + " " + columns[i].first;
    values += sep + columns[i].second;
    items += sep + columns[i].second + " AS a" + std::to_string(i);
  }
  Run(create + ")");
  Run("INSERT INTO lit VALUES (" + values + ")");
  Run("INSERT INTO lit SELECT " + items);
  auto table = db_.catalog().GetTable("lit");
  ASSERT_TRUE(table.ok());
  const Row& shortcut = (*table)->heap().row(0);
  const Row& ladder = (*table)->heap().row(1);
  ASSERT_EQ(shortcut.size(), columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    EXPECT_TRUE(RowsIdentityEqual({shortcut[i]}, {ladder[i]}))
        << columns[i].second << ": " << shortcut[i].ToString() << " vs "
        << ladder[i].ToString();
  }
  EXPECT_EQ(shortcut[15].AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(shortcut[17].AsText(), "5");
}

TEST_F(ExecutorTest, InsertRefusesIntegersBeyondInt64) {
  Run("CREATE TABLE wide (a INTEGER, d DOUBLE)");
  // The literal is a DOUBLE; an INTEGER column refuses it rather than
  // storing a clamped or wrapped int64.
  Status st = RunError("INSERT INTO wide VALUES (99999999999999999999, 0)");
  EXPECT_EQ(st.message(),
            "cannot store DOUBLE value '1e+20' in column wide.a");
  EXPECT_FALSE(RunError("INSERT INTO wide VALUES (9223372036854775808, 0)").ok());
  Run("INSERT INTO wide VALUES (-9223372036854775808, 99999999999999999999)");
  ResultTable t = Run("SELECT a, d FROM wide");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(t.at(0, 1).AsDouble(), 1e20);
}

// An int64 result that overflows is a DOUBLE, as in SQLite: never a
// wrapped integer, and INT64_MIN / -1 never traps.
TEST_F(ExecutorTest, IntegerOverflowBecomesDouble) {
  ResultTable t = Run(
      "SELECT 9223372036854775807 + 1 AS a, -9223372036854775808 - 1 AS b, "
      "9223372036854775807 * 2 AS c, -9223372036854775808 / -1 AS d, "
      "-9223372036854775808 % -1 AS e, 7 / -1 AS f, 7 % -1 AS g, "
      "-(-9223372036854775807 - 1) AS h, 6 * 7 AS i");
  const std::vector<Value> want = {
      Value::Double(0x1p63),  Value::Double(-0x1p63), Value::Double(0x1p64),
      Value::Double(0x1p63),  Value::Int(0),          Value::Int(-7),
      Value::Int(0),          Value::Double(0x1p63),  Value::Int(42)};
  ASSERT_EQ(t.num_columns(), want.size());
  for (size_t c = 0; c < want.size(); ++c) {
    EXPECT_TRUE(RowsIdentityEqual({t.at(0, c)}, {want[c]}))
        << c << ": " << t.at(0, c).ToString();
  }
}

TEST_F(ExecutorTest, InsertValuesErrorsKeepTheirOrder) {
  Run("CREATE TABLE two (a INTEGER, b TEXT)");
  // Within a row, an evaluation error reports before the arity mismatch.
  EXPECT_EQ(RunError("INSERT INTO two VALUES (1)").message(),
            "INSERT expects 2 values, got 1");
  EXPECT_FALSE(RunError("INSERT INTO two VALUES (x)").ok());
  EXPECT_NE(RunError("INSERT INTO two VALUES (x)").message(),
            "INSERT expects 2 values, got 1");
  EXPECT_EQ(RunError("INSERT INTO two (b) VALUES ('a', 'b')").message(),
            "INSERT expects 1 values, got 2");
  // A failed row leaves the table untouched.
  EXPECT_FALSE(RunError("INSERT INTO two VALUES (1, 'a'), (2.5, 'b')").ok());
  EXPECT_EQ(Run("SELECT COUNT(*) FROM two").at(0, 0).AsInt(), 0);
}

TEST(InsertParameterTest, PreparedPlaceholdersStoreTheBoundValues) {
  Connection conn;
  ASSERT_TRUE(conn.Execute("CREATE TABLE p (a INTEGER, b TEXT, c DOUBLE)").ok());
  auto stmt = conn.Prepare("INSERT INTO p VALUES (?, $name, ?)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->parameter_count(), 3u);
  ASSERT_TRUE(stmt->Bind(0, Value::Int(7)).ok());
  ASSERT_TRUE(stmt->Bind("name", Value::Text("it's")).ok());
  ASSERT_TRUE(stmt->Bind(2, Value::Int(2)).ok());
  ASSERT_TRUE(stmt->Execute().ok());
  ASSERT_TRUE(conn.Execute("INSERT INTO p VALUES (7, 'it''s', 2)").ok());
  auto table = conn.database().catalog().GetTable("p");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(
      RowsIdentityEqual((*table)->heap().row(0), (*table)->heap().row(1)));
  EXPECT_EQ((*table)->heap().row(0)[2].type(), ValueType::kDouble);
  // Text execution has no binding step: a placeholder is a bind error.
  auto text = conn.Execute("INSERT INTO p VALUES (?, 'x', 1)");
  ASSERT_FALSE(text.ok());
  EXPECT_TRUE(text.status().IsBindError()) << text.status().ToString();
  EXPECT_EQ((*table)->num_rows(), 2u);
}

TEST_F(ExecutorTest, UpdateWithWhere) {
  ResultTable affected = Run("UPDATE emp SET salary = salary + 10 WHERE dept = 'ops'");
  EXPECT_EQ(affected.at(0, 0).AsInt(), 2);
  ResultTable t = Run("SELECT SUM(salary) FROM emp WHERE dept = 'ops'");
  EXPECT_EQ(t.at(0, 0).AsInt(), 200);
}

TEST_F(ExecutorTest, UpdateEvaluatesAgainstOldRow) {
  Run("CREATE TABLE sw (x INTEGER, y INTEGER)");
  Run("INSERT INTO sw VALUES (1, 2)");
  Run("UPDATE sw SET x = y, y = x");
  ResultTable t = Run("SELECT x, y FROM sw");
  EXPECT_EQ(t.at(0, 0).AsInt(), 2);
  EXPECT_EQ(t.at(0, 1).AsInt(), 1);  // swap, not cascade
}

TEST_F(ExecutorTest, DeleteWithAndWithoutWhere) {
  EXPECT_EQ(Run("DELETE FROM emp WHERE dept = 'hr'").at(0, 0).AsInt(), 1);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM emp").at(0, 0).AsInt(), 4);
  EXPECT_EQ(Run("DELETE FROM emp").at(0, 0).AsInt(), 4);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM emp").at(0, 0).AsInt(), 0);
}

TEST_F(ExecutorTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(RunError("SELECT nope FROM emp").IsInvalidArgument());
  EXPECT_TRUE(RunError("SELECT * FROM nosuch").IsNotFound());
  EXPECT_TRUE(RunError("INSERT INTO emp VALUES (1)").IsInvalidArgument());
  EXPECT_TRUE(RunError("SELECT (SELECT id FROM dept, emp) FROM emp")
                  .IsInvalidArgument());  // scalar subquery shape
}

TEST_F(ExecutorTest, PreferenceQueryRejectedByPlainEngine) {
  Status s = RunError("SELECT * FROM emp PREFERRING LOWEST(salary)");
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("Preference"), std::string::npos);
}

TEST_F(ExecutorTest, ViewMaterializedOncePerStatement) {
  // Self-join of a view: both sides must see the same materialization.
  Run("CREATE VIEW v AS SELECT * FROM emp WHERE salary IS NOT NULL");
  ResultTable t = Run(
      "SELECT COUNT(*) FROM v a, v b WHERE a.id = b.id");
  EXPECT_EQ(t.at(0, 0).AsInt(), 4);
}

// Counts EXISTS probes; every probe finds a row.
class CountingRunner : public SubqueryRunner {
 public:
  Result<ResultTable> RunSubquery(const SelectStmt&,
                                  const EvalContext*) override {
    return Status::InvalidArgument("not used");
  }
  Result<bool> SubqueryExists(const SelectStmt&, const EvalContext*) override {
    ++calls;
    return true;
  }
  size_t calls = 0;
};

// The row target a consumer sets on the batch passes through a filter to
// the scan below it: a 1-row pull evaluates the predicate on one row only.
TEST(BatchTargetTest, FilterEvaluatesOnlyTheRowsThePullAsksFor) {
  Schema schema = Schema::FromNames({"x"});
  std::vector<Row> rows(5000, Row{Value::Int(1)});
  auto predicate = ParseExpression("EXISTS (SELECT 1)");
  ASSERT_TRUE(predicate.ok()) << predicate.status().ToString();
  CountingRunner runner;
  FilterOperator filter(std::make_unique<SeqScanOperator>(schema, &rows),
                        predicate->get(), nullptr, &runner);
  ASSERT_TRUE(filter.Open().ok());
  RowBatch batch;
  batch.capacity = 1;
  for (size_t pull = 1; pull <= 3; ++pull) {
    auto more = filter.NextBatch(&batch);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(*more);
    EXPECT_EQ(batch.selected(), 1u);
    EXPECT_EQ(runner.calls, pull);
  }
  // The default target evaluates a whole batch per pull.
  batch.capacity = kRowBatchCapacity;
  auto more = filter.NextBatch(&batch);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(batch.selected(), kRowBatchCapacity);
  EXPECT_EQ(runner.calls, 3 + kRowBatchCapacity);
  filter.Close();
}

// The §3.2 rewrite's NOT EXISTS probe stops at the first row of its
// FROM/WHERE pipeline: the probe pulls with a 1-row target, so the WHERE
// clause below it runs on that row alone, not on a whole batch.
TEST_F(ExecutorTest, ExistsProbeEvaluatesOneRowBeforeItsFirstMatch) {
  Run("CREATE TABLE many (x INTEGER)");
  std::string insert = "INSERT INTO many VALUES (0)";
  for (int i = 1; i < 3000; ++i) insert += ", (" + std::to_string(i) + ")";
  Run(insert);
  Executor exec(&db_.catalog());
  auto stmt = ParseStatement(
      "SELECT 1 WHERE EXISTS (SELECT x FROM many WHERE EXISTS (SELECT 1))");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto result = exec.ExecuteStatement(*stmt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 1u);
  // The outer probe, plus one nested probe for the single row it pulled.
  EXPECT_EQ(exec.stats().exists_probes.load(), 2u);
}

// ---------------------------------------------------------------------------
// Plan-time binding and per-statement probe plans
// ---------------------------------------------------------------------------

// Three relations sharing their column names (c serves depth-2 probes), and
// one (d) whose names no other relation has.
class BindingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Run("CREATE TABLE a (id INTEGER, x INTEGER)");
    Run("INSERT INTO a VALUES (1, 10), (2, 20), (3, 30), (4, 40)");
    Run("CREATE TABLE b (id INTEGER, x INTEGER)");
    Run("INSERT INTO b VALUES (1, 5), (2, 25), (3, 30), (5, 50)");
    Run("CREATE TABLE c (id INTEGER, x INTEGER)");
    Run("INSERT INTO c VALUES (2, 20), (3, 99)");
    Run("CREATE TABLE d (did INTEGER, dx INTEGER)");
    Run("INSERT INTO d VALUES (1, 15), (2, 5)");
  }

  ResultTable Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultTable();
  }

  // First-column integers of a query's rows, in order.
  std::vector<int64_t> Ids(const std::string& sql) {
    std::vector<int64_t> out;
    ResultTable t = Run(sql);
    for (size_t i = 0; i < t.num_rows(); ++i) out.push_back(t.at(i, 0).AsInt());
    return out;
  }

  uint64_t ProbePlans() {
    return db_.executor().stats().exists_plans.load();
  }
  uint64_t ProbeRuns() {
    return db_.executor().stats().exists_probes.load();
  }

  Database db_;
};

TEST_F(BindingTest, InnerNamesShadowOuterOnesQualifiedAndUnqualified) {
  // Unqualified `x` and `id` inside the probe are b's; a.x reaches out.
  EXPECT_EQ(Ids("SELECT id FROM a WHERE EXISTS "
                "(SELECT 1 FROM b WHERE id = a.id AND x > a.x) ORDER BY id"),
            (std::vector<int64_t>{2}));
  EXPECT_EQ(Ids("SELECT a.id FROM a WHERE EXISTS "
                "(SELECT 1 FROM b WHERE b.x = a.x) ORDER BY a.id"),
            (std::vector<int64_t>{3}));
  // The same table on both sides, told apart by alias only.
  EXPECT_EQ(Ids("SELECT id FROM a a1 WHERE NOT EXISTS "
                "(SELECT 1 FROM a a2 WHERE a2.x > a1.x)"),
            (std::vector<int64_t>{4}));
  // Unqualified `x` is the probe's own a2.x, never c.x ...
  EXPECT_EQ(Ids("SELECT id FROM c WHERE EXISTS "
                "(SELECT 1 FROM a a2 WHERE a2.x < x) ORDER BY id"),
            (std::vector<int64_t>{}));
  // ... while a name only the outer scope has resolves there.
  EXPECT_EQ(Ids("SELECT did FROM d WHERE EXISTS "
                "(SELECT 1 FROM a WHERE a.x < dx) ORDER BY did"),
            (std::vector<int64_t>{1}));
  // Projections mix copied slots, outer reads and evaluated expressions.
  ResultTable t = Run(
      "SELECT id, x * 2, (SELECT MAX(b.x) FROM b WHERE b.id <= a.id) "
      "FROM a ORDER BY id");
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.at(1, 1).AsInt(), 40);
  EXPECT_EQ(t.at(1, 2).AsInt(), 25);
  EXPECT_EQ(t.at(3, 2).AsInt(), 30);
}

TEST_F(BindingTest, CorrelatedProbeIsPlannedOncePerStatement) {
  const uint64_t plans = ProbePlans();
  const uint64_t runs = ProbeRuns();
  EXPECT_EQ(Ids("SELECT id FROM a WHERE NOT EXISTS "
                "(SELECT 1 FROM b WHERE b.x > a.x) ORDER BY id"),
            (std::vector<int64_t>{}));
  EXPECT_EQ(ProbeRuns() - runs, 4u);   // one run per outer row
  EXPECT_EQ(ProbePlans() - plans, 1u);  // one plan for all of them
}

TEST_F(BindingTest, NestedExistsAtDepthTwo) {
  const uint64_t plans = ProbePlans();
  // c.x = a.x reaches two scopes out, c.id = b.id one.
  EXPECT_EQ(Ids("SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE "
                "b.id = a.id AND EXISTS (SELECT 1 FROM c WHERE "
                "c.id = b.id AND c.x = a.x)) ORDER BY id"),
            (std::vector<int64_t>{2}));
  EXPECT_EQ(Ids("SELECT id FROM a WHERE NOT EXISTS (SELECT 1 FROM b WHERE "
                "b.id = a.id AND NOT EXISTS (SELECT 1 FROM c WHERE "
                "c.x >= b.x - 5 AND c.x <= a.x)) ORDER BY id"),
            (std::vector<int64_t>{2, 4}));
  // Each statement plans its outer probe once and the nested probe once,
  // inside the outer probe's plan.
  EXPECT_EQ(ProbePlans() - plans, 4u);
}

TEST_F(BindingTest, ProbeWithACorrelatedFromSubqueryReplansPerRow) {
  const uint64_t plans = ProbePlans();
  // The derived table reads a.x while it is planned, so a plan kept from
  // the previous outer row would answer for the wrong row.
  EXPECT_EQ(Ids("SELECT id FROM a WHERE EXISTS (SELECT 1 FROM "
                "(SELECT id FROM b WHERE b.x > a.x) s WHERE s.id > a.id) "
                "ORDER BY id"),
            (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(Ids("SELECT id FROM a WHERE NOT EXISTS (SELECT 1 FROM "
                "(SELECT x FROM b WHERE b.x > a.x + 15) s) ORDER BY id"),
            (std::vector<int64_t>{4}));
  EXPECT_EQ(ProbePlans() - plans, 8u);  // once per outer row, per statement
}

TEST_F(BindingTest, UnresolvedColumnsKeepTheirErrors) {
  auto error = [&](const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_FALSE(r.ok()) << sql;
    return r.ok() ? std::string() : r.status().message();
  };
  EXPECT_EQ(error("SELECT nope FROM a"),
            "unknown column: nope");
  EXPECT_EQ(error("SELECT id FROM a WHERE a.nope = 1"),
            "unknown column: a.nope");
  EXPECT_EQ(error("SELECT id FROM a, b"),
            "ambiguous column: id");
  EXPECT_EQ(error("SELECT a.id FROM a WHERE EXISTS "
                  "(SELECT 1 FROM b, c WHERE x = 1)"),
            "ambiguous column: x");
  EXPECT_EQ(error("SELECT id FROM a WHERE NOT EXISTS "
                  "(SELECT 1 FROM b WHERE b.x > a.nope)"),
            "unknown column: a.nope");
  EXPECT_EQ(error("SELECT COUNT(*) FROM a GROUP BY nope"),
            "unknown column: nope");
  // A row that never evaluates the reference never raises it.
  Run("CREATE TABLE empty_t (id INTEGER)");
  EXPECT_EQ(Run("SELECT nope FROM empty_t").num_rows(), 0u);
  EXPECT_EQ(Run("SELECT id FROM empty_t WHERE nope > 1").num_rows(), 0u);
  EXPECT_EQ(Run("SELECT id FROM a WHERE EXISTS "
                "(SELECT 1 FROM empty_t WHERE nope = a.id)")
                .num_rows(),
            0u);
  EXPECT_EQ(Run("SELECT id FROM a WHERE id > 100 AND nope = 1").num_rows(),
            0u);
}

// Prepared and cached plans share one AST across executions and cursors;
// binding writes nothing into it.
class PreparedBindingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(conn_.ExecuteScript(
                         "CREATE TABLE a (id INTEGER, x INTEGER);"
                         "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30), "
                         "(4, 40), (5, 25)")
                    .ok());
  }

  static std::vector<int64_t> Ids(const ResultTable& t) {
    std::vector<int64_t> out;
    for (size_t i = 0; i < t.num_rows(); ++i) out.push_back(t.at(i, 0).AsInt());
    return out;
  }

  // Rows of `a` that no row beats by more than `margin`.
  static constexpr const char* kQuery =
      "SELECT id FROM a a1 WHERE NOT EXISTS "
      "(SELECT 1 FROM a a2 WHERE a2.x > a1.x + ?) ORDER BY id";

  Connection conn_;
};

TEST_F(PreparedBindingTest, CorrelatedStatementReExecutesWithNewParameters) {
  auto stmt = conn_.Prepare(kQuery);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const std::pair<int64_t, std::vector<int64_t>> cases[] = {
      {0, {4}}, {10, {3, 4}}, {15, {3, 4, 5}}, {100, {1, 2, 3, 4, 5}},
      {0, {4}}};
  for (const auto& [margin, expected] : cases) {
    SCOPED_TRACE(margin);
    ASSERT_TRUE(stmt->Bind(0, Value::Int(margin)).ok());
    auto r = stmt->Execute();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Ids(*r), expected);
  }
}

TEST_F(PreparedBindingTest, InterleavedCursorsOverOnePreparedStatement) {
  auto stmt = conn_.Prepare(kQuery);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(stmt->Bind(0, Value::Int(100)).ok());
  auto wide = stmt->Open();
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  ASSERT_TRUE(stmt->Bind(0, Value::Int(10)).ok());
  auto narrow = stmt->Open();
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  std::vector<int64_t> got_wide, got_narrow;
  bool wide_done = false, narrow_done = false;
  while (!wide_done || !narrow_done) {
    for (auto [cursor, got, done] :
         {std::tuple(&*wide, &got_wide, &wide_done),
          std::tuple(&*narrow, &got_narrow, &narrow_done)}) {
      if (*done) continue;
      auto row = cursor->Next();
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      if (!row->has_value()) {
        *done = true;
        continue;
      }
      got->push_back((**row).row()[0].AsInt());
    }
  }
  EXPECT_EQ(got_wide, (std::vector<int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(got_narrow, (std::vector<int64_t>{3, 4}));
}

}  // namespace
}  // namespace prefsql
