// One way to read a base table: SELECTs over one table and the target scans
// of UPDATE and DELETE plan through Planner::PlanTableScan, which serves a
// WHERE from an index (the heap scan's list mode) or from column codes (its
// range mode). DML computes every change before it stamps any.
//
//   * Index answers over-approximate the full scan, also where the SQL
//     comparison and Value::Compare disagree (NaN, date text vs DATE).
//   * All or nothing: a WHERE, SET or coercion error in UPDATE, DELETE or
//     INSERT leaves the rows, Table::version() and the heap unchanged.
//   * Access paths: UPDATE/DELETE by an indexed key count an index scan,
//     and over a coded column visibility-test only the code matches.
//   * Parity: random UPDATE/DELETE statements over a coded column, a column
//     past the distinct cap, a mixed-type column and correlated subqueries
//     on the same table leave an indexed table identical to an index-free
//     copy.
//   * Concurrency: a writer's UPDATE/DELETE target scans extend the codes
//     while cursors read (this suite runs in the CI TSan job).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/connection.h"
#include "storage/column_codes.h"

namespace prefsql {
namespace {

Table* GetTable(Connection& conn, const std::string& name) {
  auto table = conn.database().catalog().GetTable(name);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? *table : nullptr;
}

// Runs `sql` and returns its rows rendered, or the error text.
std::string Rendered(Connection& conn, const std::string& sql) {
  auto result = conn.Execute(sql);
  if (!result.ok()) return "error: " + result.status().ToString();
  return result->ToString(1u << 20);
}

const Executor::Stats& Stats(Connection& conn) {
  return conn.database().executor().stats();
}

// -- Index answers ----------------------------------------------------------

TEST(TableScanIndexTest, NaNKeysDoNotHideRowsFromRangeLookups) {
  Connection conn;
  ASSERT_TRUE(conn.Execute("CREATE TABLE t (id INTEGER, x DOUBLE)").ok());
  Table* table = GetTable(conn, "t");
  ASSERT_NE(table, nullptr);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double xs[] = {1, nan, 2, 3, 4, nan, 5, 6, 7, nan, 8, 9};
  for (size_t i = 0; i < std::size(xs); ++i) {
    ASSERT_TRUE(table
                    ->Insert({Value::Int(static_cast<int64_t>(i)),
                              Value::Double(xs[i])})
                    .ok());
  }
  const char* const wheres[] = {"x >= 4", "x <= 4", "x >= 2 AND x <= 7",
                                "x = 4", "x > 8", "x < 1", "4 <= x"};
  std::vector<std::string> full;
  for (const char* where : wheres) {
    full.push_back(Rendered(conn, std::string("SELECT id FROM t WHERE ") +
                                      where + " ORDER BY id"));
  }
  ASSERT_TRUE(conn.Execute("CREATE INDEX tx ON t (x)").ok());
  for (size_t i = 0; i < std::size(wheres); ++i) {
    const uint64_t before = Stats(conn).index_scans.load();
    EXPECT_EQ(Rendered(conn, std::string("SELECT id FROM t WHERE ") +
                                 wheres[i] + " ORDER BY id"),
              full[i])
        << wheres[i];
    EXPECT_EQ(Stats(conn).index_scans.load(), before + 1) << wheres[i];
  }
}

// `x [NOT] BETWEEN lo AND hi` is `[NOT] (x >= lo AND x <= hi)` under
// three-valued logic: the same value (TRUE, FALSE or NULL) on every row of a
// NULL/NaN/±inf/mixed-type column, for every bound, negated or not, and the
// same rows with or without an index on x.
TEST(TableScanIndexTest, BetweenIsGreaterOrEqualAndLessOrEqual) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> xs = {
      Value::Null(),       Value::Double(nan),  Value::Double(-inf),
      Value::Double(inf),  Value::Double(-1.5), Value::Int(0),
      Value::Int(2),       Value::Double(2.5),  Value::Int(7),
      Value::Double(nan),  Value::Text("abc"),  Value::Text("5"),
      Value::Date(3),      Value::Bool(true),   Value::Double(nan)};
  const char* const bounds[] = {"NULL", "0",     "2",
                                "7",    "-1e400", "'abc'",
                                "'1970-01-03'"};
  Connection plain, indexed;
  for (Connection* conn : {&plain, &indexed}) {
    ASSERT_TRUE(conn->Execute("CREATE TABLE t (id INTEGER, x DOUBLE)").ok());
    Table* table = GetTable(*conn, "t");
    ASSERT_NE(table, nullptr);
    std::vector<Row> rows;
    for (size_t i = 0; i < xs.size(); ++i) {
      rows.push_back({Value::Int(static_cast<int64_t>(i)), xs[i]});
    }
    table->BulkLoadUnchecked(std::move(rows));
  }
  ASSERT_TRUE(indexed.Execute("CREATE INDEX tx ON t (x)").ok());
  int true_rows = 0;
  for (const char* lo : bounds) {
    for (const char* hi : bounds) {
      for (const char* neg : {"", "NOT "}) {
        const std::string between = std::string("x ") + neg + "BETWEEN " +
                                    lo + " AND " + hi;
        const std::string expanded = std::string(neg) + "(x >= " + lo +
                                     " AND x <= " + hi + ")";
        SCOPED_TRACE(between);
        EXPECT_EQ(Rendered(plain, "SELECT id, " + between + " AS v FROM t"),
                  Rendered(plain, "SELECT id, " + expanded + " AS v FROM t"));
        const std::string rows =
            Rendered(plain, "SELECT id FROM t WHERE " + expanded);
        EXPECT_EQ(Rendered(plain, "SELECT id FROM t WHERE " + between), rows);
        EXPECT_EQ(Rendered(indexed, "SELECT id FROM t WHERE " + between +
                                        " ORDER BY id"),
                  Rendered(plain, "SELECT id FROM t WHERE " + expanded +
                                      " ORDER BY id"));
        true_rows += static_cast<int>(
            std::count(rows.begin(), rows.end(), '\n'));
      }
    }
  }
  EXPECT_GT(true_rows, 0);
}

TEST(TableScanIndexTest, DateTextAndDatesCompareAlikeWithAnIndex) {
  Connection conn;
  ASSERT_TRUE(conn.ExecuteScript(
                      "CREATE TABLE t (id INTEGER, d DATE, s TEXT);"
                      "INSERT INTO t VALUES (1, DATE '2020-01-01', "
                      "'2020-01-01'), (2, DATE '2021-01-01', '2021-01-01'), "
                      "(3, DATE '2019-05-05', 'abc')")
                  .ok());
  const char* const wheres[] = {
      "d = '2020-01-01'",     "d > '2020-06-01'",
      "d <= '2020-01-01'",    "s = DATE '2020-01-01'",
      "s < DATE '2020-06-01'", "s >= DATE '2020-06-01'",
      "d BETWEEN '2019-01-01' AND '2020-01-01'", "s = 'abc'"};
  std::vector<std::string> full;
  for (const char* where : wheres) {
    full.push_back(Rendered(conn, std::string("SELECT id FROM t WHERE ") +
                                      where + " ORDER BY id"));
  }
  ASSERT_TRUE(conn.Execute("CREATE INDEX td ON t (d)").ok());
  ASSERT_TRUE(conn.Execute("CREATE INDEX ts ON t (s)").ok());
  for (size_t i = 0; i < std::size(wheres); ++i) {
    EXPECT_EQ(Rendered(conn, std::string("SELECT id FROM t WHERE ") +
                                 wheres[i] + " ORDER BY id"),
              full[i])
        << wheres[i];
  }
}

// -- All or nothing ---------------------------------------------------------

class DmlAllOrNothingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(conn_.ExecuteScript(
                         "CREATE TABLE t (id INTEGER, v INTEGER, k TEXT);"
                         "INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), "
                         "(3, 30, 'a'), (4, 40, 'b'), (5, 50, 'a'), "
                         "(6, 60, 'b'), (7, 70, 'a'), (8, 80, 'b')")
                    .ok());
    table_ = GetTable(conn_, "t");
    ASSERT_NE(table_, nullptr);
  }

  // Runs `sql`, which must fail, and checks that it changed nothing.
  void ExpectFailsUnchanged(const std::string& sql) {
    const std::string rows = Rendered(conn_, "SELECT * FROM t");
    const uint64_t version = table_->version();
    const size_t heap = table_->heap_size();
    auto r = conn_.Execute(sql);
    EXPECT_FALSE(r.ok()) << sql;
    EXPECT_EQ(Rendered(conn_, "SELECT * FROM t"), rows) << sql;
    EXPECT_EQ(table_->version(), version) << sql;
    EXPECT_EQ(table_->heap_size(), heap) << sql;
  }

  Connection conn_;
  Table* table_ = nullptr;
};

TEST_F(DmlAllOrNothingTest, DeleteWithAFailingWhere) {
  ExpectFailsUnchanged(
      "DELETE FROM t WHERE CASE WHEN id > 5 THEN nosuch ELSE 1 END = 1");
  ExpectFailsUnchanged("DELETE FROM t WHERE k = 'a' AND abs(k) > 0");
}

TEST_F(DmlAllOrNothingTest, UpdateWithAFailingWhereSetOrCoercion) {
  ExpectFailsUnchanged(
      "UPDATE t SET v = 0 WHERE CASE WHEN id > 5 THEN nosuch ELSE 1 END = 1");
  ExpectFailsUnchanged(
      "UPDATE t SET v = CASE WHEN id > 2 THEN nosuch ELSE 0 END "
      "WHERE id <= 3");
  ExpectFailsUnchanged(
      "UPDATE t SET v = CASE WHEN id = 6 THEN 'abc' ELSE 1 END");
  ExpectFailsUnchanged("UPDATE t SET k = 'z', v = 'abc' WHERE id >= 7");
}

TEST_F(DmlAllOrNothingTest, InsertWithAFailingRow) {
  ExpectFailsUnchanged("INSERT INTO t VALUES (9, 90, 'a'), (10, 'abc', 'b')");
  ExpectFailsUnchanged(
      "INSERT INTO t SELECT id + 100, CASE WHEN id = 6 THEN 'abc' ELSE v "
      "END, k FROM t");
  ExpectFailsUnchanged("INSERT INTO t VALUES (9, 90, 'a'), (10, 100)");
  // The Preference SQL layer's INSERT ... SELECT ... PREFERRING.
  ExpectFailsUnchanged(
      "INSERT INTO t SELECT id + 100, CASE WHEN id = 8 THEN 'abc' ELSE v "
      "END, k FROM t PREFERRING LOWEST(v) GROUPING id");
}

TEST_F(DmlAllOrNothingTest, SucceedingStatementsStillCommit) {
  auto r = conn_.Execute("UPDATE t SET v = v + 1 WHERE k = 'a'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->at(0, 0).AsInt(), 4);
  r = conn_.Execute("DELETE FROM t WHERE v > 60");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->at(0, 0).AsInt(), 2);
  r = conn_.Execute("INSERT INTO t VALUES (9, 90, 'a'), (10, 100, 'b')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  r = conn_.Execute("SELECT COUNT(*), SUM(v) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->at(0, 0).AsInt(), 8);
  EXPECT_EQ(r->at(0, 1).AsInt(), 11 + 20 + 31 + 40 + 51 + 60 + 90 + 100);
}

// -- Access paths -----------------------------------------------------------

TEST(DmlAccessPathTest, UpdateAndDeleteByAnIndexedKeyUseTheIndex) {
  Connection indexed, plain;
  for (Connection* conn : {&indexed, &plain}) {
    std::string sql =
        "CREATE TABLE t (id INTEGER, v INTEGER); INSERT INTO t VALUES ";
    for (int i = 0; i < 50; ++i) {
      sql += (i ? ", (" : "(") + std::to_string(i) + ", " +
             std::to_string(i * 3 % 11) + ")";
    }
    ASSERT_TRUE(conn->ExecuteScript(sql).ok());
  }
  ASSERT_TRUE(indexed.Execute("CREATE INDEX t_id ON t (id)").ok());
  for (const char* dml :
       {"UPDATE t SET v = v + 100 WHERE id = 7", "DELETE FROM t WHERE id = 8",
        "UPDATE t SET v = 0 WHERE id >= 40 AND v > 3",
        "DELETE FROM t WHERE id BETWEEN 20 AND 24"}) {
    const uint64_t index_before = Stats(indexed).index_scans.load();
    const uint64_t full_before = Stats(plain).full_scans.load();
    EXPECT_EQ(Rendered(indexed, dml), Rendered(plain, dml)) << dml;
    EXPECT_EQ(Stats(indexed).index_scans.load(), index_before + 1) << dml;
    EXPECT_EQ(Stats(plain).full_scans.load(), full_before + 1) << dml;
    EXPECT_EQ(Rendered(indexed, "SELECT * FROM t"),
              Rendered(plain, "SELECT * FROM t"))
        << dml;
  }
}

TEST(DmlAccessPathTest, TargetScanTestsCodesBeforeLoadingRows) {
  Connection conn;
  std::string sql =
      "CREATE TABLE t (id INTEGER, k TEXT, v INTEGER); INSERT INTO t VALUES ";
  for (int i = 0; i < 60; ++i) {
    sql += (i ? ", (" : "(") + std::to_string(i) + ", '" + "abc"[i % 3] +
           "', " + std::to_string(i) + ")";
  }
  ASSERT_TRUE(conn.ExecuteScript(sql).ok());
  // 20 rows hold k = 'a': only their slots reach the visibility test.
  uint64_t before = Stats(conn).mvcc.versions_scanned.load();
  auto r = conn.Execute("UPDATE t SET v = -v WHERE k = 'a'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->at(0, 0).AsInt(), 20);
  EXPECT_EQ(Stats(conn).mvcc.versions_scanned.load() - before, 20u);
  before = Stats(conn).mvcc.versions_scanned.load();
  r = conn.Execute("DELETE FROM t WHERE k = 'b' AND v < 30");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->at(0, 0).AsInt(), 10);
  EXPECT_EQ(Stats(conn).mvcc.versions_scanned.load() - before, 10u);
}

// -- Parity against an index-free copy -------------------------------------

std::vector<Value> MixedValues() {
  return {Value::Null(),
          Value::Double(std::numeric_limits<double>::quiet_NaN()),
          Value::Double(-0.0),
          Value::Int(0),
          Value::Int(1),
          Value::Double(1.0),
          Value::Double(-1.5),
          Value::Date(100),
          Value::Int(100),
          Value::Text("abc"),
          Value::Text("ABC"),
          Value::Text(""),
          Value::Text("1970-04-11"),  // day 100 as date text
          Value::Bool(true),
          Value::Bool(false)};
}

// id: unique; c: coded (7 values); r: past the distinct cap; m: mixed types.
std::vector<Row> ParityRows(size_t n) {
  const std::vector<Value> mixed = MixedValues();
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(i % 7)),
                    Value::Int(static_cast<int64_t>(i * 7919 % n)),
                    mixed[(i * 5 + i / 3) % mixed.size()]});
  }
  return rows;
}

const char* const kMixedLiterals[] = {"0", "1", "100", "-1.5", "'abc'",
                                      "'1970-04-11'", "DATE '1970-04-11'",
                                      "TRUE", "''"};
const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};

// A narrow id range: correlated subqueries run only for the rows it keeps.
std::string NarrowRange(std::mt19937& rng, size_t n) {
  const size_t lo = rng() % n;
  return "id BETWEEN " + std::to_string(lo) + " AND " +
         std::to_string(lo + 30);
}

// One random conjunct on the table's columns.
std::string RandomConjunct(std::mt19937& rng, size_t n) {
  auto num = [&](size_t below) { return std::to_string(rng() % below); };
  const std::string op = kOps[rng() % std::size(kOps)];
  const std::string lit = kMixedLiterals[rng() % std::size(kMixedLiterals)];
  switch (rng() % 8) {
    case 0:
      return "id " + op + " " + num(n);
    case 1:
      return "id BETWEEN " + num(n / 2) + " AND " + num(n);
    case 2:
      return "c " + op + " " + num(8);
    case 3:
      return "r " + op + " " + num(n);
    case 4:
      return "m " + op + " " + lit;
    case 5:
      return "(m IS NULL OR m " + op + " " + lit + ")";
    case 6:
      return NarrowRange(rng, n) +
             " AND EXISTS (SELECT 1 FROM t t2 WHERE t2.id = t.id + " +
             num(3) + " AND t2.c = t.c)";
    default:
      return NarrowRange(rng, n) +
             " AND r > (SELECT MIN(r) FROM t t2 WHERE t2.c = t.c)";
  }
}

std::string RandomWhere(std::mt19937& rng, size_t n) {
  std::string where = RandomConjunct(rng, n);
  const int more = static_cast<int>(rng() % 3);
  for (int j = 0; j < more; ++j) where += " AND " + RandomConjunct(rng, n);
  return where;
}

std::string RandomDml(std::mt19937& rng, size_t n) {
  const std::string where = " WHERE " + RandomWhere(rng, n);
  switch (rng() % 5) {
    case 0:
      return "DELETE FROM t" + where;
    case 1:
      return "UPDATE t SET c = (c + 1) % 7" + where;
    case 2:
      return "UPDATE t SET r = r + " + std::to_string(n) + ", m = c" + where;
    case 3:
      return "UPDATE t SET m = (SELECT MAX(t2.id) FROM t t2 WHERE t2.c = "
             "t.c)" +
             where + " AND " + NarrowRange(rng, n);
    default:
      return "UPDATE t SET c = 'x'" + where;  // fails on any target row
  }
}

TEST(DmlParityTest, IndexedTableMatchesAnIndexFreeCopy) {
  const size_t n = ColumnCodes::kMaxDistinct + 400;
  Connection indexed, plain;
  for (Connection* conn : {&indexed, &plain}) {
    ASSERT_TRUE(conn->Execute("CREATE TABLE t (id INTEGER, c INTEGER, "
                              "r INTEGER, m TEXT)")
                    .ok());
    Table* table = GetTable(*conn, "t");
    ASSERT_NE(table, nullptr);
    table->BulkLoadUnchecked(ParityRows(n));
  }
  for (const char* ddl :
       {"CREATE INDEX t_id ON t (id)", "CREATE INDEX t_c ON t (c)",
        "CREATE INDEX t_r ON t (r)", "CREATE INDEX t_m ON t (m)",
        "CREATE INDEX t_cid ON t (c, id)"}) {
    ASSERT_TRUE(indexed.Execute(ddl).ok()) << ddl;
  }

  std::mt19937 rng(2024);
  int index_served = 0, failed = 0, changed = 0;
  for (int i = 0; i < 80; ++i) {
    const std::string dml = RandomDml(rng, n);
    const uint64_t index_before = Stats(indexed).index_scans.load();
    const uint64_t version_before = GetTable(plain, "t")->version();
    const std::string a = Rendered(indexed, dml);
    const std::string b = Rendered(plain, dml);
    ASSERT_EQ(a, b) << dml;
    index_served += Stats(indexed).index_scans.load() > index_before;
    failed += a.rfind("error: ", 0) == 0;
    ASSERT_EQ(Rendered(indexed, "SELECT * FROM t"),
              Rendered(plain, "SELECT * FROM t"))
        << dml;
    ASSERT_EQ(GetTable(indexed, "t")->version(),
              GetTable(plain, "t")->version())
        << dml;
    changed += GetTable(plain, "t")->version() > version_before;
  }
  // The random statements exercise both access paths, changes and errors.
  EXPECT_GT(index_served, 20);
  EXPECT_GT(changed, 20);
  EXPECT_GT(failed, 5);
}

// -- Concurrency ------------------------------------------------------------

// A writer moves every row to a new dictionary value of k, generation by
// generation, through an UPDATE whose target scan reads k's codes (and
// extends them over the previous generation's appended versions), and
// deletes single rows by k and id. Readers hold cursors open across those
// writes, pulling one row at a time: a snapshot sees one generation whole —
// one k value, each id once.
TEST(TableScanConcurrencyTest, WriterTargetScansExtendCodesWhileCursorsRead) {
  auto engine = std::make_shared<Engine>();
  constexpr int kRows = 120;
  {
    Connection setup;
    setup.Attach(engine);
    std::string sql =
        "CREATE TABLE t (id INTEGER, k TEXT, v INTEGER); INSERT INTO t VALUES ";
    for (int i = 0; i < kRows; ++i) {
      sql += (i ? ", (" : "(") + std::to_string(i) + ", 'g0', " +
             std::to_string(i % 5) + ")";
    }
    ASSERT_TRUE(setup.ExecuteScript(sql).ok());
  }
  constexpr int kWrites = 90;
  constexpr int kReaders = 2;
  std::atomic<bool> done{false};
  std::vector<std::string> errors(kReaders + 1);

  std::thread writer([&] {
    Connection conn;
    conn.Attach(engine);
    int generation = 0;
    for (int i = 0; i < kWrites && errors[kReaders].empty(); ++i) {
      const std::string k = "'g" + std::to_string(generation) + "'";
      std::string sql;
      if (i % 3 == 2) {
        sql = "DELETE FROM t WHERE k = " + k + " AND id = " + std::to_string(i);
      } else {
        ++generation;
        sql = "UPDATE t SET k = 'g" + std::to_string(generation) +
              "', v = v + 1 WHERE k = " + k;
      }
      auto r = conn.Execute(sql);
      if (!r.ok()) errors[kReaders] = sql + ": " + r.status().ToString();
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int id = 0; id < kReaders; ++id) {
    readers.emplace_back([&, id] {
      Connection conn;
      conn.Attach(engine);
      while (!done.load() && errors[id].empty()) {
        auto cursor = conn.OpenCursor("SELECT id, k FROM t WHERE k <> 'none'");
        if (!cursor.ok()) {
          errors[id] = cursor.status().ToString();
          return;
        }
        std::set<int64_t> ids;
        std::string k;
        for (;;) {
          auto row = cursor->Next();
          if (!row.ok()) {
            errors[id] = row.status().ToString();
            return;
          }
          if (!row->has_value()) break;
          const Row& r = (*row)->row();
          if (!ids.insert(r[0].AsInt()).second) {
            errors[id] = "duplicate id " + r[0].ToString();
            return;
          }
          if (k.empty()) k = r[1].AsText();
          if (r[1].AsText() != k) {
            errors[id] = "torn read: " + k + " and " + r[1].AsText();
            return;
          }
          std::this_thread::yield();
        }
        if (ids.size() < static_cast<size_t>(kRows - kWrites / 3)) {
          errors[id] = "lost rows: " + std::to_string(ids.size());
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  for (const std::string& e : errors) EXPECT_TRUE(e.empty()) << e;

  Connection check;
  check.Attach(engine);
  auto r = check.Execute("SELECT COUNT(*) FROM t WHERE k = 'g60'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->at(0, 0).AsInt(), kRows - kWrites / 3);
}

}  // namespace
}  // namespace prefsql
