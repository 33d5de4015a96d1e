// Dictionary-coded filter columns (storage/column_codes.h) and the heap
// scan that tests `col OP literal` / `col IS [NOT] NULL` on them.
//
//   * Parity: a WHERE on the base table (codes) returns exactly the rows the
//     same WHERE returns over `(SELECT * FROM t) s` (the row path), over a
//     mixed-type column holding the values SQL comparison treats specially:
//     NULL, NaN, -0.0/0.0, 1 vs 1.0, int64s just above 2^53, DATE vs its
//     day number and its date text, case variants of TEXT, BOOL. Also for a
//     column past the distinct cap, which falls back to the row path.
//   * Semantics: only the leading run of direct conjuncts moves into the
//     scan, so error behaviour is the row path's; the fast path shows in
//     `mvcc_versions_scanned`, which counts only slots whose codes pass.
//   * MVCC: codes extend across INSERT/UPDATE/DELETE and GC, a pinned
//     cursor keeps its snapshot's rows after another session extended the
//     codes, and concurrent readers extend them beside a writer (this suite
//     runs in the CI TSan job).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/connection.h"
#include "storage/column_codes.h"

namespace prefsql {
namespace {

constexpr int64_t kTwo53 = int64_t{1} << 53;

Table* GetTable(Connection& conn, const std::string& name) {
  auto table = conn.database().catalog().GetTable(name);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? *table : nullptr;
}

uint64_t ScannedSoFar(Connection& conn) {
  return conn.database().executor().stats().mvcc.versions_scanned.load();
}

// Runs `sql` and returns its rows rendered, or the error text.
std::string Rendered(Connection& conn, const std::string& sql) {
  auto result = conn.Execute(sql);
  if (!result.ok()) return "error: " + result.status().ToString();
  return result->ToString(1u << 20);
}

// The same WHERE on the base table and over a FROM subquery (row path).
void ExpectParity(Connection& conn, const std::string& table,
                  const std::string& where) {
  const std::string coded =
      Rendered(conn, "SELECT id FROM " + table + " WHERE " + where);
  const std::string row_path = Rendered(
      conn, "SELECT id FROM (SELECT * FROM " + table + ") s WHERE " + where);
  EXPECT_EQ(coded, row_path) << "WHERE " << where;
}

std::vector<Value> MixedValues() {
  return {Value::Null(),
          Value::Double(std::numeric_limits<double>::quiet_NaN()),
          Value::Double(-0.0),
          Value::Double(0.0),
          Value::Int(0),
          Value::Int(1),
          Value::Double(1.0),
          Value::Int(-1),
          Value::Double(-1.5),
          Value::Int(kTwo53),
          Value::Int(kTwo53 + 1),
          Value::Int(kTwo53 + 2),
          Value::Double(static_cast<double>(kTwo53)),
          Value::Date(100),
          Value::Int(100),
          Value::Double(100.0),
          Value::Text("abc"),
          Value::Text("ABC"),
          Value::Text("Abc"),
          Value::Text(""),
          Value::Text("1970-04-11"),  // day 100 as date text
          Value::Bool(true),
          Value::Bool(false)};
}

const char* const kLiterals[] = {
    "NULL", "0", "1", "1.0", "0.0", "-0.0", "-1", "-1.5",
    "9007199254740992", "9007199254740993", "9007199254740994",
    "DATE '1970-04-11'", "100", "100.0", "'abc'", "'ABC'", "'1970-04-11'",
    "''", "TRUE", "FALSE"};
const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};

class ColumnCodesParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        conn_.Execute("CREATE TABLE mixed (id INTEGER, v TEXT, w TEXT)").ok());
    std::vector<Value> values = MixedValues();
    std::mt19937 rng(1234);
    std::vector<Row> rows;
    for (int copy = 0; copy < 4; ++copy) {
      std::shuffle(values.begin(), values.end(), rng);
      for (size_t i = 0; i < values.size(); ++i) {
        const Value& w = values[(i * 7 + copy) % values.size()];
        rows.push_back({Value::Int(static_cast<int64_t>(rows.size())),
                        values[i], w});
      }
    }
    Table* table = GetTable(conn_, "mixed");
    ASSERT_NE(table, nullptr);
    table->BulkLoadUnchecked(std::move(rows));
  }

  Connection conn_;
};

TEST_F(ColumnCodesParityTest, EveryComparisonInBothOperandOrders) {
  for (const char* lit : kLiterals) {
    for (const char* op : kOps) {
      ExpectParity(conn_, "mixed", std::string("v ") + op + " " + lit);
      ExpectParity(conn_, "mixed", std::string(lit) + " " + op + " v");
    }
  }
  ExpectParity(conn_, "mixed", "v IS NULL");
  ExpectParity(conn_, "mixed", "v IS NOT NULL");
}

TEST_F(ColumnCodesParityTest, RandomConjunctionsOverTwoColumns) {
  std::mt19937 rng(99);
  const size_t nlit = std::size(kLiterals), nop = std::size(kOps);
  auto conjunct = [&](const char* col) {
    if (rng() % 8 == 0) {
      return std::string(col) + (rng() % 2 ? " IS NULL" : " IS NOT NULL");
    }
    const std::string lit = kLiterals[rng() % nlit];
    const std::string op = kOps[rng() % nop];
    return rng() % 2 ? std::string(col) + " " + op + " " + lit
                     : lit + " " + op + " " + col;
  };
  for (int i = 0; i < 150; ++i) {
    std::string where = conjunct(rng() % 2 ? "v" : "w");
    const int more = static_cast<int>(rng() % 3);
    for (int j = 0; j < more; ++j) {
      where += " AND " + conjunct(rng() % 2 ? "v" : "w");
    }
    ExpectParity(conn_, "mixed", where);
  }
}

TEST_F(ColumnCodesParityTest, CodedScanTestsOnlyMatchingSlots) {
  // 4 copies of 'abc' in v: only their slots reach the visibility test.
  const uint64_t before = ScannedSoFar(conn_);
  const std::string rows = Rendered(conn_, "SELECT id FROM mixed WHERE v = 'abc'");
  EXPECT_EQ(conn_.last_stats().mvcc_versions_scanned - before, 4u) << rows;
}

// A column with more distinct values than the cap is refused for good and
// filtered on loaded rows, with the same answers.
TEST(ColumnCodesCapTest, ColumnPastTheDistinctCapFallsBack) {
  Connection conn;
  ASSERT_TRUE(conn.Execute("CREATE TABLE wide (id INTEGER, v INTEGER)").ok());
  const int64_t n = static_cast<int64_t>(ColumnCodes::kMaxDistinct) + 904;
  std::vector<Row> rows;
  for (int64_t i = 0; i < n; ++i) {
    // Near the end of the heap the values repeat, so the cap is passed
    // mid-table, after some codes were written.
    rows.push_back({Value::Int(i), Value::Int(i < n - 500 ? i : i % 7)});
  }
  rows.push_back({Value::Int(n), Value::Null()});
  Table* table = GetTable(conn, "wide");
  ASSERT_NE(table, nullptr);
  table->BulkLoadUnchecked(std::move(rows));

  for (const char* where :
       {"v = 3", "v < 10", "10 >= v", "v <> 5 AND v < 20", "v IS NULL",
        "v > 4500 AND v <= 4600", "v >= 4090 AND v < 4100"}) {
    ExpectParity(conn, "wide", where);
  }
  std::vector<uint8_t> truth;
  EXPECT_EQ(table->CodesFor(
                1, table->heap_size(), [](const Value&) { return true; },
                &truth),
            nullptr);
  // Refused: every slot is visibility-tested and the row decides.
  const uint64_t before = ScannedSoFar(conn);
  ASSERT_EQ(Rendered(conn, "SELECT COUNT(*) FROM wide WHERE v = 3").find("error"),
            std::string::npos);
  EXPECT_EQ(conn.last_stats().mvcc_versions_scanned - before,
            table->heap_size());
}

// -- Semantics of the leading run --------------------------------------------

class ColumnCodesSemanticsTest : public ::testing::Test {
 protected:
  // v is numeric where k = 'a' and TEXT elsewhere (loaded unchecked).
  void SetUp() override {
    ASSERT_TRUE(
        conn_.Execute("CREATE TABLE kv (id INTEGER, k TEXT, v TEXT)").ok());
    Table* table = GetTable(conn_, "kv");
    ASSERT_NE(table, nullptr);
    table->BulkLoadUnchecked(
        {{Value::Int(1), Value::Text("a"), Value::Int(5)},
         {Value::Int(2), Value::Text("b"), Value::Text("x")},
         {Value::Int(3), Value::Text("a"), Value::Double(-2.5)},
         {Value::Int(4), Value::Text("c"), Value::Text("y")},
         {Value::Int(5), Value::Text("a"), Value::Int(0)},
         {Value::Int(6), Value::Text("b"), Value::Text("z")}});
  }

  Connection conn_;
};

TEST_F(ColumnCodesSemanticsTest, GenericConjunctFirstStillSeesEveryRow) {
  // abs() reaches the non-numeric v of rows outside k = 'a' and fails, as
  // it does when every conjunct runs on loaded rows.
  auto r = conn_.Execute("SELECT id FROM kv WHERE abs(v) > 0 AND k = 'a'");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("abs requires a numeric argument"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(ColumnCodesSemanticsTest, DirectConjunctFirstShieldsTheRest) {
  auto r = conn_.Execute(
      "SELECT id FROM kv WHERE k = 'a' AND abs(v) > 0 ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->at(0, 0).AsInt(), 1);
  EXPECT_EQ(r->at(1, 0).AsInt(), 3);
}

TEST_F(ColumnCodesSemanticsTest, FastPathVisibilityTestsOnlyCodeMatches) {
  // Three rows hold k = 'a' out of six slots.
  uint64_t before = ScannedSoFar(conn_);
  auto r = conn_.Execute("SELECT id FROM kv WHERE k = 'a'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(conn_.last_stats().mvcc_versions_scanned - before, 3u);

  // Two direct conjuncts: both decided on codes.
  before = ScannedSoFar(conn_);
  r = conn_.Execute("SELECT id FROM kv WHERE k = 'a' AND v <> 5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(conn_.last_stats().mvcc_versions_scanned - before, 2u);

  // A generic conjunct first: nothing moves into the scan.
  before = ScannedSoFar(conn_);
  r = conn_.Execute("SELECT id FROM kv WHERE lower(k) = 'a' AND k = 'a'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(conn_.last_stats().mvcc_versions_scanned - before, 6u);

  // The same holds under a PREFERRING query's candidate scan.
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  before = ScannedSoFar(conn_);
  r = conn_.Execute("SELECT id FROM kv WHERE k = 'b' PREFERRING LOWEST(id)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(conn_.last_stats().mvcc_versions_scanned - before, 2u);
}

// -- MVCC -------------------------------------------------------------------

class ColumnCodesMvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_shared<Engine>();
    a_.Attach(engine_);
    b_.Attach(engine_);
    std::string insert = "CREATE TABLE acct (id INTEGER, k TEXT, v INTEGER);"
                         "INSERT INTO acct VALUES ";
    for (int i = 0; i < 40; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", '" + "abc"[i % 3] + "', " +
                std::to_string(i % 5) + ")";
    }
    ASSERT_TRUE(a_.ExecuteScript(insert).ok());
  }

  void ExpectParityAll(Connection& conn) {
    for (const char* where : {"k = 'a'", "k <> 'b'", "v < 3", "k = 'z'",
                              "k = 'a' AND v >= 2", "v IS NULL"}) {
      ExpectParity(conn, "acct", where);
    }
  }

  std::shared_ptr<Engine> engine_;
  Connection a_, b_;
};

TEST_F(ColumnCodesMvccTest, CodesExtendAcrossInsertUpdateDelete) {
  ExpectParityAll(a_);
  for (const char* dml :
       {"INSERT INTO acct VALUES (100, 'z', 9), (101, 'a', NULL)",
        "UPDATE acct SET k = 'z' WHERE id < 6",
        "UPDATE acct SET v = v + 1 WHERE k = 'a'",
        "DELETE FROM acct WHERE v = 2",
        "INSERT INTO acct VALUES (102, 'b', 3)"}) {
    ASSERT_TRUE(b_.Execute(dml).ok()) << dml;
    ExpectParityAll(a_);
    ExpectParityAll(b_);
  }
}

TEST_F(ColumnCodesMvccTest, PinnedCursorKeepsItsSnapshotAfterExtension) {
  const std::string before = Rendered(a_, "SELECT id FROM acct WHERE k = 'a'");
  auto cursor = a_.OpenCursor("SELECT id FROM acct WHERE k = 'a'");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = cursor->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  std::vector<Row> rows{std::move(**first).IntoRow()};

  // Another session writes and extends the codes with new values, while
  // the cursor is mid-scan.
  ASSERT_TRUE(b_.Execute("INSERT INTO acct VALUES (200, 'a', 1), "
                         "(201, 'new', 1), (202, 'newer', 2)")
                  .ok());
  ASSERT_TRUE(b_.Execute("DELETE FROM acct WHERE id = 3").ok());
  ASSERT_TRUE(b_.Execute("UPDATE acct SET k = 'b' WHERE id = 6").ok());
  EXPECT_NE(Rendered(b_, "SELECT id FROM acct WHERE k = 'a'"), before);
  ExpectParityAll(b_);

  for (;;) {
    auto row = cursor->Next();
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    if (!row->has_value()) break;
    rows.push_back(std::move(**row).IntoRow());
  }
  EXPECT_EQ(ResultTable(cursor->columns(), std::move(rows)).ToString(1u << 20),
            before);
}

TEST_F(ColumnCodesMvccTest, GcBeforeAndAfterExtension) {
  // Dead versions reclaimed before the column was ever coded: the
  // extension passes over freed payloads.
  const uint64_t gc0 =
      engine_->database().executor().stats().gc_cleared.load();
  ASSERT_TRUE(b_.Execute("UPDATE acct SET v = v + 10 WHERE id < 20").ok());
  EXPECT_GT(engine_->database().executor().stats().gc_cleared.load(), gc0);
  ExpectParityAll(a_);

  // And after: coded slots whose payloads the GC then frees.
  const uint64_t gc1 =
      engine_->database().executor().stats().gc_cleared.load();
  ASSERT_TRUE(b_.Execute("UPDATE acct SET k = 'q' WHERE id >= 20").ok());
  ASSERT_TRUE(b_.Execute("DELETE FROM acct WHERE id < 10").ok());
  EXPECT_GT(engine_->database().executor().stats().gc_cleared.load(), gc1);
  ExpectParityAll(a_);
  EXPECT_EQ(Rendered(a_, "SELECT COUNT(*) FROM acct WHERE k = 'q'"),
            Rendered(a_, "SELECT COUNT(*) FROM (SELECT * FROM acct) s "
                    "WHERE k = 'q'"));
}

// Readers extend the codes while a writer appends new dictionary values,
// updates and deletes. Every id the writer inserted with k = 'a' stays
// 'a' (updates touch v only), so a reader at any snapshot must see exactly
// the 'a' ids up to the largest one it sees, each once.
TEST_F(ColumnCodesMvccTest, ConcurrentReadersExtendBesideAWriter) {
  ASSERT_TRUE(a_.Execute("DELETE FROM acct").ok());
  constexpr int kWrites = 150;
  constexpr int kReaders = 2;
  std::atomic<bool> done{false};
  std::vector<std::string> errors(kReaders + 1);

  std::thread writer([&] {
    Connection conn;
    conn.Attach(engine_);
    for (int i = 0; i < kWrites && errors[kReaders].empty(); ++i) {
      const std::string k = i % 3 == 0 ? "k" + std::to_string(i) : "a";
      std::string sql = "INSERT INTO acct VALUES (" + std::to_string(i) +
                        ", '" + k + "', " + std::to_string(i % 7) + ")";
      if (i % 10 == 9) sql = "UPDATE acct SET v = v + 1 WHERE k = 'a'";
      if (i % 10 == 5) {
        sql = "DELETE FROM acct WHERE id = " + std::to_string(i - 5);
        if ((i - 5) % 3 != 0) sql = "DELETE FROM acct WHERE id = -1";
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
      conn.Attach(engine_);
      while (!done.load() && errors[id].empty()) {
        auto r = conn.Execute("SELECT id FROM acct WHERE k = 'a'");
        if (!r.ok()) {
          errors[id] = r.status().ToString();
          return;
        }
        std::vector<int64_t> ids;
        for (size_t i = 0; i < r->num_rows(); ++i) {
          ids.push_back(r->at(i, 0).AsInt());
        }
        std::sort(ids.begin(), ids.end());
        if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
          errors[id] = "duplicate id";
          return;
        }
        if (ids.empty()) continue;
        // Rows with k = 'a' are the inserted ids i with i % 3 != 0 and
        // i % 10 not in {5, 9} (those statements insert nothing).
        size_t expected = 0;
        for (int64_t i = 0; i <= ids.back(); ++i) {
          if (i % 3 != 0 && i % 10 != 5 && i % 10 != 9) ++expected;
        }
        if (ids.size() != expected) {
          errors[id] = "torn read: " + std::to_string(ids.size()) +
                       " ids up to " + std::to_string(ids.back()) +
                       ", expected " + std::to_string(expected);
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  for (const auto& e : errors) EXPECT_TRUE(e.empty()) << e;
  ExpectParityAll(a_);
}

}  // namespace
}  // namespace prefsql
