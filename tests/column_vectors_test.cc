// Slot-indexed numeric column vectors (storage/numeric_column.h) and the
// key build that reads them by slot (core/slot_keys.h).
//
//   * Bit parity: SlotKeys gives exactly CompiledPreference::AppendKey's
//     keys — scores compared by bit pattern — over a mixed-type column
//     holding INT, DOUBLE (NaN, +-inf, -0.0), DATE, date text, other TEXT,
//     NULL, BOOL and int64s above 2^53, and over random trees that mix
//     vector leaves with row-evaluated (categorical, expression) leaves.
//   * Answers: a PREFERRING query on the base table (vectors) returns what
//     the same query returns over `(SELECT * FROM t) s` (rows), with and
//     without WHERE, and the stats show which path keyed the leaves.
//   * MVCC: keys and answers stay identical across INSERT/UPDATE/DELETE and
//     GC-cleared slots, a pinned cursor keeps its snapshot's answer after
//     another session extended the vectors, and concurrent readers extend
//     the vectors beside a writer (this suite runs in the CI TSan job).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/connection.h"
#include "core/slot_keys.h"
#include "random_pref.h"
#include "sql/parser.h"
#include "util/random.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

constexpr int64_t kTwo53 = int64_t{1} << 53;

Table* GetTable(Connection& conn, const std::string& name) {
  auto table = conn.database().catalog().GetTable(name);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? *table : nullptr;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// Keys of `text` over every live slot of `table`, built by SlotKeys (column
// vectors) and by CompiledPreference::AppendKey (rows), must match bit for
// bit, and fail alike. Returns SlotKeys' vector leaf count.
size_t ExpectSlotKeysMatchRows(const Table& table, const std::string& text) {
  SCOPED_TRACE(text);
  auto term = ParsePreference(text);
  EXPECT_TRUE(term.ok()) << term.status().ToString();
  if (!term.ok()) return 0;
  auto pref = CompiledPreference::Compile(**term);
  EXPECT_TRUE(pref.ok()) << pref.status().ToString();
  if (!pref.ok()) return 0;
  const Schema schema = table.schema().WithQualifier(table.name());
  const std::vector<BoundExpr> leaves = pref->BindLeaves(schema);
  const size_t limit = table.heap_size();
  auto made = SlotKeys::Make(*pref, leaves, schema, table, limit, nullptr);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  if (!made.ok()) return 0;
  const SlotKeys& slot_keys = *made;
  KeyStore by_slot(pref->num_leaves()), by_row(pref->num_leaves());
  for (size_t slot = 0; slot < limit; ++slot) {
    if (table.heap().payload_cleared(slot)) continue;
    const Status a = slot_keys.Append(slot, &by_slot);
    const Status b =
        pref->AppendKey(leaves, schema, table.heap().row(slot), &by_row);
    EXPECT_EQ(a.ToString(), b.ToString()) << "slot " << slot;
  }
  EXPECT_EQ(by_slot.size(), by_row.size());
  for (size_t r = 0; r < std::min(by_slot.size(), by_row.size()); ++r) {
    for (size_t l = 0; l < pref->num_leaves(); ++l) {
      const LeafKey a = by_slot.key(r, l), b = by_row.key(r, l);
      EXPECT_EQ(Bits(a.score), Bits(b.score))
          << "key row " << r << " leaf " << l << ": " << a.score << " vs "
          << b.score;
      EXPECT_EQ(a.explicit_id, b.explicit_id);
    }
  }
  return slot_keys.vector_leaves();
}

// Runs `sql` and returns its rows rendered, or the error text.
std::string Rendered(Connection& conn, const std::string& sql) {
  auto result = conn.Execute(sql);
  if (!result.ok()) return "error: " + result.status().ToString();
  return result->ToString(1u << 20);
}

// The same preference query on the base table and over a FROM subquery
// (whose candidates carry no heap slots, so its key build evaluates rows).
// Returns the base-table run's vector leaf count.
size_t ExpectAnswerParity(Connection& conn, const std::string& table,
                          const std::string& where, const std::string& pref,
                          const std::string& items = "id") {
  const std::string tail =
      (where.empty() ? "" : " WHERE " + where) + " PREFERRING " + pref;
  const std::string vectors =
      Rendered(conn, "SELECT " + items + " FROM " + table + tail);
  const size_t vector_leaves = conn.last_stats().bmo_vector_leaves;
  const std::string rows = Rendered(
      conn, "SELECT " + items + " FROM (SELECT * FROM " + table + ") s" + tail);
  EXPECT_EQ(conn.last_stats().bmo_vector_leaves, 0u) << tail;
  EXPECT_EQ(vectors, rows) << tail;
  return vector_leaves;
}

std::vector<Value> MixedValues() {
  const double inf = std::numeric_limits<double>::infinity();
  return {Value::Null(),
          Value::Double(std::numeric_limits<double>::quiet_NaN()),
          Value::Double(inf),
          Value::Double(-inf),
          Value::Double(-0.0),
          Value::Double(0.0),
          Value::Int(0),
          Value::Int(7),
          Value::Double(7.0),
          Value::Int(-3),
          Value::Double(-1.5),
          Value::Int(kTwo53),
          Value::Int(kTwo53 + 1),
          Value::Int(std::numeric_limits<int64_t>::max()),
          Value::Date(100),
          Value::Date(-20),
          Value::Text("1970-04-11"),  // day 100 as date text
          Value::Text("abc"),
          Value::Text(""),
          Value::Text("12"),  // numeric-looking text is not numeric
          Value::Bool(true),
          Value::Bool(false)};
}

const char* const kMixedPreferences[] = {
    "LOWEST(v)",
    "HIGHEST(v)",
    "v AROUND 7",
    "v AROUND DATE '1970-04-11'",
    "v BETWEEN -2, 100",
    "DUAL(LOWEST(v))",
    "DUAL(v AROUND 0 AND HIGHEST(w))",
    "LOWEST(v) AND HIGHEST(w)",
    "v AROUND 0 CASCADE w BETWEEN 0, 7",
    "v IN (7, 'abc') AND LOWEST(w)",
    "v = NULL CASCADE HIGHEST(w)",
    "w CONTAINS 'b' AND LOWEST(v)"};

class ColumnVectorsMixedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        conn_.Execute("CREATE TABLE mixed (id INTEGER, v TEXT, w TEXT)").ok());
    ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
    std::vector<Value> values = MixedValues();
    std::vector<Row> rows;
    for (size_t copy = 0; copy < 3; ++copy) {
      for (size_t i = 0; i < values.size(); ++i) {
        const Value& w = values[(i * 5 + copy) % values.size()];
        rows.push_back({Value::Int(static_cast<int64_t>(rows.size())),
                        values[(i + copy) % values.size()], w});
      }
    }
    Table* table = GetTable(conn_, "mixed");
    ASSERT_NE(table, nullptr);
    table->BulkLoadUnchecked(std::move(rows));
  }

  Connection conn_;
};

TEST_F(ColumnVectorsMixedTest, KeysAreBitIdenticalToAppendKey) {
  Table* table = GetTable(conn_, "mixed");
  ASSERT_NE(table, nullptr);
  for (const char* pref : kMixedPreferences) {
    ExpectSlotKeysMatchRows(*table, pref);
  }
  EXPECT_EQ(ExpectSlotKeysMatchRows(*table, "LOWEST(v) AND HIGHEST(w)"), 2u);
  EXPECT_EQ(ExpectSlotKeysMatchRows(*table, "v IN (7) AND HIGHEST(w)"), 1u);
  // Leaves over an expression evaluate rows; abs() fails on TEXT alike.
  EXPECT_EQ(ExpectSlotKeysMatchRows(*table, "LOWEST(abs(v)) AND LOWEST(w)"),
            1u);
}

TEST_F(ColumnVectorsMixedTest, AnswersMatchTheRowPath) {
  for (const char* pref : kMixedPreferences) {
    ExpectAnswerParity(conn_, "mixed", "", pref);
    ExpectAnswerParity(conn_, "mixed", "id > 4", pref);
  }
  // Quality functions and BUT ONLY read the same keys.
  ExpectAnswerParity(conn_, "mixed", "", "LOWEST(v) AND w AROUND 7",
                     "id, LEVEL(v), DISTANCE(w), TOP(v)");
  ExpectAnswerParity(conn_, "mixed", "id < 40",
                     "v AROUND 7 BUT ONLY DISTANCE(v) < 10");
  // GROUPING partitions over the vector-keyed candidates.
  ExpectAnswerParity(conn_, "mixed", "", "LOWEST(v) GROUPING w");
}

// -- The car table: random trees ---------------------------------------------

class ColumnVectorsCarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(GenerateUsedCars(conn_.database(), 3000, 7).ok());
    ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  }

  Connection conn_;
};

TEST_F(ColumnVectorsCarTest, RandomMixedTreesKeyAndAnswerAlike) {
  Table* table = GetTable(conn_, "car");
  ASSERT_NE(table, nullptr);
  Random rng(20);
  for (int i = 0; i < 40; ++i) {
    const std::string pref = testutil::RandomMixedCarPreferenceText(rng);
    ExpectSlotKeysMatchRows(*table, pref);
    if (i % 4 == 0) {
      ExpectAnswerParity(conn_, "car", "", pref);
    } else {
      ExpectAnswerParity(conn_, "car",
                         i % 2 ? "category = 'suv'" : "make <> 'Opel'", pref);
    }
  }
}

TEST_F(ColumnVectorsCarTest, StatsShowTheVectorPath) {
  // The paper's car-dealer search: three vector leaves, filtered scan.
  EXPECT_EQ(ExpectAnswerParity(conn_, "car", "category = 'suv'",
                               "price AROUND 20000 AND LOWEST(mileage) AND "
                               "HIGHEST(power)"),
            3u);
  EXPECT_GT(conn_.last_stats().bmo_key_build_ns, 0u);
  // Bare scan (position mode, key cache): categorical leaves evaluate rows.
  EXPECT_EQ(ExpectAnswerParity(conn_, "car", "",
                               "make IN ('BMW') AND LOWEST(price)"),
            1u);
  // Index path.
  ASSERT_TRUE(conn_.Execute("CREATE INDEX car_age ON car (age)").ok());
  EXPECT_EQ(ExpectAnswerParity(conn_, "car", "age = 3",
                               "LOWEST(mileage) AND HIGHEST(power)"),
            2u);
  // A leaf over an expression is no vector leaf.
  EXPECT_EQ(ExpectAnswerParity(conn_, "car", "age < 5",
                               "LOWEST(price + mileage)"),
            0u);
}

// -- MVCC --------------------------------------------------------------------

class ColumnVectorsMvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_shared<Engine>();
    a_.Attach(engine_);
    b_.Attach(engine_);
    std::string script =
        "SET evaluation_mode = bnl; "
        "CREATE TABLE acct (id INTEGER, k TEXT, v INTEGER, w DOUBLE);"
        "INSERT INTO acct VALUES ";
    for (int i = 0; i < 60; ++i) {
      if (i > 0) script += ", ";
      const std::string v = i % 11 == 0 ? "NULL" : std::to_string(i % 13);
      script += "(" + std::to_string(i) + ", '" + "abc"[i % 3] + "', " + v +
                ", " + std::to_string((i * 7) % 17) + ".5)";
    }
    ASSERT_TRUE(a_.ExecuteScript(script).ok());
    ASSERT_TRUE(b_.Execute("SET evaluation_mode = bnl").ok());
  }

  Table* acct() { return GetTable(a_, "acct"); }

  void ExpectParityAll(Connection& conn) {
    for (const char* pref :
         {"LOWEST(v) AND HIGHEST(w)", "v AROUND 6 CASCADE LOWEST(w)",
          "k IN ('a') AND LOWEST(v)"}) {
      ExpectAnswerParity(conn, "acct", "", pref);
      ExpectAnswerParity(conn, "acct", "k <> 'b'", pref);
      ExpectSlotKeysMatchRows(*acct(), pref);
    }
  }

  std::shared_ptr<Engine> engine_;
  Connection a_, b_;
};

TEST_F(ColumnVectorsMvccTest, KeysStayIdenticalAcrossInsertUpdateDelete) {
  ExpectParityAll(a_);
  for (const char* dml :
       {"INSERT INTO acct VALUES (100, 'a', -5, 99.5), (101, 'b', NULL, 0)",
        "UPDATE acct SET v = v + 20 WHERE id < 9",
        "UPDATE acct SET w = -w WHERE k = 'a'",
        "DELETE FROM acct WHERE v = 4",
        "INSERT INTO acct VALUES (102, 'c', 3, 3.5)"}) {
    ASSERT_TRUE(b_.Execute(dml).ok()) << dml;
    ExpectParityAll(a_);
    ExpectParityAll(b_);
  }
}

TEST_F(ColumnVectorsMvccTest, GcClearedSlotsBeforeAndAfterExtension) {
  // Payloads reclaimed before the vectors were ever built.
  auto& stats = engine_->database().executor().stats();
  const uint64_t gc0 = stats.gc_cleared.load();
  ASSERT_TRUE(b_.Execute("UPDATE acct SET v = v + 10 WHERE id < 30").ok());
  EXPECT_GT(stats.gc_cleared.load(), gc0);
  ExpectParityAll(a_);

  // And after: vector slots whose payloads the GC then frees.
  const uint64_t gc1 = stats.gc_cleared.load();
  ASSERT_TRUE(b_.Execute("UPDATE acct SET w = w + 1 WHERE id >= 30").ok());
  ASSERT_TRUE(b_.Execute("DELETE FROM acct WHERE id < 15").ok());
  EXPECT_GT(stats.gc_cleared.load(), gc1);
  ExpectParityAll(a_);
}

TEST_F(ColumnVectorsMvccTest, PinnedCursorKeepsItsSnapshotAfterExtension) {
  for (const char* where : {"", " WHERE k <> 'b'"}) {
    const std::string sql = std::string("SELECT id FROM acct") + where +
                            " PREFERRING LOWEST(v) AND HIGHEST(w)";
    const std::string before = Rendered(a_, sql);
    auto cursor = a_.OpenCursor(sql);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

    // Another session writes a new best row and extends the vectors past
    // the cursor's snapshot before the cursor runs its BMO.
    ASSERT_TRUE(b_.Execute("INSERT INTO acct VALUES (300, 'a', -100, 1e9)")
                    .ok());
    EXPECT_NE(Rendered(b_, sql), before);
    ExpectParityAll(b_);

    std::vector<Row> rows;
    for (;;) {
      auto row = cursor->Next();
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      if (!row->has_value()) break;
      rows.push_back(std::move(**row).IntoRow());
    }
    EXPECT_EQ(
        ResultTable(cursor->columns(), std::move(rows)).ToString(1u << 20),
        before);
    ASSERT_TRUE(b_.Execute("DELETE FROM acct WHERE id = 300").ok());
  }
}

// Readers key by slot while a writer appends, updates and deletes. Every
// inserted row i has v = 1000 - i and w = i, and the writer never deletes
// the newest row, so at any snapshot the one maximal row of
// LOWEST(v) AND HIGHEST(w) is the newest visible insert: a key read from
// the wrong slot, or past the snapshot, would show as another row or a
// second one.
TEST_F(ColumnVectorsMvccTest, ConcurrentReadersExtendBesideAWriter) {
  ASSERT_TRUE(a_.Execute("DELETE FROM acct").ok());
  ASSERT_TRUE(a_.Execute("INSERT INTO acct VALUES (0, 'a', 1000, 0)").ok());
  constexpr int kWrites = 150;
  constexpr int kReaders = 2;
  std::atomic<bool> done{false};
  std::vector<std::string> errors(kReaders + 1);

  std::thread writer([&] {
    Connection conn;
    conn.Attach(engine_);
    for (int i = 1; i <= kWrites && errors[kReaders].empty(); ++i) {
      std::string sql = "INSERT INTO acct VALUES (" + std::to_string(i) +
                        ", '" + "abc"[i % 3] + "', " +
                        std::to_string(1000 - i) + ", " + std::to_string(i) +
                        ")";
      if (i % 10 == 4) sql = "UPDATE acct SET k = 'z' WHERE k = 'b'";
      if (i % 10 == 7) {
        sql = "DELETE FROM acct WHERE id = " + std::to_string(i - 5);
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
      if (!conn.Execute("SET evaluation_mode = bnl").ok()) {
        errors[id] = "SET failed";
        return;
      }
      int64_t last = -1;
      for (int round = 0; !done.load() && errors[id].empty(); ++round) {
        const std::string sql =
            std::string("SELECT id, v FROM acct") +
            (round % 2 ? " WHERE k <> 'q'" : "") +
            " PREFERRING LOWEST(v) AND HIGHEST(w)";
        auto r = conn.Execute(sql);
        if (!r.ok()) {
          errors[id] = r.status().ToString();
          return;
        }
        if (r->num_rows() != 1) {
          errors[id] = sql + ": " + std::to_string(r->num_rows()) + " rows";
          return;
        }
        const int64_t top = r->at(0, 0).AsInt();
        if (r->at(0, 1).AsInt() != 1000 - top || top < last) {
          errors[id] = sql + ": row " + r->ToString(16) + " after " +
                       std::to_string(last);
          return;
        }
        last = top;
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
