// Cursor snapshot stability under concurrent DML, across every golden
// engine configuration.
//
// A streaming cursor pins the snapshot epoch current at OpenCursor time;
// every row it yields afterwards must come from that point-in-time view no
// matter how much DML lands mid-stream. And because readers never block
// writers under MVCC, the concurrent DML itself must finish while the
// cursor is still open — asserted with a hard timeout, not a sleep.
//
// The matrix mirrors the sql_golden_test variants: rewrite (statement-local
// Aux views), direct serial, direct parallel, sfs with pushdown off, and the
// LESS algorithm — the snapshot contract is plan-independent: every variant
// streams from a pinned snapshot.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/connection.h"

namespace prefsql {
namespace {

struct Variant {
  const char* label;
  const char* prelude;  // semicolon-separated SET statements (may be empty)
};

constexpr Variant kVariants[] = {
    {"rewrite (default)", ""},
    {"direct serial", "SET evaluation_mode = bnl"},
    {"direct parallel",
     "SET evaluation_mode = bnl; SET bmo_threads = 4; "
     "SET parallel_min_rows = 1"},
    {"sfs, pushdown off",
     "SET evaluation_mode = bnl; SET bmo_algorithm = sfs; "
     "SET preference_pushdown = off"},
    {"direct less", "SET evaluation_mode = bnl; SET bmo_algorithm = less"},
};

constexpr const char* kQuery =
    "SELECT id, price, mileage FROM car "
    "PREFERRING LOWEST(price) AND LOWEST(mileage) ORDER BY id";

void PopulateCar(Connection& conn) {
  ASSERT_TRUE(conn.Execute("CREATE TABLE car (id INTEGER, price INTEGER, "
                           "mileage INTEGER)")
                  .ok());
  std::string insert = "INSERT INTO car VALUES ";
  for (int i = 0; i < 60; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(40 + i % 13) +
              ", " + std::to_string(40 + (60 - i) % 11) + ")";
  }
  ASSERT_TRUE(conn.Execute(insert).ok());
}

// The DML burst a writer fires while the cursor is mid-stream: a delete
// and an update of likely winners, then a new row dominating the whole
// table — each would change the result if it leaked into the snapshot.
Status Churn(Connection& writer) {
  PSQL_RETURN_IF_ERROR(
      writer.Execute("DELETE FROM car WHERE price <= 41").status());
  PSQL_RETURN_IF_ERROR(
      writer.Execute("UPDATE car SET mileage = 2 WHERE id = 30").status());
  return writer.Execute("INSERT INTO car VALUES (999, 1, 1)").status();
}

TEST(CursorSnapshotTest, RowsMatchOpenTimeSnapshotUnderConcurrentDml) {
  for (const Variant& variant : kVariants) {
    SCOPED_TRACE(variant.label);
    auto engine = std::make_shared<Engine>();
    Connection reader;
    reader.Attach(engine);
    PopulateCar(reader);
    if (*variant.prelude != '\0') {
      ASSERT_TRUE(reader.ExecuteScript(variant.prelude).ok());
    }

    // The open-time truth: the same query, same plan, materialized before
    // any concurrent DML exists.
    auto before = reader.Execute(kQuery);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_GT(before->num_rows(), 1u);

    auto cursor = reader.OpenCursor(kQuery);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

    // Pull one row, then let a second connection churn the table. The DML
    // must complete while the cursor is open — readers don't block writers.
    std::vector<Row> rows;
    auto first = cursor->Next();
    ASSERT_TRUE(first.ok() && first->has_value());
    rows.push_back(std::move(**first).IntoRow());

    Connection writer;
    writer.Attach(engine);
    auto dml = std::async(std::launch::async,
                          [&writer]() { return Churn(writer); });
    ASSERT_EQ(dml.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "DML blocked behind an open cursor";
    ASSERT_TRUE(dml.get().ok());

    for (;;) {
      auto row = cursor->Next();
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      if (!row->has_value()) break;
      rows.push_back(std::move(**row).IntoRow());
    }

    // The cursor streamed from a pinned snapshot.
    EXPECT_GT(reader.last_stats().pinned_epoch, 0u);

    // Byte-identical to the open-time snapshot.
    const ResultTable streamed(before->schema(), std::move(rows));
    EXPECT_EQ(streamed.ToString(1000), before->ToString(1000));

    // And the snapshot really was point-in-time: a fresh statement sees the
    // churned table (dominator row 999 evicts everything else).
    auto after = reader.Execute(kQuery);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ASSERT_EQ(after->num_rows(), 1u);
    EXPECT_EQ(after->at(0, 0).AsInt(), 999);
  }
}

TEST(CursorSnapshotTest, PlainScanCursorIsSnapshotStable) {
  // Same contract for a non-preference streaming scan: DML mid-stream is
  // invisible, both the appended version and the deleted one.
  auto engine = std::make_shared<Engine>();
  Connection reader;
  reader.Attach(engine);
  PopulateCar(reader);

  // No ORDER BY: rows stream straight off the heap scan in append order,
  // so the tail of the stream genuinely crosses the DML commit point.
  auto before = reader.Execute("SELECT id, price FROM car");
  ASSERT_TRUE(before.ok());
  auto cursor = reader.OpenCursor("SELECT id, price FROM car");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<Row> rows;
  auto first = cursor->Next();
  ASSERT_TRUE(first.ok() && first->has_value());
  rows.push_back(std::move(**first).IntoRow());

  Connection writer;
  writer.Attach(engine);
  auto dml = std::async(std::launch::async, [&writer]() { return Churn(writer); });
  ASSERT_EQ(dml.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "DML blocked behind an open cursor";
  ASSERT_TRUE(dml.get().ok());

  for (;;) {
    auto row = cursor->Next();
    ASSERT_TRUE(row.ok());
    if (!row->has_value()) break;
    rows.push_back(std::move(**row).IntoRow());
  }
  const ResultTable streamed(before->schema(), std::move(rows));
  EXPECT_EQ(streamed.ToString(1000), before->ToString(1000));

  auto after = reader.Execute("SELECT id, price FROM car");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->ToString(1000), before->ToString(1000));
}

TEST(CursorSnapshotTest, ViewMaterializationsStayWithTheirStatement) {
  // A view a statement materializes belongs to that statement's plan, at
  // its snapshot. Another session's statement over the same view — run
  // after a write, at a newer snapshot — must neither replace nor clear
  // it while the first statement's cursor is still streaming.
  auto engine = std::make_shared<Engine>();
  Connection a;
  a.Attach(engine);
  ASSERT_TRUE(a.Execute("CREATE TABLE t (id INTEGER)").ok());
  std::string insert = "INSERT INTO t VALUES (0)";
  for (int i = 1; i < 3000; ++i) insert += ", (" + std::to_string(i) + ")";
  ASSERT_TRUE(a.Execute(insert).ok());
  ASSERT_TRUE(a.Execute("CREATE VIEW v AS SELECT id FROM t").ok());

  // The scalar subquery re-runs for every row of t; each run must find the
  // view as the cursor's snapshot saw it.
  auto cursor =
      a.OpenCursor("SELECT id FROM t WHERE (SELECT COUNT(*) FROM v) = 3000");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  size_t rows = 0;
  for (; rows < 10; ++rows) {
    auto row = cursor->Next();
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(row->has_value());
  }

  Connection b;
  b.Attach(engine);
  ASSERT_TRUE(b.Execute("INSERT INTO t VALUES (99999)").ok());
  auto count = b.Execute("SELECT COUNT(*) FROM v");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->at(0, 0).AsInt(), 3001);

  for (;;) {
    auto row = cursor->Next();
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    if (!row->has_value()) break;
    ++rows;
  }
  EXPECT_EQ(rows, 3000u);
}

}  // namespace
}  // namespace prefsql
