// The streaming Cursor surface: row-identical to materialized Execute,
// prompt lock release and stats flushing on early Close (LIMIT-k client
// stop), auto-close at end of stream, and stable error codes on misuse.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/connection.h"

namespace prefsql {
namespace {

class CursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(conn_.Execute("CREATE TABLE pts (id INTEGER, x INTEGER, "
                              "y INTEGER)")
                    .ok());
    std::string insert = "INSERT INTO pts VALUES ";
    for (int i = 0; i < 200; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 17) +
                ", " + std::to_string((200 - i) % 17) + ")";
    }
    ASSERT_TRUE(conn_.Execute(insert).ok());
  }

  Connection conn_;
};

TEST_F(CursorTest, StreamsPlainSelectsRowIdentically) {
  const std::string q = "SELECT id, x FROM pts WHERE x > 5 ORDER BY id";
  auto materialized = conn_.Execute(q);
  ASSERT_TRUE(materialized.ok());
  auto cursor = conn_.OpenCursor(q);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor->columns().num_columns(), 2u);
  size_t n = 0;
  for (;;) {
    auto row = cursor->Next();
    ASSERT_TRUE(row.ok());
    if (!row->has_value()) break;
    ASSERT_LT(n, materialized->num_rows());
    EXPECT_EQ((**row).row()[0].AsInt(), materialized->at(n, 0).AsInt());
    ++n;
  }
  EXPECT_EQ(n, materialized->num_rows());
  // End of stream auto-closed the cursor.
  EXPECT_FALSE(cursor->is_open());
  EXPECT_EQ(cursor->rows_streamed(), n);
}

TEST_F(CursorTest, StreamsPreferenceQueriesInEveryDirectMode) {
  for (const char* mode : {"bnl", "naive", "sfs"}) {
    ASSERT_TRUE(conn_.ExecuteScript(
                         "SET evaluation_mode = bnl; SET bmo_algorithm = " +
                         std::string(mode))
                    .ok());
    const std::string q =
        "SELECT id, x, y FROM pts PREFERRING LOWEST(x) AND LOWEST(y) "
        "ORDER BY id";
    auto materialized = conn_.Execute(q);
    ASSERT_TRUE(materialized.ok());
    auto cursor = conn_.OpenCursor(q);
    ASSERT_TRUE(cursor.ok()) << mode << ": " << cursor.status().ToString();
    size_t n = 0;
    for (;;) {
      auto row = cursor->Next();
      ASSERT_TRUE(row.ok());
      if (!row->has_value()) break;
      EXPECT_EQ((**row).row()[0].AsInt(), materialized->at(n, 0).AsInt())
          << mode;
      ++n;
    }
    EXPECT_EQ(n, materialized->num_rows()) << mode;
  }
}

TEST_F(CursorTest, RewriteModeStreamsFromAPinnedSnapshot) {
  // The rewritten query streams like any SELECT, its Aux view bound
  // statement-locally: same rows as the one-shot Execute.
  const std::string q =
      "SELECT id FROM pts PREFERRING x AROUND 9 ORDER BY id";
  auto materialized = conn_.Execute(q);
  ASSERT_TRUE(materialized.ok());
  EXPECT_TRUE(conn_.last_stats().used_rewrite);
  auto cursor = conn_.OpenCursor(q);
  ASSERT_TRUE(cursor.ok());
  auto table = DrainCursor(*cursor);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->ToString(), materialized->ToString());
  EXPECT_TRUE(conn_.last_stats().used_rewrite);
  EXPECT_GT(conn_.last_stats().pinned_epoch, 0u);
}

TEST_F(CursorTest, CursorsStreamWithThePlanCacheOff) {
  // The plan_cache knob only decides whether the cache is consulted: every
  // SELECT still streams. A streaming cursor publishes its result count on
  // Close; one drained at open would report it after the first Next.
  const std::string queries[] = {
      "SELECT id, x FROM pts WHERE x > 5 ORDER BY id",
      "SELECT id, x, y FROM pts PREFERRING LOWEST(x) AND LOWEST(y) "
      "ORDER BY id",
  };
  auto stream = [&](const std::string& q, bool check_streaming) {
    auto cursor = conn_.OpenCursor(q);
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    if (!cursor.ok()) return std::string();
    std::vector<Row> rows;
    for (;;) {
      auto row = cursor->Next();
      EXPECT_TRUE(row.ok()) << row.status().ToString();
      if (!row.ok() || !row->has_value()) break;
      rows.push_back(std::move(**row).IntoRow());
      if (check_streaming && rows.size() == 1) {
        EXPECT_EQ(conn_.last_stats().result_count, 0u);
        EXPECT_GT(conn_.last_stats().pinned_epoch, 0u);
      }
    }
    EXPECT_GT(rows.size(), 1u);
    return ResultTable(cursor->columns(), std::move(rows)).ToString();
  };
  for (const char* mode : {"rewrite", "bnl"}) {
    for (const std::string& q : queries) {
      SCOPED_TRACE(std::string(mode) + ": " + q);
      ASSERT_TRUE(conn_.ExecuteScript("SET plan_cache = on; "
                                      "SET evaluation_mode = " +
                                      std::string(mode))
                      .ok());
      const std::string cached = stream(q, /*check_streaming=*/false);
      ASSERT_TRUE(conn_.Execute("SET plan_cache = off").ok());
      EXPECT_EQ(stream(q, /*check_streaming=*/true), cached);
      EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
    }
  }
}

TEST_F(CursorTest, EarlyCloseReleasesTheStatementLockAndFlushesStats) {
  // LIMIT-k client stop: pull a handful of rows from a streaming skyline,
  // close, and the engine must accept a writer immediately (the shared
  // statement lock is gone) with the preference stats still recorded.
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  auto cursor = conn_.OpenCursor(
      "SELECT id, x, y FROM pts PREFERRING LOWEST(x) AND LOWEST(y)");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  for (int i = 0; i < 3; ++i) {
    auto row = cursor->Next();
    ASSERT_TRUE(row.ok());
    ASSERT_TRUE(row->has_value());
  }
  cursor->Close();
  EXPECT_FALSE(cursor->is_open());

  // The early-closed run still recorded its counters (the BMO operator
  // flushes on Close even when the consumer stopped pulling).
  const PreferenceQueryStats& stats = conn_.last_stats();
  EXPECT_TRUE(stats.was_preference_query);
  EXPECT_EQ(stats.candidate_count, 200u);
  EXPECT_GT(stats.bmo_comparisons, 0u);
  EXPECT_EQ(stats.result_count, 3u);  // rows actually streamed

  // A same-thread writer statement must not deadlock: the lock is free.
  auto write = conn_.Execute("INSERT INTO pts VALUES (999, 0, 0)");
  ASSERT_TRUE(write.ok()) << write.status().ToString();
}

TEST_F(CursorTest, LateCloseDoesNotClobberANewerStatementsStats) {
  // A cursor closed after another statement ran must not overwrite that
  // statement's last_stats with its own open-time snapshot.
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  auto cursor = conn_.OpenCursor(
      "SELECT id FROM pts PREFERRING LOWEST(x) AND LOWEST(y)");
  ASSERT_TRUE(cursor.ok());
  auto row = cursor->Next();
  ASSERT_TRUE(row.ok());
  // A later read statement takes over last_stats (reads share the lock, so
  // this does not deadlock).
  auto other = conn_.Execute("SELECT id FROM pts PREFERRING HIGHEST(x)");
  ASSERT_TRUE(other.ok());
  const size_t other_result_count = conn_.last_stats().result_count;
  cursor->Close();
  EXPECT_EQ(conn_.last_stats().result_count, other_result_count);
  EXPECT_EQ(conn_.last_stats().bmo_algorithm, "block-nested-loop");
}

TEST_F(CursorTest, NextAfterCloseReportsExecutionError) {
  auto cursor = conn_.OpenCursor("SELECT id FROM pts ORDER BY id");
  ASSERT_TRUE(cursor.ok());
  auto row = cursor->Next();
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  cursor->Close();
  cursor->Close();  // idempotent
  auto after = cursor->Next();
  EXPECT_TRUE(after.status().IsExecutionError());
  // Column metadata survives Close.
  EXPECT_EQ(cursor->columns().num_columns(), 1u);
}

TEST_F(CursorTest, WriteStatementsYieldMaterializedCursors) {
  auto cursor = conn_.OpenCursor("INSERT INTO pts VALUES (1000, 1, 1)");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto row = cursor->Next();
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row).row()[0].AsInt(), 1);  // rows_affected
  auto end = cursor->Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST_F(CursorTest, ExplainStreamsItsPlanText) {
  auto cursor = conn_.OpenCursor(
      "EXPLAIN SELECT id FROM pts PREFERRING LOWEST(x)");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto table = DrainCursor(*cursor);
  ASSERT_TRUE(table.ok());
  EXPECT_GT(table->num_rows(), 0u);
}

TEST_F(CursorTest, TopKStopTouchesProgressiveTopKPath) {
  // Progressive top-k pushdown (bare LIMIT in sort-filter mode) streamed
  // through a cursor: the client sees exactly k rows.
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(conn_.Execute("SET bmo_algorithm = sfs").ok());
  auto cursor = conn_.OpenCursor(
      "SELECT id, x, y FROM pts PREFERRING LOWEST(x) AND LOWEST(y) LIMIT 2");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto table = DrainCursor(*cursor);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
}

}  // namespace
}  // namespace prefsql
