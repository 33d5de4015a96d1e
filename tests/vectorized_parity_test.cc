// Batch pipeline parity: every query must produce byte-identical output
// across the four golden engine configurations, over randomized tables that
// include NULL holes and NaN doubles (the values whose comparison semantics
// most easily diverge between a per-row predicate and a selection-vector
// filter), and the filter-only shapes must return exactly the ids an oracle
// computes straight from the generated rows. A skyline over a base table,
// whose BMO pulls heap slots instead of rows, must match the same statement
// over a FROM subquery and keep the statement's counters. Plus the
// mid-stream robustness cases: a cancel or timeout arriving while a cursor
// holds a latched, half-replayed batch must unwind promptly and cleanly.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/connection.h"
#include "util/random.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

// Rows of `data(id, a, b, c, tag)`: `a` int with NULL holes, `b` double
// with NULL holes, `c` double with NaN values, `tag` a low-cardinality text.
std::vector<Row> RandomRows(size_t n, uint64_t seed) {
  Random rng(seed);
  const std::vector<std::string> tags = {"low", "mid", "high"};
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::Int(rng.Uniform(0, 100)));
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null()
                      : Value::Double(rng.UniformDouble(0.0, 50.0)));
    row.push_back(rng.Bernoulli(0.05)
                      ? Value::Double(std::numeric_limits<double>::quiet_NaN())
                      : Value::Double(rng.UniformDouble(-10.0, 10.0)));
    row.push_back(Value::Text(rng.Choice(tags)));
    rows.push_back(std::move(row));
  }
  return rows;
}

Status LoadRandomTable(Database& db, std::vector<Row> rows) {
  std::vector<ColumnDef> cols = {{"id", ColumnType::kInt},
                                 {"a", ColumnType::kInt},
                                 {"b", ColumnType::kDouble},
                                 {"c", ColumnType::kDouble},
                                 {"tag", ColumnType::kText}};
  PSQL_RETURN_IF_ERROR(db.catalog().CreateTable("data", std::move(cols),
                                                /*if_not_exists=*/false));
  PSQL_ASSIGN_OR_RETURN(Table * table, db.catalog().GetTable("data"));
  table->BulkLoadUnchecked(std::move(rows));
  return Status::OK();
}

// The golden configurations (mirrors the golden-file harness variants).
struct Config {
  const char* name;
  const char* prelude;
};

constexpr Config kConfigs[] = {
    {"rewrite", ""},
    {"direct serial", "SET evaluation_mode = bnl;"},
    {"sfs, pushdown off",
     "SET evaluation_mode = bnl; SET bmo_algorithm = sfs; "
     "SET preference_pushdown = off;"},
    {"direct less", "SET evaluation_mode = bnl; SET bmo_algorithm = less;"},
};

// Column positions in `data`.
enum { kId, kA, kB, kC, kTag };

// A filter-only shape and its oracle: SQL three-valued logic spelled out
// over the generated rows (NULL comparisons are unknown and drop the row;
// every comparison with NaN is false).
struct FilterShape {
  const char* sql;
  bool (*keep)(const Row& r);
};

const FilterShape kFilterShapes[] = {
    {"SELECT id, a, b FROM data WHERE a < 40 AND tag = 'mid' ORDER BY id",
     [](const Row& r) {
       return !r[kA].is_null() && r[kA].AsInt() < 40 &&
              r[kTag].AsText() == "mid";
     }},
    {"SELECT id FROM data WHERE 40 > a AND b IS NOT NULL ORDER BY id",
     [](const Row& r) {
       return !r[kA].is_null() && r[kA].AsInt() < 40 && !r[kB].is_null();
     }},
    {"SELECT id FROM data WHERE a + b > c ORDER BY id",
     [](const Row& r) {
       return !r[kA].is_null() && !r[kB].is_null() &&
              static_cast<double>(r[kA].AsInt()) + r[kB].AsDouble() >
                  r[kC].AsDouble();
     }},
    {"SELECT id, c FROM data WHERE b IS NULL ORDER BY id",
     [](const Row& r) { return r[kB].is_null(); }},
};

// Further shapes chosen to hit every NextBatch implementation (project,
// limit/offset, distinct, aggregate, join, BMO with and without quality
// columns) and the batch predicate fast paths (col-op-literal both
// spellings, IS [NOT] NULL, generic fallback with NULL/NaN arithmetic).
const char* const kQueries[] = {
    "SELECT id, a + 1, b * 2 FROM data ORDER BY id LIMIT 20 OFFSET 5",
    "SELECT DISTINCT tag FROM data ORDER BY tag",
    "SELECT tag, COUNT(*), MIN(a) FROM data GROUP BY tag ORDER BY tag",
    "SELECT d.id, c.id FROM data d, car c WHERE d.id = c.id AND c.price < "
    "18000 ORDER BY d.id LIMIT 30",
    "SELECT d.id, c.id FROM data d LEFT JOIN car c ON d.id = c.id + 650 "
    "ORDER BY d.id DESC LIMIT 80",
    "SELECT id FROM car WHERE price < 20000 PREFERRING LOWEST(price) AND "
    "LOWEST(mileage) ORDER BY id",
    "SELECT id, LEVEL(category) FROM car PREFERRING category IN "
    "('roadster', 'coupe') AND price AROUND 15000 ORDER BY id",
};

// Runs every shape under `config`; checks the filter shapes against the
// oracle and returns the rendered output of all shapes.
std::string RunAll(const Config& config, uint64_t seed) {
  const std::vector<Row> rows = RandomRows(700, seed);
  Connection conn;
  EXPECT_TRUE(LoadRandomTable(conn.database(), rows).ok());
  EXPECT_TRUE(GenerateUsedCars(conn.database(), 400, seed).ok());
  if (config.prelude[0] != '\0') {
    EXPECT_TRUE(conn.ExecuteScript(config.prelude).ok()) << config.name;
  }
  std::string out;
  for (const FilterShape& shape : kFilterShapes) {
    auto r = conn.Execute(shape.sql);
    EXPECT_TRUE(r.ok()) << shape.sql << ": " << r.status().ToString();
    if (!r.ok()) return "<error>";
    std::vector<int64_t> got, want;
    for (const Row& row : r->rows()) got.push_back(row[0].AsInt());
    for (const Row& row : rows) {
      if (shape.keep(row)) want.push_back(row[kId].AsInt());
    }
    EXPECT_EQ(got, want) << shape.sql;
    out += r->ToString(/*max_rows=*/2000);
    out += "\n";
  }
  for (const char* q : kQueries) {
    auto r = conn.Execute(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    if (!r.ok()) return "<error>";
    out += r->ToString(/*max_rows=*/2000);
    out += "\n";
  }
  return out;
}

TEST(VectorizedParityTest, EveryConfigMatchesRewriteAndTheOracle) {
  for (uint64_t seed : {3u, 41u, 77u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string baseline = RunAll(kConfigs[0], seed);
    for (const Config& config : kConfigs) {
      if (&config == &kConfigs[0]) continue;
      SCOPED_TRACE(config.name);
      EXPECT_EQ(RunAll(config, seed), baseline);
    }
  }
}

TEST(VectorizedParityTest, StatsReportBatches) {
  Connection conn;
  ASSERT_TRUE(LoadRandomTable(conn.database(), RandomRows(700, 5)).ok());
  auto r = conn.Execute("SELECT id FROM data WHERE a < 40 ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(conn.last_stats().batches, 0u);
  EXPECT_GT(conn.last_stats().batch_rows, 0u);
}

// Dead versions for the slot-path cases: deleted rows, updated rows whose
// old version stays in the heap, and a tag change that moves rows between
// the coded WHERE's answers.
constexpr const char* kChurn =
    "DELETE FROM data WHERE id % 7 = 0;"
    "UPDATE data SET a = a + 5 WHERE id % 5 = 1;"
    "UPDATE data SET tag = 'mid' WHERE id % 11 = 2;"
    "DELETE FROM data WHERE tag = 'high' AND id % 3 = 0;";

// Over a base table the BMO keeps its candidates as heap slots and reads a
// candidate's row from the heap only where it needs one; over a FROM
// subquery it keeps the pulled rows. `%s` is the FROM item: the same
// statement must give the same answer and run the same dominance tests on
// both paths.
const char* const kSlotPathQueries[] = {
    "SELECT id, a, b FROM %s PREFERRING LOWEST(a) AND HIGHEST(b)",
    "SELECT id, tag FROM %s WHERE tag = 'mid' PREFERRING LOWEST(a) AND "
    "HIGHEST(b) AND LOWEST(c)",
    "SELECT id, tag, a FROM %s PREFERRING LOWEST(a) AND LOWEST(c) "
    "GROUPING tag",
    "SELECT id, a, c FROM %s WHERE tag <> 'low' PREFERRING a AROUND 50 AND "
    "LOWEST(c) BUT ONLY DISTANCE(a) <= 10",
    "SELECT id, LEVEL(a), DISTANCE(b), TOP(c) FROM %s PREFERRING "
    "a BETWEEN 20, 30 AND b AROUND 25 AND HIGHEST(c) GROUPING tag",
    "SELECT id, TOP(a) FROM %s PREFERRING LOWEST(a) AND HIGHEST(b) "
    "BUT ONLY TOP(a) OR TOP(b)",
    "SELECT id FROM %s PREFERRING LOWEST(a) AND HIGHEST(b) AND LOWEST(c) "
    "LIMIT 4",
    // A residual conjunct the codes cannot decide: a filter above the scan.
    "SELECT id, b FROM %s WHERE tag = 'mid' AND a + b > c PREFERRING "
    "LOWEST(a) AND HIGHEST(b)",
};

std::string WithFrom(const char* query, const char* from) {
  std::string sql(query);
  sql.replace(sql.find("%s"), 2, from);
  return sql;
}

TEST(VectorizedParityTest, SlotPathMatchesRowPathAfterChurn) {
  const char* const preludes[] = {
      "SET evaluation_mode = bnl;",
      "SET evaluation_mode = bnl; SET but_only_mode = prefilter;",
      "SET evaluation_mode = bnl; SET bmo_algorithm = sfs;",
      "SET evaluation_mode = bnl; SET bmo_algorithm = less;",
  };
  for (const char* prelude : preludes) {
    SCOPED_TRACE(prelude);
    Connection conn;
    ASSERT_TRUE(LoadRandomTable(conn.database(), RandomRows(700, 9)).ok());
    ASSERT_TRUE(conn.ExecuteScript(prelude).ok());
    // Code the WHERE's columns while every version is live, so the dead
    // versions' codes pass and reach the visibility test.
    for (const char* query : kSlotPathQueries) {
      ASSERT_TRUE(conn.Execute(WithFrom(query, "data")).ok()) << query;
    }
    ASSERT_TRUE(conn.ExecuteScript(kChurn).ok());
    for (const char* query : kSlotPathQueries) {
      const std::string by_slot = WithFrom(query, "data");
      const std::string by_row = WithFrom(query, "(SELECT * FROM data) s");
      auto slot_result = conn.Execute(by_slot);
      ASSERT_TRUE(slot_result.ok()) << by_slot << ": "
                                    << slot_result.status().ToString();
      const PreferenceQueryStats slot_stats = conn.last_stats();
      auto row_result = conn.Execute(by_row);
      ASSERT_TRUE(row_result.ok()) << by_row << ": "
                                   << row_result.status().ToString();
      const PreferenceQueryStats row_stats = conn.last_stats();
      EXPECT_GT(slot_result->num_rows(), 0u) << by_slot;
      // Keys from column vectors by slot on one path, from rows on the other.
      EXPECT_GT(slot_stats.bmo_vector_leaves, 0u) << by_slot;
      EXPECT_EQ(row_stats.bmo_vector_leaves, 0u) << by_row;
      EXPECT_EQ(slot_result->ToString(2000), row_result->ToString(2000))
          << by_slot;
      EXPECT_EQ(slot_stats.bmo_comparisons, row_stats.bmo_comparisons)
          << by_slot;
      EXPECT_EQ(slot_stats.candidate_count, row_stats.candidate_count)
          << by_slot;
    }
  }
}

// A coded-filter PREFERRING statement pulls slots-only batches from its
// scan. Its batch and MVCC counters must read what the row pull read: a
// slots-only batch counts its slots (its selection vector is empty), and
// the scan tests visibility on exactly the slots whose codes pass.
TEST(VectorizedParityTest, SlotsOnlyPullKeepsTheStatementCounters) {
  Connection conn;
  ASSERT_TRUE(LoadRandomTable(conn.database(), RandomRows(5000, 13)).ok());
  ASSERT_TRUE(conn.Execute("SET evaluation_mode = bnl").ok());
  const char* const query =
      "SELECT id FROM data WHERE tag = 'mid' PREFERRING LOWEST(a) AND "
      "HIGHEST(b)";
  // Coded before the churn, the dead versions' codes still pass.
  ASSERT_TRUE(conn.Execute(query).ok());
  ASSERT_TRUE(conn.ExecuteScript(kChurn).ok());
  // The MVCC counters are engine-wide totals: take the statement's share.
  const auto& mvcc = conn.database().executor().stats().mvcc;
  const uint64_t scanned = mvcc.versions_scanned.load();
  const uint64_t skipped = mvcc.versions_skipped.load();
  auto r = conn.Execute(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The figures the pull of borrowed rows read: two candidate batches
  // (1024 + 624) and one result batch; 594 of the 2242 versions whose codes
  // pass are dead.
  const PreferenceQueryStats& stats = conn.last_stats();
  EXPECT_EQ(r->num_rows(), 4u);
  EXPECT_EQ(stats.candidate_count, 1648u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.batch_rows, 1652u);
  EXPECT_EQ(stats.mvcc_versions_scanned - scanned, 2242u);
  EXPECT_EQ(stats.mvcc_versions_skipped - skipped, 594u);
}

TEST(VectorizedParityTest, MidStreamCancelUnwindsALatchedBatch) {
  Connection conn;
  ASSERT_TRUE(GenerateUsedCars(conn.database(), 5000).ok());
  auto cursor = conn.OpenCursor("SELECT id FROM car WHERE price >= 0");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = cursor->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  // The cursor now holds a latched batch with ~1k replayable rows. A cancel
  // arriving between pulls must still surface at the very next pull (the
  // per-pull interrupt check runs before the batch replay) and the unwind
  // must release the tree, the pin, and the statement lock.
  ASSERT_TRUE(conn.session().CancelCurrent());
  auto next = cursor->Next();
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsCancelled()) << next.status().ToString();
  EXPECT_FALSE(cursor->is_open());
  // The session (and the engine's statement lock) are free again.
  EXPECT_TRUE(conn.Execute("SELECT id FROM car LIMIT 1").ok());
}

TEST(VectorizedParityTest, TimeoutSurfacesBetweenBatchSweeps) {
  Connection conn;
  ASSERT_TRUE(GenerateUsedCars(conn.database(), 2000).ok());
  ASSERT_TRUE(conn.Execute("SET statement_timeout_ms = 30").ok());
  // A 4M-row cross join polls its deadline once per batch, not per row; the
  // timeout must still fire promptly mid-drain.
  auto r = conn.Execute(
      "SELECT a.id FROM car a, car b WHERE a.price + b.price > 0");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  // The failed statement latched nothing: the session recovers.
  ASSERT_TRUE(conn.Execute("SET statement_timeout_ms = 0").ok());
  EXPECT_TRUE(conn.Execute("SELECT id FROM car LIMIT 1").ok());
}

}  // namespace
}  // namespace prefsql
