// The §3.2 rewrite's NOT EXISTS probe and its Aux view, against the
// in-engine BMO:
//   * random mixed preference trees over a car table whose quality columns
//     hold NULL, ±inf and mixed types, wrapped in GROUPING (with NULL
//     groups), BUT ONLY (both modes), LEVEL/DISTANCE/TOP, SELECT *, ORDER
//     BY and LIMIT, return the BNL answers, with one EXISTS probe per outer
//     candidate;
//   * view materializations keep only the columns the statement names, and
//     a `*` that reaches a view keeps all of them; errors over views keep
//     their text;
//   * a probe stops evaluating its per-row conjuncts at its first match;
//   * sessions sharing one cached rewrite-mode plan get the serial answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/connection.h"
#include "engine/executor.h"
#include "random_pref.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "util/random.h"

namespace prefsql {
namespace {

Table* GetTable(Connection& conn, const std::string& name) {
  auto table = conn.database().catalog().GetTable(name);
  return table.ok() ? *table : nullptr;
}

// The rows of `t` as text, one string per row.
std::vector<std::string> Rows(const ResultTable& t) {
  std::vector<std::string> out;
  for (const Row& row : t.rows()) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  return out;
}

uint64_t ExistsProbes(Connection& conn) {
  return conn.database().executor().stats().exists_probes.load();
}

// A quality cell: mostly an integer, sometimes NULL, ±inf, a double, a
// text (numeric or not) or a date. NaN stays out, and so do infinities of
// `age`, which the trees add to the other columns (inf + -inf is NaN): the
// rewrite's `=` is FALSE on NaN where the BMO kernels treat it as equal, so
// a NaN under CASCADE has two answers (ROADMAP, "NaN quality values").
Value QualityCell(Random& rng, int64_t number, bool infinities) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (rng.Uniform(0, 19)) {
    case 0:
      return Value::Null();
    case 1:
      return infinities ? Value::Double(inf) : Value::Null();
    case 2:
      return infinities ? Value::Double(-inf) : Value::Int(-number);
    case 3:
      return Value::Double(static_cast<double>(number) + 0.5);
    case 4:
      return Value::Text("abc");
    case 5:
      return Value::Text(std::to_string(number));
    case 6:
      return Value::Date(number % 20000);
    default:
      return Value::Int(number);
  }
}

// A categorical cell: mostly one of `values`, sometimes NULL or an integer.
Value CategoryCell(Random& rng, const std::vector<const char*>& values) {
  switch (rng.Uniform(0, 9)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(7);
    default:
      return Value::Text(
          values[static_cast<size_t>(rng.Uniform(0, values.size() - 1))]);
  }
}

// The car columns RandomMixedCarPreferenceText reads, plus `score`, the
// leaf the quality functions name. Loaded without coercion, so the
// numeric columns hold mixed types.
void LoadMixedCars(Connection& conn, size_t n, uint64_t seed) {
  ASSERT_TRUE(conn.Execute("CREATE TABLE car (id INTEGER, make TEXT, "
                           "model TEXT, category TEXT, color TEXT, "
                           "price DOUBLE, mileage DOUBLE, power DOUBLE, "
                           "age DOUBLE, score DOUBLE)")
                  .ok());
  Random rng(seed);
  const std::vector<const char*> makes = {"BMW", "Audi", "VW", "Opel"};
  const std::vector<const char*> models = {"a4", "golf", "corsa", "x5"};
  const std::vector<const char*> categories = {"van", "sedan", "roadster"};
  const std::vector<const char*> colors = {"red", "black", "white"};
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    CategoryCell(rng, makes), CategoryCell(rng, models),
                    CategoryCell(rng, categories), CategoryCell(rng, colors),
                    QualityCell(rng, rng.Uniform(0, 40000), true),
                    QualityCell(rng, rng.Uniform(0, 200000), true),
                    QualityCell(rng, rng.Uniform(40, 300), true),
                    QualityCell(rng, rng.Uniform(0, 30), false),
                    QualityCell(rng, rng.Uniform(0, 100), true)});
  }
  Table* table = GetTable(conn, "car");
  ASSERT_NE(table, nullptr);
  table->BulkLoadUnchecked(std::move(rows));
}

// One statement around a random mixed preference tree that also holds a
// leaf on `score`, the attribute its quality functions name.
struct ProbeStatement {
  std::string sql;
  std::string where;  // the hard selection ("" = none)
  bool ordered = false;
};

ProbeStatement RandomStatement(Random& rng) {
  // Under GROUPING the score leaf is AROUND, whose quality offset is fixed:
  // for LOWEST/HIGHEST the rewrite measures DISTANCE from the minimum of
  // the whole Aux view and the BMO from each group's (ROADMAP, "GROUPING
  // quality offsets").
  const bool grouping = rng.Bernoulli(0.3);
  const char* const score_leaves[] = {"score AROUND 50", "LOWEST(score)",
                                      "HIGHEST(score)"};
  std::string pref = testutil::RandomMixedCarPreferenceText(rng) +
                     (rng.Bernoulli(0.5) ? " AND " : " CASCADE ") +
                     score_leaves[grouping ? 0 : rng.Uniform(0, 2)];
  ProbeStatement st;
  if (rng.Bernoulli(0.5)) {
    st.where = "id < " + std::to_string(rng.Uniform(60, 200));
  }
  const char* const items[] = {
      "id", "*", "id, LEVEL(score)", "id, DISTANCE(score)", "id, TOP(score)",
      "id, LEVEL(score), DISTANCE(score), TOP(score), price"};
  std::string sql = std::string("SELECT ") + items[rng.Uniform(0, 5)] +
                    " FROM car" +
                    (st.where.empty() ? "" : " WHERE " + st.where) +
                    " PREFERRING " + pref;
  if (grouping) sql += " GROUPING make";
  if (rng.Bernoulli(0.3)) {
    const char* const but_only[] = {"DISTANCE(score) <= 20", "TOP(score)",
                                    "LEVEL(score) <= 1"};
    sql += std::string(" BUT ONLY ") + but_only[rng.Uniform(0, 2)];
  }
  if (rng.Bernoulli(0.5)) {
    sql += " ORDER BY id";
    st.ordered = true;
    if (rng.Bernoulli(0.5)) {
      sql += " LIMIT " + std::to_string(rng.Uniform(1, 8));
    }
  }
  st.sql = std::move(sql);
  return st;
}

TEST(RewriteProbeTest, RandomMixedTreesMatchBnlWithOneProbePerCandidate) {
  auto engine = std::make_shared<Engine>();
  Connection rewrite, bnl;
  rewrite.Attach(engine);
  bnl.Attach(engine);
  LoadMixedCars(rewrite, 240, 7);
  ASSERT_TRUE(bnl.Execute("SET evaluation_mode = bnl").ok());
  Random rng(2026);
  int compared = 0;
  for (int i = 0; i < 160; ++i) {
    const ProbeStatement st = RandomStatement(rng);
    const bool prefilter = rng.Bernoulli(0.5);
    const std::string mode = prefilter ? "prefilter" : "postfilter";
    SCOPED_TRACE(st.sql + " [but_only_mode = " + mode + "]");
    for (Connection* conn : {&rewrite, &bnl}) {
      ASSERT_TRUE(conn->Execute("SET but_only_mode = " + mode).ok());
    }
    auto expected = bnl.Execute(st.sql);
    const uint64_t probes_before = ExistsProbes(rewrite);
    auto actual = rewrite.Execute(st.sql);
    const uint64_t probes = ExistsProbes(rewrite) - probes_before;
    ASSERT_EQ(expected.ok(), actual.ok())
        << "bnl: " << expected.status().ToString()
        << " rewrite: " << actual.status().ToString();
    if (!actual.ok()) {
      EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
      continue;
    }
    ASSERT_TRUE(rewrite.last_stats().used_rewrite);
    ++compared;
    std::vector<std::string> want = Rows(*expected), got = Rows(*actual);
    if (!st.ordered) {
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(actual->schema().Names(), expected->schema().Names());

    // The anti-join probes once per row of the view its outer query reads:
    // every candidate, or those the BUT ONLY pre-filter keeps.
    auto count = rewrite.Execute(
        "SELECT COUNT(*) FROM car" +
        (st.where.empty() ? std::string() : " WHERE " + st.where));
    ASSERT_TRUE(count.ok());
    const auto candidates = static_cast<uint64_t>(count->at(0, 0).AsInt());
    if (prefilter && st.sql.find("BUT ONLY") != std::string::npos) {
      EXPECT_LE(probes, candidates);
    } else {
      EXPECT_EQ(probes, candidates);
    }
  }
  EXPECT_GE(compared, 120);
}

// -- View pruning -----------------------------------------------------------

class ViewPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(conn_
                    .ExecuteScript(
                        "CREATE TABLE a (id INTEGER, x INTEGER, w INTEGER);"
                        "INSERT INTO a VALUES (1, 10, 5), (2, 20, 6), "
                        "(3, 30, 7);"
                        "CREATE TABLE b (id INTEGER, y INTEGER);"
                        "INSERT INTO b VALUES (1, 100), (2, 200), (4, 400);"
                        "CREATE TABLE c (z INTEGER);"
                        "INSERT INTO c VALUES (1), (2);"
                        "CREATE VIEW j AS SELECT * FROM a JOIN b "
                        "ON a.x * 10 = b.y;"
                        "CREATE VIEW v AS SELECT *, 1 AS one FROM a;"
                        "CREATE VIEW va AS SELECT * FROM a;"
                        "CREATE VIEW pair AS SELECT id, x FROM a")
                    .ok());
  }

  // The columns `view` is materialized with for the statement `sql`.
  std::vector<std::string> MaterializedColumns(const std::string& sql,
                                               const std::string& view) {
    auto stmt = ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    if (!stmt.ok()) return {};
    StatementScope scope(&conn_.database().executor(), {},
                         stmt->select.get());
    auto rows = scope.MaterializeView(view);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? (*rows)->schema().Names() : std::vector<std::string>{};
  }

  std::string Error(const std::string& sql) {
    auto r = conn_.Execute(sql);
    return r.ok() ? "ok" : r.status().ToString();
  }

  Connection conn_;
};

TEST_F(ViewPruningTest, ViewsKeepOnlyTheNamedColumns) {
  using Names = std::vector<std::string>;
  // The select list and WHERE name the columns; the computed item stays
  // (evaluating one may raise).
  EXPECT_EQ(MaterializedColumns("SELECT id FROM v WHERE w > 5", "v"),
            (Names{"id", "w", "one"}));
  // A column named only in a depth-2 subquery.
  EXPECT_EQ(MaterializedColumns(
                "SELECT id FROM v v1 WHERE EXISTS (SELECT 1 FROM c WHERE "
                "EXISTS (SELECT 1 FROM c c2 WHERE c2.z + 4 = v1.w))",
                "v"),
            (Names{"id", "w", "one"}));
  // A joined catalog view: its ON names x and y. A name stays for every
  // column that has it, whatever the qualifier that named it.
  EXPECT_EQ(MaterializedColumns("SELECT w FROM j", "j"),
            (Names{"x", "w", "y"}));
  EXPECT_EQ(MaterializedColumns("SELECT w FROM j WHERE EXISTS "
                                "(SELECT 1 FROM b WHERE b.id = 1)",
                                "j"),
            (Names{"id", "x", "w", "id", "y"}));
  // Nothing named: one column keeps the rows.
  EXPECT_EQ(MaterializedColumns("SELECT COUNT(*) FROM va", "va"),
            (Names{"id"}));
  // A `*` over the view, at the top or in a nested subquery, keeps it all.
  EXPECT_EQ(MaterializedColumns("SELECT * FROM v", "v"),
            (Names{"id", "x", "w", "one"}));
  EXPECT_EQ(MaterializedColumns(
                "SELECT id FROM a WHERE w IN (SELECT * FROM va)", "va"),
            (Names{"id", "x", "w"}));
}

TEST_F(ViewPruningTest, AnswersAndErrorsOverViewsAreUnchanged) {
  auto ys = conn_.Execute("SELECT y FROM j WHERE x > 10 ORDER BY y");
  ASSERT_TRUE(ys.ok()) << ys.status().ToString();
  EXPECT_EQ(Rows(*ys), (std::vector<std::string>{"200|"}));
  auto nested = conn_.Execute(
      "SELECT id FROM v v1 WHERE EXISTS (SELECT 1 FROM c WHERE EXISTS "
      "(SELECT 1 FROM c c2 WHERE c2.z + 4 = v1.w)) ORDER BY id");
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(Rows(*nested), (std::vector<std::string>{"1|", "2|"}));
  auto ws = conn_.Execute(
      "SELECT w FROM j WHERE EXISTS (SELECT 1 FROM c WHERE EXISTS "
      "(SELECT 1 FROM c c2 WHERE c2.z = j.y / 100)) ORDER BY w");
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  EXPECT_EQ(Rows(*ws), (std::vector<std::string>{"5|", "6|"}));
  auto count = conn_.Execute("SELECT COUNT(*) FROM va");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->at(0, 0).AsInt(), 3);

  EXPECT_EQ(Error("SELECT id FROM j"),
            "Invalid argument: ambiguous column: id");
  EXPECT_EQ(Error("SELECT nosuch FROM v"),
            "Invalid argument: unknown column: nosuch");
  EXPECT_EQ(Error("SELECT v.nosuch FROM v"),
            "Invalid argument: unknown column: v.nosuch");
  // Depth-2 correlated references over the views.
  EXPECT_EQ(Error("SELECT y FROM j WHERE EXISTS (SELECT 1 FROM c WHERE "
                  "EXISTS (SELECT 1 FROM c c2 WHERE c2.z = j.nosuch))"),
            "Invalid argument: unknown column: j.nosuch");
  EXPECT_EQ(Error("SELECT y FROM j WHERE EXISTS (SELECT 1 FROM c WHERE "
                  "EXISTS (SELECT 1 FROM c c2 WHERE c2.z = id))"),
            "Invalid argument: ambiguous column: id");
  EXPECT_EQ(Error("SELECT y FROM j WHERE EXISTS (SELECT 1 FROM c WHERE "
                  "EXISTS (SELECT 1 FROM pair p WHERE p.x = id))"),
            "ok");  // id resolves in pair, the innermost scope
  EXPECT_EQ(Error("SELECT id FROM a WHERE w IN (SELECT * FROM va)"),
            "Invalid argument: IN subquery must return exactly one column");
}

// -- The probe's first-match tail ----------------------------------------

// The leading direct conjunct (inner column OP outer column) decides whole
// batches, but the per-row conjunct after it runs only until the probe's
// first match: row 3 comes first and matches, so row 1, where sqrt raises,
// is never evaluated.
TEST(RewriteProbeTailTest, ConjunctAfterTheFirstMatchNeverRaises) {
  Connection conn;
  ASSERT_TRUE(conn.ExecuteScript(
                      "CREATE TABLE o (k INTEGER);"
                      "INSERT INTO o VALUES (10);"
                      "CREATE TABLE t (id INTEGER, k INTEGER, s INTEGER);"
                      "INSERT INTO t VALUES (3, 1, 4), (1, 2, -1), (2, 3, 9);"
                      "CREATE VIEW tv AS SELECT * FROM t")
                  .ok());
  for (const char* from : {"t", "tv"}) {
    SCOPED_TRACE(from);
    const std::string probe = std::string("SELECT k FROM o WHERE EXISTS "
                                          "(SELECT 1 FROM ") +
                              from + " i WHERE i.k <= o.k AND sqrt(i.s) >= 0)";
    auto r = conn.Execute(probe);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->num_rows(), 1u);
    // A full drain reaches row 1 and raises.
    auto all = conn.Execute(std::string("SELECT id FROM ") + from +
                            " i WHERE i.k <= 10 AND sqrt(i.s) >= 0");
    EXPECT_EQ(all.status().ToString(),
              "Invalid argument: sqrt requires a non-negative number");
  }
}

// -- Sessions sharing one cached rewrite-mode plan ------------------------

TEST(RewriteProbeSessionTest, ConcurrentSessionsMatchSerialAnswers) {
  constexpr size_t kSessions = 4;
  constexpr int kRuns = 40;
  constexpr const char* kQuery =
      "SELECT id, LEVEL(score) FROM car WHERE id < ? PREFERRING "
      "LOWEST(price) AND HIGHEST(power) AND score AROUND 50 GROUPING make";
  const std::vector<int64_t> caps = {40, 90, 150, 240};
  auto engine = std::make_shared<Engine>();
  {
    Connection setup;
    setup.Attach(engine);
    LoadMixedCars(setup, 240, 11);
  }
  std::vector<std::vector<std::string>> serial;
  {
    Connection conn;
    conn.Attach(engine);
    auto stmt = conn.Prepare(kQuery);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    for (int64_t cap : caps) {
      ASSERT_TRUE(stmt->Bind(0, Value::Int(cap)).ok());
      auto r = stmt->Execute();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::vector<std::string> rows = Rows(*r);
      std::sort(rows.begin(), rows.end());
      serial.push_back(std::move(rows));
    }
  }
  std::vector<std::string> errors(kSessions);
  std::vector<int> mismatches(kSessions, 0);
  std::vector<std::thread> threads;
  for (size_t id = 0; id < kSessions; ++id) {
    threads.emplace_back([&, id] {
      Connection conn;
      conn.Attach(engine);
      auto stmt = conn.Prepare(kQuery);
      if (!stmt.ok()) {
        errors[id] = stmt.status().ToString();
        return;
      }
      for (int run = 0; run < kRuns; ++run) {
        const size_t c = (id + static_cast<size_t>(run)) % caps.size();
        if (!stmt->Bind(0, Value::Int(caps[c])).ok()) {
          errors[id] = "bind failed";
          return;
        }
        auto r = stmt->Execute();
        if (!r.ok()) {
          errors[id] = r.status().ToString();
          return;
        }
        std::vector<std::string> rows = Rows(*r);
        std::sort(rows.begin(), rows.end());
        if (rows != serial[c]) ++mismatches[id];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t id = 0; id < kSessions; ++id) {
    EXPECT_TRUE(errors[id].empty()) << "session " << id << ": " << errors[id];
    EXPECT_EQ(mismatches[id], 0) << "session " << id;
  }
}

}  // namespace
}  // namespace prefsql
