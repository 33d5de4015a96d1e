// The engine's one cache, the plan cache — (normalized text, catalog
// version), shared by sessions whatever their knobs — and its
// version-based invalidation, plus the stats/EXPLAIN surface
// (`plan_cache_hit`, the eviction counter). Table contents are in no
// cache: every PREFERRING statement keys exactly its candidates, so DML is
// visible to the next statement and memory charges follow the candidates.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/connection.h"
#include "sql/normalize.h"

namespace prefsql {
namespace {

class EngineCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(conn_.ExecuteScript(
                         "CREATE TABLE gear (name TEXT, price INTEGER, "
                         "weight INTEGER);"
                         "INSERT INTO gear VALUES ('tent', 300, 4), "
                         "('tarp', 120, 2), ('bivy', 180, 1), "
                         "('hammock', 150, 2)")
                    .ok());
  }

  Connection conn_;
  const std::string kQuery =
      "SELECT name FROM gear PREFERRING LOWEST(price) AND LOWEST(weight)";
};

TEST_F(EngineCacheTest, RepeatedStatementHitsThePlanCache) {
  auto first = conn_.Execute(kQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);

  auto second = conn_.Execute(kQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  EXPECT_EQ(first->ToString(), second->ToString());

  // Whitespace-variant text maps onto the same entry.
  auto respelled = conn_.Execute(
      "SELECT name  FROM gear\n PREFERRING LOWEST(price) AND "
      "LOWEST(weight);");
  ASSERT_TRUE(respelled.ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  EXPECT_EQ(first->ToString(), respelled->ToString());

  // Case-variant text keys separately (identifier case affects result
  // headers, so it must never be served another spelling's preparation) —
  // but still computes the same rows.
  auto lower = conn_.Execute(
      "select name from gear preferring lowest(price) and lowest(weight)");
  ASSERT_TRUE(lower.ok());
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  EXPECT_EQ(first->ToString(), lower->ToString());
}

TEST_F(EngineCacheTest, LimitVariantsShareOnePreparedPlan) {
  // Auto-parameterization lifts the LIMIT count too, so texts differing
  // only in the count key onto one prepared plan.
  const std::string base =
      "SELECT name FROM gear PREFERRING LOWEST(price) AND LOWEST(weight)";
  auto r1 = conn_.Execute(base + " LIMIT 1");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  EXPECT_TRUE(conn_.last_stats().auto_parameterized);
  EXPECT_EQ(r1->num_rows(), 1u);

  auto r2 = conn_.Execute(base + " LIMIT 3");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);  // only the count differs
  EXPECT_EQ(conn_.last_stats().bound_parameters, 1u);
  EXPECT_EQ(r2->num_rows(), 2u);  // the full skyline: tarp, bivy
}

TEST_F(EngineCacheTest, DdlInvalidatesThePlanCache) {
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_TRUE(conn_.last_stats().plan_cache_hit);

  // Any DDL bumps the catalog version; the old preparation is unreachable
  // and the sweep reclaims it (visible in the eviction counter).
  ASSERT_TRUE(conn_.Execute("CREATE TABLE other (z INTEGER)").ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  EXPECT_GT(conn_.last_stats().plan_cache_evictions, 0u);
}

TEST_F(EngineCacheTest, ChangedKnobsShareOnePreparation) {
  // Preparation reads no session knob, so a SET (here or in another
  // session) keeps the preparation; each execution still follows its own
  // session's evaluation path.
  Connection other;
  other.Attach(conn_.engine());
  ASSERT_TRUE(other.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(other.Execute("SET bmo_algorithm = sfs").ok());

  auto rewritten = conn_.Execute(kQuery);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  EXPECT_TRUE(conn_.last_stats().used_rewrite);

  auto direct = other.Execute(kQuery);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_TRUE(other.last_stats().plan_cache_hit);
  EXPECT_FALSE(other.last_stats().used_rewrite);
  EXPECT_EQ(other.last_stats().bmo_algorithm, "sort-filter-skyline");
  EXPECT_EQ(rewritten->num_rows(), direct->num_rows());

  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  EXPECT_FALSE(conn_.last_stats().used_rewrite);
  EXPECT_EQ(conn_.last_stats().bmo_algorithm, "block-nested-loop");
}

TEST_F(EngineCacheTest, RedefinedPreferenceIsNotServedStale) {
  ASSERT_TRUE(
      conn_.Execute("CREATE PREFERENCE cheap AS LOWEST(price)").ok());
  const std::string q = "SELECT name FROM gear PREFERRING PREFERENCE cheap";
  auto r1 = conn_.Execute(q);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->num_rows(), 1u);  // tarp (120)

  ASSERT_TRUE(conn_.Execute("DROP PREFERENCE cheap").ok());
  ASSERT_TRUE(
      conn_.Execute("CREATE PREFERENCE cheap AS HIGHEST(price)").ok());
  auto r2 = conn_.Execute(q);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->num_rows(), 1u);
  EXPECT_EQ(r2->at(0, 0).AsText(), "tent");  // 300: expansion re-prepared
}

TEST_F(EngineCacheTest, DroppedAndRecreatedTableNeverMatchesOldKeys) {
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_TRUE(conn_.Execute("DROP TABLE gear").ok());
  ASSERT_TRUE(conn_.ExecuteScript(
                       "CREATE TABLE gear (name TEXT, price INTEGER, "
                       "weight INTEGER);"
                       "INSERT INTO gear VALUES ('new', 1, 1)")
                  .ok());
  auto r = conn_.Execute(kQuery);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->at(0, 0).AsText(), "new");
}

TEST_F(EngineCacheTest, FilteredQueriesKeyOnlyTheirCandidates) {
  // The WHERE pre-selection runs first; the BMO then keys only the rows
  // that survive it.
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  const std::string filtered =
      "SELECT name FROM gear WHERE weight < 4 "
      "PREFERRING LOWEST(price) AND LOWEST(weight)";
  auto r = conn_.Execute(filtered);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(conn_.last_stats().candidate_count, 3u);  // tent is filtered

  // The key build is charged per keyed row (2 leaves x 12 bytes): the 3
  // candidates (72 bytes) fit in 80 bytes, the 4-row table (96) does not.
  ASSERT_TRUE(conn_.Execute("SET statement_memory_bytes = 80").ok());
  auto budgeted = conn_.Execute(filtered);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_EQ(r->ToString(), budgeted->ToString());
  auto bare = conn_.Execute(kQuery);
  ASSERT_FALSE(bare.ok());
  EXPECT_TRUE(bare.status().IsResourceExhausted())
      << bare.status().ToString();
}

TEST_F(EngineCacheTest, PlanCacheCanBeDisabledPerSession) {
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(conn_.Execute("SET plan_cache = off").ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
}

TEST_F(EngineCacheTest, ExplainReportsPlanCacheState) {
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  auto plan = conn_.Execute("EXPLAIN " + kQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = plan->ToString();
  EXPECT_NE(text.find("plan cache: miss"), std::string::npos) << text;
  // The plan cache is the only cache EXPLAIN reports.
  EXPECT_EQ(text.find("key cache"), std::string::npos) << text;
  EXPECT_EQ(text.find("skyline cache"), std::string::npos) << text;
  plan = conn_.Execute("EXPLAIN " + kQuery);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->ToString().find("plan cache: hit"), std::string::npos)
      << plan->ToString();
}

// A single EXPLAIN opened as a cursor (how the shell sends it) reuses its
// preparation on repeat, and with the cache off the line says so.
TEST_F(EngineCacheTest, ExplainPlanCacheLineThroughCursorsAndWhenOff) {
  auto explain_text = [&]() -> std::string {
    auto cursor = conn_.OpenCursor("EXPLAIN " + kQuery);
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    if (!cursor.ok()) return "";
    std::string text;
    for (;;) {
      auto row = cursor->Next();
      EXPECT_TRUE(row.ok()) << row.status().ToString();
      if (!row.ok() || !row->has_value()) break;
      text += (**row).row()[0].ToString() + "\n";
    }
    return text;
  };
  std::string text = explain_text();
  EXPECT_NE(text.find("plan cache: miss"), std::string::npos) << text;
  text = explain_text();
  EXPECT_NE(text.find("plan cache: hit"), std::string::npos) << text;

  ASSERT_TRUE(conn_.Execute("SET plan_cache = off").ok());
  for (int i = 0; i < 2; ++i) {
    text = explain_text();
    EXPECT_NE(text.find("plan cache: off"), std::string::npos) << text;
  }
}

TEST(NormalizeSqlTest, CanonicalizesWhitespaceButNotCaseOrLiterals) {
  EXPECT_EQ(NormalizeSql("SELECT  *\nFROM T;"), "SELECT * FROM T");
  EXPECT_EQ(NormalizeSql("select 'A  B' from t"), "select 'A  B' from t");
  EXPECT_EQ(NormalizeSql("  select 1  "), "select 1");
  // Escaped quote inside a literal does not end the literal.
  EXPECT_EQ(NormalizeSql("select 'it''S'  FROM t"), "select 'it''S' FROM t");
}

TEST(NormalizeSqlTest, StripsLineCommentsAndKeepsQuotedIdentifiers) {
  // A comment must not glue the rest of its line into the statement when
  // the newline collapses — it is stripped, as the lexer strips it.
  EXPECT_EQ(NormalizeSql("SELECT a FROM t -- note\nWHERE b = 1"),
            "SELECT a FROM t WHERE b = 1");
  EXPECT_EQ(NormalizeSql("SELECT a FROM t -- note WHERE b = 1"),
            "SELECT a FROM t");
  // Whitespace inside quoted identifiers is significant.
  EXPECT_EQ(NormalizeSql("SELECT \"a  b\"  FROM t"),
            "SELECT \"a  b\" FROM t");
}

TEST(ParameterizeSqlTest, LiftsValuePositionLiteralsInOrder) {
  auto p = ParameterizeSql(
      "SELECT a FROM t WHERE b = 3 PREFERRING c AROUND 7.5 AND d IN "
      "('x', 'y')");
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text,
            "SELECT a FROM t WHERE b = ? PREFERRING c AROUND ? AND d IN "
            "(?, ?)");
  ASSERT_EQ(p.values.size(), 4u);
  EXPECT_EQ(p.values[0].AsInt(), 3);
  EXPECT_EQ(p.values[1].AsDouble(), 7.5);
  EXPECT_EQ(p.values[2].AsText(), "x");
  EXPECT_EQ(p.values[3].AsText(), "y");
}

TEST(ParameterizeSqlTest, KeepsStructuralAndDisplayLiterals) {
  // Select-list literals derive headers; OFFSET counts and ORDER BY
  // expressions are structural. LIMIT counts, in contrast, are liftable —
  // binding re-validates the count.
  auto p = ParameterizeSql(
      "SELECT 1, a FROM t WHERE b = 2 ORDER BY a LIMIT 5 OFFSET 2");
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text,
            "SELECT 1, a FROM t WHERE b = ? ORDER BY a LIMIT ? OFFSET 2");
  ASSERT_EQ(p.values.size(), 2u);
  EXPECT_EQ(p.values[0].AsInt(), 2);
  EXPECT_EQ(p.values[1].AsInt(), 5);
  // Nothing liftable at all -> fall back to plain normalization.
  EXPECT_FALSE(
      ParameterizeSql("SELECT 1, a FROM t ORDER BY a OFFSET 2")
          .parameterized);
}

TEST(ParameterizeSqlTest, LiftsBareLimitCount) {
  // A statement whose only literal is the LIMIT count still parameterizes:
  // `LIMIT 5` and `LIMIT 9` share one prepared plan.
  auto p = ParameterizeSql("SELECT 1, a FROM t LIMIT 5");
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text, "SELECT 1, a FROM t LIMIT ?");
  ASSERT_EQ(p.values.size(), 1u);
  EXPECT_EQ(p.values[0].AsInt(), 5);
}

TEST(ParameterizeSqlTest, FoldsUnaryMinusAndKeepsDates) {
  auto p = ParameterizeSql("SELECT a FROM t PREFERRING a AROUND -5");
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text, "SELECT a FROM t PREFERRING a AROUND ?");
  ASSERT_EQ(p.values.size(), 1u);
  EXPECT_EQ(p.values[0].AsInt(), -5);

  // Binary minus is arithmetic, not a sign.
  auto q = ParameterizeSql("SELECT a FROM t WHERE a - 5 > 2");
  ASSERT_TRUE(q.parameterized);
  EXPECT_EQ(q.text, "SELECT a FROM t WHERE a - ? > ?");

  auto d = ParameterizeSql(
      "SELECT a FROM t WHERE b = DATE '1999-07-03' AND c = 4");
  ASSERT_TRUE(d.parameterized);
  EXPECT_EQ(d.text,
            "SELECT a FROM t WHERE b = DATE '1999-07-03' AND c = ?");
}

TEST(ParameterizeSqlTest, ExplicitPlaceholdersDisable) {
  // Statements already carrying placeholders are their own canonical form;
  // the two placeholder spaces must not mix.
  EXPECT_FALSE(
      ParameterizeSql("SELECT a FROM t WHERE b = ? AND c = 3")
          .parameterized);
  EXPECT_FALSE(
      ParameterizeSql("SELECT a FROM t WHERE b = $x AND c = 3")
          .parameterized);
}

TEST(ParameterizeSqlTest, SubqueriesRestoreTheOuterClause) {
  auto p = ParameterizeSql(
      "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 4) AND e = 5");
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(
      p.text,
      "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = ?) AND e = ?");
  ASSERT_EQ(p.values.size(), 2u);
}

TEST(ParameterizeSqlTest, CollapsesInListsOnRequest) {
  // Arity normalization: a fully lifted IN list keys as one placeholder
  // whose width records the original member count.
  auto p = ParameterizeSql("SELECT a FROM t WHERE b IN (1, 2, 3) AND c = 4",
                           /*collapse_in_lists=*/true);
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text, "SELECT a FROM t WHERE b IN (?) AND c = ?");
  ASSERT_EQ(p.values.size(), 4u);
  ASSERT_EQ(p.widths.size(), 2u);
  EXPECT_EQ(p.widths[0], 3u);
  EXPECT_EQ(p.widths[1], 1u);

  // PREFERRING value sets collapse the same way.
  auto q = ParameterizeSql(
      "SELECT a FROM t PREFERRING b IN ('x', 'y') AND c AROUND 7",
      /*collapse_in_lists=*/true);
  ASSERT_TRUE(q.parameterized);
  EXPECT_EQ(q.text, "SELECT a FROM t PREFERRING b IN (?) AND c AROUND ?");
  ASSERT_EQ(q.widths.size(), 2u);
  EXPECT_EQ(q.widths[0], 2u);
  EXPECT_EQ(q.widths[1], 1u);

  // Without the flag the arity is preserved, one width per placeholder.
  auto r = ParameterizeSql("SELECT a FROM t WHERE b IN (1, 2, 3) AND c = 4");
  ASSERT_TRUE(r.parameterized);
  EXPECT_EQ(r.text, "SELECT a FROM t WHERE b IN (?, ?, ?) AND c = ?");
  EXPECT_EQ(r.widths, (std::vector<uint32_t>{1, 1, 1, 1}));
}

TEST(ParameterizeSqlTest, UnliftedInListMembersBlockCollapse) {
  // A member that did not lift (identifier, DATE literal, subquery) leaves
  // the whole list as rendered — partial collapse would misalign values.
  auto p = ParameterizeSql("SELECT a FROM t WHERE b IN (1, c, 3)",
                           /*collapse_in_lists=*/true);
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text, "SELECT a FROM t WHERE b IN (?, c, ?)");
  EXPECT_EQ(p.widths, (std::vector<uint32_t>{1, 1}));

  auto q = ParameterizeSql(
      "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 4) AND e = 5",
      /*collapse_in_lists=*/true);
  ASSERT_TRUE(q.parameterized);
  EXPECT_EQ(
      q.text,
      "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = ?) AND e = ?");
  EXPECT_EQ(q.widths, (std::vector<uint32_t>{1, 1}));
}

TEST_F(EngineCacheTest, InListArityVariantsShareOnePreparedPlan) {
  // The carried ROADMAP item: `IN (?, ?)` vs `IN (?, ?, ?)` used to occupy
  // two cache entries. With arity normalization every member count keys
  // onto one collapsed entry; binding re-expands the list per execution.
  auto r1 = conn_.Execute("SELECT name FROM gear WHERE price IN (120, 300)");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  EXPECT_TRUE(conn_.last_stats().auto_parameterized);
  EXPECT_EQ(r1->num_rows(), 2u);  // tarp, tent

  auto r2 =
      conn_.Execute("SELECT name FROM gear WHERE price IN (120, 150, 180)");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);  // only the arity differs
  EXPECT_EQ(conn_.last_stats().bound_parameters, 3u);
  EXPECT_EQ(r2->num_rows(), 3u);  // tarp, bivy, hammock

  auto r3 = conn_.Execute("SELECT name FROM gear WHERE price IN (999)");
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  EXPECT_EQ(r3->num_rows(), 0u);
}

TEST_F(EngineCacheTest, InListWidthsKeepBoundPreferencesApart) {
  // Both statements collapse to `PREFERRING name IN (?) AND price IN (?)`
  // with the identical flat value vector ('tarp', 120, 150) — only the
  // width split differs. Each execution must compile the preference from
  // its own split or the second would run the first's sets.
  auto r1 = conn_.Execute(
      "SELECT name FROM gear PREFERRING name IN ('tarp') "
      "AND price IN (120, 150)");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  // tarp satisfies both POS sets and dominates everything else.
  ASSERT_EQ(r1->num_rows(), 1u);
  EXPECT_EQ(r1->at(0, 0).AsText(), "tarp");

  auto r2 = conn_.Execute(
      "SELECT name FROM gear PREFERRING name IN ('tarp', 120) "
      "AND price IN (150)");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  // tarp matches the name set, hammock (150) the price set: incomparable.
  EXPECT_EQ(r2->num_rows(), 2u);
}

}  // namespace
}  // namespace prefsql
