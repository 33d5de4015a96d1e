#include "core/connection.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "workload/generators.h"

namespace prefsql {
namespace {

TEST(ConnectionTest, StandardSqlPassesThrough) {
  Connection conn;
  ASSERT_TRUE(conn.ExecuteScript(
                       "CREATE TABLE t (x INTEGER);"
                       "INSERT INTO t VALUES (1), (2)")
                  .ok());
  auto r = conn.Execute("SELECT SUM(x) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->at(0, 0).AsInt(), 3);
  EXPECT_FALSE(conn.last_stats().was_preference_query);
}

TEST(ConnectionTest, PreferenceQueryViaRewriteByDefault) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto r = conn.Execute("SELECT ident FROM oldtimer PREFERRING age AROUND 40");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->at(0, 0).AsText(), "Selma");
  EXPECT_TRUE(conn.last_stats().was_preference_query);
  EXPECT_TRUE(conn.last_stats().used_rewrite);
  EXPECT_FALSE(conn.last_stats().rewrite_fallback);
  EXPECT_EQ(conn.last_stats().result_count, 1u);
}

TEST(ConnectionTest, RewriteAuxViewsNeverTouchTheCatalog) {
  // The rewrite binds its Aux views statement-locally: user objects named
  // like any Aux the engine could pick neither collide with nor shadow
  // them, and no DDL reaches the catalog.
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  ASSERT_TRUE(conn.ExecuteScript("CREATE TABLE _prefsql_aux_1 (x INTEGER);"
                                 "CREATE TABLE _prefsql_aux_2_f (x INTEGER);"
                                 "CREATE TABLE Aux (x INTEGER)")
                  .ok());
  const Catalog& catalog = conn.database().catalog();
  const uint64_t version = catalog.version();
  const std::vector<std::string> names = catalog.TableNames();

  constexpr const char* kPreferring =
      "SELECT ident FROM oldtimer PREFERRING age AROUND 40 ORDER BY ident";
  constexpr const char* kButOnly =
      "SELECT ident, DISTANCE(age) FROM oldtimer PREFERRING LOWEST(age) "
      "BUT ONLY DISTANCE(age) <= 20 ORDER BY ident";
  ASSERT_TRUE(conn.Execute("SET but_only_mode = prefilter").ok());
  const Executor::Stats& xstats = conn.database().executor().stats();
  std::vector<std::string> rewritten;
  for (const char* sql : {kPreferring, kButOnly}) {
    const uint64_t plans = xstats.exists_plans.load();
    auto r = conn.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_TRUE(conn.last_stats().used_rewrite) << sql;
    // The NOT EXISTS over the local A2 is planned once per statement.
    EXPECT_EQ(xstats.exists_plans.load() - plans, 1u) << sql;
    rewritten.push_back(r->ToString(100));
  }
  EXPECT_EQ(catalog.version(), version);
  EXPECT_EQ(catalog.TableNames(), names);

  ASSERT_TRUE(conn.Execute("SET evaluation_mode = bnl").ok());
  for (size_t i = 0; i < rewritten.size(); ++i) {
    const char* sql = i == 0 ? kPreferring : kButOnly;
    auto r = conn.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_EQ(rewritten[i], r->ToString(100)) << sql;
  }
}

TEST(ConnectionTest, NonRewritableExplicitFallsBackToBnl) {
  Connection conn;
  ASSERT_TRUE(conn.ExecuteScript(
                       "CREATE TABLE t (c TEXT);"
                       "INSERT INTO t VALUES ('a'), ('b'), ('x'), ('y'), "
                       "('other')")
                  .ok());
  auto r = conn.Execute(
      "SELECT c FROM t PREFERRING c EXPLICIT ('a' BETTER THAN 'b', "
      "'x' BETTER THAN 'y') ORDER BY c");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->at(0, 0).AsText(), "a");
  EXPECT_EQ(r->at(1, 0).AsText(), "x");
  EXPECT_TRUE(conn.last_stats().rewrite_fallback);
  EXPECT_FALSE(conn.last_stats().used_rewrite);
}

TEST(ConnectionTest, RewriteToSqlProducesRunnableScript) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto script = conn.RewriteToSql(
      "SELECT * FROM oldtimer PREFERRING color = 'white' ELSE "
      "color = 'yellow' AND age AROUND 40");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_NE(script->find("CREATE VIEW Aux"), std::string::npos);
  EXPECT_NE(script->find("NOT EXISTS"), std::string::npos);
  EXPECT_NE(script->find("DROP VIEW Aux"), std::string::npos);
  // The script itself runs on the plain engine and produces the BMO rows.
  auto result = conn.database().ExecuteScript(
      script->substr(0, script->rfind("DROP VIEW")));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 3u);
}

TEST(ConnectionTest, RewriteToSqlRejectsPlainQueries) {
  Connection conn;
  EXPECT_TRUE(conn.RewriteToSql("SELECT 1").status().IsInvalidArgument());
}

TEST(ConnectionTest, AllModesAgreeOnUsedCars) {
  // Cross-mode equivalence on a richer generated dataset.
  std::vector<std::vector<std::string>> results;
  for (auto [mode, algorithm] :
       {std::pair{EvaluationMode::kRewrite, BmoAlgorithm::kBlockNestedLoop},
        std::pair{EvaluationMode::kBlockNestedLoop,
                  BmoAlgorithm::kBlockNestedLoop},
        std::pair{EvaluationMode::kBlockNestedLoop,
                  BmoAlgorithm::kNaiveNestedLoop},
        std::pair{EvaluationMode::kBlockNestedLoop,
                  BmoAlgorithm::kSortFilterSkyline}}) {
    ConnectionOptions opts;
    opts.mode = mode;
    opts.bmo_algorithm = algorithm;
    Connection conn(opts);
    ASSERT_TRUE(GenerateUsedCars(conn.database(), 500, 11).ok());
    auto r = conn.Execute(
        "SELECT id FROM car WHERE price < 30000 "
        "PREFERRING LOWEST(mileage) AND HIGHEST(power) AND price AROUND "
        "15000 ORDER BY id");
    ASSERT_TRUE(r.ok()) << EvaluationModeToString(mode) << "/"
                        << BmoAlgorithmToString(algorithm) << ": "
                        << r.status().ToString();
    std::vector<std::string> ids;
    for (size_t i = 0; i < r->num_rows(); ++i) ids.push_back(r->RowToString(i));
    results.push_back(std::move(ids));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "mode " << i << " differs";
  }
  EXPECT_FALSE(results[0].empty());
}

TEST(ConnectionTest, EmptyWhereResultYieldsEmptyBmo) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto r = conn.Execute(
      "SELECT * FROM oldtimer WHERE age > 1000 PREFERRING LOWEST(age)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
}

TEST(ConnectionTest, PreferenceOnlyAppliesToWhereSurvivors) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  // Global optimum (age 40) is excluded by WHERE; BMO comes from the rest.
  auto r = conn.Execute(
      "SELECT ident FROM oldtimer WHERE age < 40 PREFERRING age AROUND 40");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->at(0, 0).AsText(), "Homer");  // 35 is closest below 40
}

TEST(ConnectionTest, SubqueryInWhereWithPreferring) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto r = conn.Execute(
      "SELECT ident FROM oldtimer WHERE age < (SELECT MAX(age) FROM "
      "oldtimer) PREFERRING HIGHEST(age)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->at(0, 0).AsText(), "Smithers");  // 43, below max 51
}

TEST(ConnectionTest, OrderByAndLimitApplyAfterBmo) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto r = conn.Execute(
      "SELECT ident, age FROM oldtimer PREFERRING color IN ('red', "
      "'yellow') ORDER BY age DESC LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->at(0, 0).AsText(), "Skinner");   // 51
  EXPECT_EQ(r->at(1, 0).AsText(), "Smithers");  // 43
}

TEST(ConnectionTest, DistinctOnPreferenceResult) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto r = conn.Execute(
      "SELECT DISTINCT color FROM oldtimer PREFERRING LOWEST(age)");
  ASSERT_TRUE(r.ok());
  // Min age 19: Maggie (white) and Bart (green) -> two distinct colors.
  EXPECT_EQ(r->num_rows(), 2u);
}

TEST(ConnectionTest, ErrorsFromPreferenceLayer) {
  Connection conn;
  ASSERT_TRUE(conn.Execute("CREATE TABLE t (x INTEGER)").ok());
  EXPECT_TRUE(conn.Execute("SELECT * FROM t PREFERRING LOWEST(zzz)")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(conn.Execute("SELECT * FROM nosuch PREFERRING LOWEST(x)")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(conn.Execute(
                      "SELECT * FROM t PREFERRING x EXPLICIT ("
                      "'a' BETTER THAN 'b', 'b' BETTER THAN 'a')")
                  .status()
                  .IsInvalidArgument());  // cycle
}

TEST(ConnectionTest, RepeatedRewriteQueriesRebindTheirAux) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  for (int i = 0; i < 3; ++i) {
    auto r =
        conn.Execute("SELECT ident FROM oldtimer PREFERRING LOWEST(age)");
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
    EXPECT_EQ(r->num_rows(), 2u);
  }
}

}  // namespace
}  // namespace prefsql
