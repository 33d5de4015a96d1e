// Algebraic preference pushdown: the BMO pre-filter lands below the join
// exactly when every quality column binds to one join side (and the WHERE
// splits cleanly), never changes results, and is observable through
// Connection::last_stats and EXPLAIN.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/connection.h"
#include "random_pref.h"
#include "util/random.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

// A small car+dealer schema where the quality columns live on the car side.
void SetupCarDealer(Connection& conn, const char* mode = "bnl") {
  auto r = conn.ExecuteScript(R"sql(
    CREATE TABLE car (id INTEGER, make TEXT, price INTEGER, power INTEGER,
                      seats INTEGER);
    INSERT INTO car VALUES
      (1, 'vw',   22000, 110, 5),
      (2, 'vw',   15000,  90, 5),
      (3, 'bmw',  30000, 200, 4),
      (4, 'bmw',  25000, 150, 4),
      (5, 'opel', 12000,  75, 5),
      (6, 'fiat', 11000,  70, 4);
    CREATE TABLE dealer (did INTEGER, dmake TEXT, city TEXT, rating INTEGER);
    INSERT INTO dealer VALUES
      (10, 'vw',   'ulm',      4),
      (11, 'bmw',  'munich',   5),
      (12, 'opel', 'augsburg', 3),
      (13, 'vw',   'berlin',   2);
  )sql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto m = conn.Execute("SET evaluation_mode = " + std::string(mode));
  ASSERT_TRUE(m.ok());
}

std::multiset<std::string> Rows(const ResultTable& t) {
  std::multiset<std::string> out;
  for (size_t i = 0; i < t.num_rows(); ++i) out.insert(t.RowToString(i));
  return out;
}

// Runs `sql` with the pushdown on and off; asserts whether it was pushed
// and that both plans return identical row multisets.
void CheckParity(Connection& conn, const std::string& sql,
                 bool expect_pushed) {
  auto with = conn.Execute(sql);
  ASSERT_TRUE(with.ok()) << with.status().ToString() << "\n" << sql;
  EXPECT_EQ(conn.last_stats().used_pushdown, expect_pushed)
      << conn.last_stats().pushdown_detail << "\n" << sql;
  ASSERT_TRUE(conn.Execute("SET preference_pushdown = off").ok());
  auto without = conn.Execute(sql);
  ASSERT_TRUE(without.ok()) << without.status().ToString() << "\n" << sql;
  EXPECT_FALSE(conn.last_stats().used_pushdown);
  ASSERT_TRUE(conn.Execute("SET preference_pushdown = on").ok());
  EXPECT_EQ(Rows(*with), Rows(*without)) << sql;
}

TEST(PlannerPushdownTest, PushesWhenQualityColumnsBindToOneSide) {
  Connection conn;
  SetupCarDealer(conn);
  const std::string sql =
      "SELECT id, city FROM car c JOIN dealer d ON c.make = d.dmake "
      "PREFERRING LOWEST(price)";
  CheckParity(conn, sql, /*expect_pushed=*/true);
  // The pre-filter saw the car side only and reduced the join input.
  ASSERT_TRUE(conn.Execute(sql).ok());
  EXPECT_EQ(conn.last_stats().prefilter_candidate_count, 6u);
  EXPECT_LE(conn.last_stats().prefilter_result_count,
            conn.last_stats().prefilter_candidate_count);
  EXPECT_GT(conn.last_stats().prefilter_result_count, 0u);
}

TEST(PlannerPushdownTest, PushesQualityColumnsOnTheRightSide) {
  Connection conn;
  SetupCarDealer(conn);
  CheckParity(conn,
              "SELECT did, make FROM dealer d JOIN car c ON d.dmake = c.make "
              "PREFERRING HIGHEST(price) AND HIGHEST(power)",
              /*expect_pushed=*/true);
}

TEST(PlannerPushdownTest, DoesNotPushWhenColumnsStraddleTheJoin) {
  Connection conn;
  SetupCarDealer(conn);
  const std::string sql =
      "SELECT id, city FROM car c JOIN dealer d ON c.make = d.dmake "
      "PREFERRING LOWEST(price) AND HIGHEST(rating)";
  CheckParity(conn, sql, /*expect_pushed=*/false);
  ASSERT_TRUE(conn.Execute(sql).ok());
  EXPECT_NE(conn.last_stats().pushdown_detail.find("single join side"),
            std::string::npos)
      << conn.last_stats().pushdown_detail;
}

TEST(PlannerPushdownTest, WhereConjunctsSplitAcrossTheJoin) {
  Connection conn;
  SetupCarDealer(conn);
  // One conjunct per side: still pushable (car conjunct moves below the
  // pre-filter, the dealer conjunct stays above the join).
  CheckParity(conn,
              "SELECT id, city FROM car c JOIN dealer d ON c.make = d.dmake "
              "WHERE power >= 80 AND rating >= 3 "
              "PREFERRING LOWEST(price)",
              /*expect_pushed=*/true);
  // A conjunct touching both sides rules the pushdown out.
  CheckParity(conn,
              "SELECT id, city FROM car c JOIN dealer d ON c.make = d.dmake "
              "WHERE seats > rating PREFERRING LOWEST(price)",
              /*expect_pushed=*/false);
}

TEST(PlannerPushdownTest, LeftJoinOnlyPushesThePreservedSide) {
  Connection conn;
  SetupCarDealer(conn);
  CheckParity(conn,
              "SELECT id, city FROM car c LEFT JOIN dealer d "
              "ON c.make = d.dmake PREFERRING LOWEST(price)",
              /*expect_pushed=*/true);
  CheckParity(conn,
              "SELECT id, city FROM dealer d LEFT JOIN car c "
              "ON d.dmake = c.make PREFERRING LOWEST(price)",
              /*expect_pushed=*/false);
}

TEST(PlannerPushdownTest, NonEquiAndSingleTableQueriesAreNotPushed) {
  Connection conn;
  SetupCarDealer(conn);
  CheckParity(conn,
              "SELECT id, city FROM car c JOIN dealer d "
              "ON c.seats > d.rating PREFERRING LOWEST(price)",
              /*expect_pushed=*/false);
  CheckParity(conn, "SELECT id FROM car PREFERRING LOWEST(price)",
              /*expect_pushed=*/false);
}

TEST(PlannerPushdownTest, QualityFunctionsDisableThePushdown) {
  Connection conn;
  SetupCarDealer(conn);
  // LEVEL/DISTANCE are relative to the observed optimum over the full
  // candidate set; a pre-filter below the join would change them.
  CheckParity(conn,
              "SELECT id, LEVEL(price) FROM car c JOIN dealer d "
              "ON c.make = d.dmake PREFERRING price AROUND 20000",
              /*expect_pushed=*/false);
  CheckParity(conn,
              "SELECT id, city FROM car c JOIN dealer d ON c.make = d.dmake "
              "PREFERRING price AROUND 20000 BUT ONLY DISTANCE(price) <= 5000",
              /*expect_pushed=*/false);
}

TEST(PlannerPushdownTest, GroupingOnThePreferenceSidePartitionsThePrefilter) {
  Connection conn;
  SetupCarDealer(conn);
  CheckParity(conn,
              "SELECT id, make, city FROM car c JOIN dealer d "
              "ON c.make = d.dmake PREFERRING LOWEST(price) GROUPING make",
              /*expect_pushed=*/true);
}

TEST(PlannerPushdownTest, ExplainReportsThePlacement) {
  Connection conn;
  SetupCarDealer(conn);
  auto plan = conn.Execute(
      "EXPLAIN SELECT id, city FROM car c JOIN dealer d ON c.make = d.dmake "
      "PREFERRING LOWEST(price)");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = plan->ToString();
  EXPECT_NE(text.find("pushdown: bmo prefilter below hash join"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("side=left"), std::string::npos) << text;
  EXPECT_NE(text.find("partition_cols=[make]"), std::string::npos) << text;

  ASSERT_TRUE(conn.Execute("SET preference_pushdown = off").ok());
  plan = conn.Execute(
      "EXPLAIN SELECT id, city FROM car c JOIN dealer d ON c.make = d.dmake "
      "PREFERRING LOWEST(price)");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->ToString().find("no pushdown: disabled"),
            std::string::npos)
      << plan->ToString();
}

// Property: over a generated workload with random preferences, pushdown
// on/off always agree — for every evaluation mode.
TEST(PlannerPushdownTest, RandomizedJoinParityProperty) {
  for (uint64_t seed : {5u, 42u, 333u}) {
    Random rng(seed);
    std::string pref_text = testutil::RandomCarPreferenceText(rng);
    SCOPED_TRACE("PREFERRING " + pref_text);
    for (const char* mode : {"bnl", "sfs", "naive"}) {
      Connection conn;
      ASSERT_TRUE(GenerateUsedCars(conn.database(), 400, seed).ok());
      auto setup = conn.ExecuteScript(R"sql(
        CREATE TABLE dealer (dmake TEXT, city TEXT);
        INSERT INTO dealer VALUES
          ('Opel', 'ulm'), ('BMW', 'munich'), ('Audi', 'ingolstadt'),
          ('Volkswagen', 'wolfsburg'), ('Fiat', 'turin'), ('BMW', 'berlin');
      )sql");
      ASSERT_TRUE(setup.ok());
      ASSERT_TRUE(conn.ExecuteScript(
                           "SET evaluation_mode = bnl; SET bmo_algorithm = " +
                           std::string(mode))
                      .ok());

      std::string sql =
          "SELECT id, city FROM car c JOIN dealer d ON c.make = d.dmake "
          "WHERE price > 6000 AND city <> 'berlin' PREFERRING " +
          pref_text;
      auto with = conn.Execute(sql);
      ASSERT_TRUE(with.ok()) << with.status().ToString();
      EXPECT_TRUE(conn.last_stats().used_pushdown)
          << conn.last_stats().pushdown_detail;
      ASSERT_TRUE(conn.Execute("SET preference_pushdown = off").ok());
      auto without = conn.Execute(sql);
      ASSERT_TRUE(without.ok()) << without.status().ToString();
      EXPECT_EQ(Rows(*with), Rows(*without)) << mode;
    }
  }
}

}  // namespace
}  // namespace prefsql
