// The prepared half of the client surface: Prepare / Bind / Execute / Open.
// Covers bind arity and type errors (stable kBindError codes), named vs
// positional placeholders, transparent re-prepare after DDL (including a
// stored-PREFERENCE redefinition), prepared DML, and the
// auto-parameterization of literal statements pinned against the engine's
// plan-cache counters.

#include <gtest/gtest.h>

#include <string>

#include "core/connection.h"

namespace prefsql {
namespace {

class PreparedStatementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(conn_.ExecuteScript(
                         "CREATE TABLE car (id INTEGER, price INTEGER, "
                         "mileage INTEGER, color TEXT);"
                         "INSERT INTO car VALUES "
                         "(1, 12000, 90000, 'red'), "
                         "(2, 15000, 60000, 'blue'), "
                         "(3, 22000, 30000, 'red'), "
                         "(4, 28000, 15000, 'black'), "
                         "(5, 9000, 120000, 'white')")
                    .ok());
  }

  Connection conn_;
};

TEST_F(PreparedStatementTest, PositionalBindAndReExecute) {
  auto stmt = conn_.Prepare(
      "SELECT id, price FROM car PREFERRING price AROUND ? ORDER BY id");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->parameter_count(), 1u);
  EXPECT_EQ(stmt->parameter_names()[0], "");

  ASSERT_TRUE(stmt->Bind(0, Value::Int(15000)).ok());
  auto r1 = stmt->Execute();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_EQ(r1->num_rows(), 1u);
  EXPECT_EQ(r1->at(0, 0).AsInt(), 2);
  // Prepare published the plan, so even the first Execute is warm.
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  EXPECT_EQ(conn_.last_stats().bound_parameters, 1u);

  ASSERT_TRUE(stmt->Bind(0, Value::Int(22000)).ok());
  auto r2 = stmt->Execute();
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->num_rows(), 1u);
  EXPECT_EQ(r2->at(0, 0).AsInt(), 3);
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
}

TEST_F(PreparedStatementTest, NamedParametersShareOneOrdinal) {
  auto stmt = conn_.Prepare(
      "SELECT id FROM car WHERE price > $lo AND mileage > $lo "
      "PREFERRING price AROUND $target ORDER BY id");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->parameter_count(), 2u);  // $lo occurs twice, one slot
  EXPECT_EQ(stmt->parameter_names()[0], "lo");
  EXPECT_EQ(stmt->parameter_names()[1], "target");

  ASSERT_TRUE(stmt->Bind("lo", Value::Int(10000)).ok());
  ASSERT_TRUE(stmt->Bind("target", Value::Int(20000)).ok());
  auto r = stmt->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->at(0, 0).AsInt(), 3);  // price 22000, mileage 30000

  EXPECT_TRUE(stmt->Bind("nope", Value::Int(1)).IsBindError());
}

TEST_F(PreparedStatementTest, BindableLimitCount) {
  auto stmt = conn_.Prepare(
      "SELECT id FROM car WHERE price >= ? ORDER BY id LIMIT ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->parameter_count(), 2u);

  ASSERT_TRUE(stmt->Bind(0, Value::Int(12000)).ok());
  ASSERT_TRUE(stmt->Bind(1, Value::Int(2)).ok());
  auto r1 = stmt->Execute();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_EQ(r1->num_rows(), 2u);  // ids 1 and 2 of {1, 2, 3, 4}
  EXPECT_EQ(r1->at(0, 0).AsInt(), 1);
  EXPECT_EQ(r1->at(1, 0).AsInt(), 2);

  // Rebinding only the count re-executes the same prepared plan.
  ASSERT_TRUE(stmt->Bind(1, Value::Int(10)).ok());
  auto r2 = stmt->Execute();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), 4u);
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);

  // The count must be a non-negative integer, whatever the channel.
  ASSERT_TRUE(stmt->Bind(1, Value::Int(-1)).ok());
  EXPECT_FALSE(stmt->Execute().ok());
  ASSERT_TRUE(stmt->Bind(1, Value::Text("three")).ok());
  EXPECT_FALSE(stmt->Execute().ok());
}

TEST_F(PreparedStatementTest, BindArityAndTypeErrors) {
  auto stmt = conn_.Prepare(
      "SELECT id FROM car PREFERRING price AROUND $t AND color CONTAINS ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->parameter_count(), 2u);

  // Index out of range.
  EXPECT_TRUE(stmt->Bind(7, Value::Int(1)).IsBindError());
  // An empty name must not silently match the positional slots.
  EXPECT_TRUE(stmt->Bind(std::string(), Value::Int(1)).IsBindError());
  // AROUND target must be numeric (or a date).
  EXPECT_TRUE(
      stmt->Bind("t", Value::Text("cheap")).IsBindError());
  // CONTAINS needle must be text.
  EXPECT_TRUE(stmt->Bind(1, Value::Int(3)).IsBindError());

  // Executing with unbound parameters is a bind error, not a crash.
  EXPECT_TRUE(stmt->Execute().status().IsBindError());
  ASSERT_TRUE(stmt->Bind("t", Value::Int(15000)).ok());
  EXPECT_TRUE(stmt->Execute().status().IsBindError());  // ? still unbound
  ASSERT_TRUE(stmt->Bind(1, Value::Text("ed")).ok());
  auto r = stmt->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  stmt->ClearBindings();
  EXPECT_TRUE(stmt->Execute().status().IsBindError());
}

TEST_F(PreparedStatementTest, UnpreparedPlaceholdersAreRejected) {
  // The one-shot text path cannot bind values; holes are a bind error with
  // a stable code a driver can branch on.
  auto direct = conn_.Execute("SELECT id FROM car WHERE price > ?");
  EXPECT_TRUE(direct.status().IsBindError()) << direct.status().ToString();
  auto named =
      conn_.Execute("SELECT id FROM car PREFERRING price AROUND $t");
  EXPECT_TRUE(named.status().IsBindError());
}

TEST_F(PreparedStatementTest, ReExecutesAcrossCatalogVersionBumps) {
  auto stmt = conn_.Prepare(
      "SELECT id FROM car PREFERRING price AROUND $t ORDER BY id");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->Bind("t", Value::Int(15000)).ok());
  ASSERT_TRUE(stmt->Execute().ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);

  // DDL bumps the catalog version: the old preparation is unreachable; the
  // statement transparently re-prepares from its retained AST.
  ASSERT_TRUE(conn_.Execute("CREATE TABLE other (z INTEGER)").ok());
  auto r = stmt->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);  // re-prepared
  ASSERT_TRUE(stmt->Execute().ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);  // warm again
}

TEST_F(PreparedStatementTest, ReprepareSeesRedefinedStoredPreference) {
  ASSERT_TRUE(
      conn_.Execute("CREATE PREFERENCE wish AS LOWEST(price)").ok());
  auto stmt = conn_.Prepare(
      "SELECT id FROM car WHERE price > ? PREFERRING PREFERENCE wish");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(stmt->Bind(0, Value::Int(0)).ok());
  auto r1 = stmt->Execute();
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1->num_rows(), 1u);
  EXPECT_EQ(r1->at(0, 0).AsInt(), 5);  // cheapest

  ASSERT_TRUE(conn_.Execute("DROP PREFERENCE wish").ok());
  ASSERT_TRUE(
      conn_.Execute("CREATE PREFERENCE wish AS HIGHEST(price)").ok());
  auto r2 = stmt->Execute();
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->num_rows(), 1u);
  EXPECT_EQ(r2->at(0, 0).AsInt(), 4);  // re-expansion picked up HIGHEST
}

TEST_F(PreparedStatementTest, KnobChangeKeepsThePreparation) {
  auto stmt = conn_.Prepare(
      "SELECT id FROM car PREFERRING price AROUND ? ORDER BY id");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->Bind(0, Value::Int(15000)).ok());
  auto rewritten = stmt->Execute();
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  EXPECT_TRUE(conn_.last_stats().used_rewrite);

  // Only DDL re-prepares; a SET takes effect at the next execution.
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(conn_.Execute("SET bmo_algorithm = sfs").ok());
  auto direct = stmt->Execute();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  EXPECT_FALSE(conn_.last_stats().used_rewrite);
  EXPECT_EQ(conn_.last_stats().bmo_algorithm, "sort-filter-skyline");
  EXPECT_EQ(rewritten->ToString(), direct->ToString());
}

TEST_F(PreparedStatementTest, PreparedDmlBindsPerExecution) {
  auto ins = conn_.Prepare("INSERT INTO car VALUES (?, ?, ?, ?)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  ASSERT_EQ(ins->parameter_count(), 4u);
  for (int id : {6, 7}) {
    ASSERT_TRUE(ins->Bind(0, Value::Int(id)).ok());
    ASSERT_TRUE(ins->Bind(1, Value::Int(1000 * id)).ok());
    ASSERT_TRUE(ins->Bind(2, Value::Int(100)).ok());
    ASSERT_TRUE(ins->Bind(3, Value::Text("grey")).ok());
    auto r = ins->Execute();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->at(0, 0).AsInt(), 1);
  }
  auto check = conn_.Execute("SELECT COUNT(*) FROM car WHERE color = 'grey'");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->at(0, 0).AsInt(), 2);
}

TEST_F(PreparedStatementTest, PreparedStatementStreamsThroughOpen) {
  auto stmt = conn_.Prepare(
      "SELECT id, price FROM car WHERE price < $cap "
      "PREFERRING LOWEST(mileage) ORDER BY id");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->Bind("cap", Value::Int(30000)).ok());
  auto materialized = stmt->Execute();
  ASSERT_TRUE(materialized.ok());

  auto cursor = stmt->Open();
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  size_t rows = 0;
  for (;;) {
    auto row = cursor->Next();
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    if (!row->has_value()) break;
    EXPECT_EQ((**row).row()[0].AsInt(),
              materialized->at(rows, 0).AsInt());
    ++rows;
  }
  EXPECT_EQ(rows, materialized->num_rows());
}

TEST_F(PreparedStatementTest, LiteralStatementsAreAutoParameterized) {
  // Prepare of a literal statement lifts the literals into pre-bound
  // parameters; rebinding reuses the same plan.
  auto stmt = conn_.Prepare(
      "SELECT id FROM car PREFERRING price AROUND 15000 ORDER BY id");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->parameter_count(), 1u);
  auto r1 = stmt->Execute();  // runs as written: AROUND 15000
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1->num_rows(), 1u);
  EXPECT_EQ(r1->at(0, 0).AsInt(), 2);
  ASSERT_TRUE(stmt->Bind(0, Value::Int(9000)).ok());
  auto r2 = stmt->Execute();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->at(0, 0).AsInt(), 5);
}

TEST_F(PreparedStatementTest, AutoParameterizedTextsShareOnePlan) {
  const uint64_t misses0 =
      conn_.engine()->plan_cache().counters().misses;
  const size_t size0 = conn_.engine()->plan_cache().size();

  ASSERT_TRUE(conn_.Execute("SELECT id FROM car PREFERRING price AROUND "
                            "15000 ORDER BY id")
                  .ok());
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  EXPECT_TRUE(conn_.last_stats().auto_parameterized);
  EXPECT_EQ(conn_.last_stats().bound_parameters, 1u);

  // Different literal, same shape: hits the shared entry.
  auto r = conn_.Execute(
      "SELECT id FROM car PREFERRING price AROUND 22000 ORDER BY id");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->at(0, 0).AsInt(), 3);
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  EXPECT_TRUE(conn_.last_stats().auto_parameterized);

  // One miss, one entry for both spellings.
  EXPECT_EQ(conn_.engine()->plan_cache().counters().misses, misses0 + 1);
  EXPECT_EQ(conn_.engine()->plan_cache().size(), size0 + 1);

  // A different shape misses.
  ASSERT_TRUE(conn_.Execute("SELECT id FROM car PREFERRING mileage AROUND "
                            "15000 ORDER BY id")
                  .ok());
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
}

TEST_F(PreparedStatementTest, AutoParameterizationCanBeDisabled) {
  ASSERT_TRUE(conn_.Execute("SET auto_parameterize = off").ok());
  ASSERT_TRUE(conn_.Execute("SELECT id FROM car PREFERRING price AROUND "
                            "15000 ORDER BY id")
                  .ok());
  EXPECT_FALSE(conn_.last_stats().auto_parameterized);
  // A different literal is a different key now.
  ASSERT_TRUE(conn_.Execute("SELECT id FROM car PREFERRING price AROUND "
                            "22000 ORDER BY id")
                  .ok());
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  // The identical text still hits.
  ASSERT_TRUE(conn_.Execute("SELECT id FROM car PREFERRING price AROUND "
                            "22000 ORDER BY id")
                  .ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
}

TEST_F(PreparedStatementTest, ParseErrorsPointIntoTheClientsText) {
  // Auto-parameterization parses the lifted canonical text, whose offsets
  // differ from what the client sent (collapsed whitespace, `?` for each
  // literal); every entry point must report the error in the client's text.
  const std::string texts[] = {
      "select   a FROM t WHERE a = 123456789 AND AND b = 1",
      "SELECT id FROM car WHERE color = 'a long literal'  AND AND price > 1",
  };
  for (const std::string& sql : texts) {
    SCOPED_TRACE(sql);
    auto executed = conn_.Execute(sql);
    ASSERT_FALSE(executed.ok());
    EXPECT_TRUE(executed.status().IsParseError());
    auto cursor = conn_.OpenCursor(sql);
    ASSERT_FALSE(cursor.ok());
    EXPECT_EQ(cursor.status().message(), executed.status().message());
    auto prepared = conn_.Prepare(sql);
    ASSERT_FALSE(prepared.ok());
    EXPECT_EQ(prepared.status().message(), executed.status().message());
  }
  auto first = conn_.Prepare(texts[0]);
  EXPECT_NE(first.status().message().find("offset 42"), std::string::npos)
      << first.status().ToString();
}

TEST_F(PreparedStatementTest, SelectListLiteralsKeepTheirHeaders) {
  // Literals in the select list must not be lifted — they derive result
  // headers.
  auto r = conn_.Execute("SELECT 1, id FROM car WHERE id = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().column(0).name, "1");
  EXPECT_EQ(r->at(0, 0).AsInt(), 1);
}

}  // namespace
}  // namespace prefsql
