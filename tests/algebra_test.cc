// Preference algebra constructors (paper §5 outlook / [Kie01]): DUAL and
// INTERSECT, exercised from the parser down to both evaluation paths.

#include <gtest/gtest.h>

#include <string>

#include "core/connection.h"
#include "preference/algebra.h"
#include "preference/base_preferences.h"
#include "preference/validate.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/random.h"

namespace prefsql {
namespace {

// ---------------------------------------------------------------------------
// DualBasePreference unit level
// ---------------------------------------------------------------------------

TEST(DualPreferenceTest, InvertsAWeakOrder) {
  DualBasePreference dual(std::make_unique<LowestPreference>());
  // DUAL(LOWEST) behaves like HIGHEST.
  LeafKey two = dual.MakeKey(Value::Int(2));
  LeafKey five = dual.MakeKey(Value::Int(5));
  EXPECT_EQ(dual.Compare(five, two), Rel::kBetter);
  EXPECT_EQ(dual.Compare(two, five), Rel::kWorse);
  EXPECT_EQ(dual.Compare(two, two), Rel::kEquivalent);
  // Score stays a linear extension of the dual order.
  EXPECT_LT(dual.Score(Value::Int(5)), dual.Score(Value::Int(2)));
}

TEST(DualPreferenceTest, DoubleDualIsIdentity) {
  auto term = ParsePreference("DUAL(DUAL(LOWEST(x)))");
  ASSERT_TRUE(term.ok());
  auto pref = CompiledPreference::Compile(**term);
  ASSERT_TRUE(pref.ok());
  // The leaf must be the plain LOWEST again (dual toggling).
  EXPECT_STREQ(pref->leaf(0).pref->TypeName(), "LOWEST");
}

TEST(DualPreferenceTest, DualOfExplicitKeepsIncomparability) {
  auto term = ParsePreference(
      "DUAL(c EXPLICIT ('a' BETTER THAN 'b', 'x' BETTER THAN 'y'))");
  ASSERT_TRUE(term.ok());
  auto pref = CompiledPreference::Compile(**term);
  ASSERT_TRUE(pref.ok());
  Schema s = Schema::FromNames({"c"});
  auto key = [&](const char* v) {
    return pref->MakeKey(s, {Value::Text(v)}).value();
  };
  // Edges reversed: b beats a now.
  EXPECT_EQ(pref->Compare(key("b"), key("a")), Rel::kBetter);
  // Unrelated chains stay incomparable under the dual too.
  EXPECT_EQ(pref->Compare(key("a"), key("x")), Rel::kIncomparable);
  // Unmentioned values were worst; under the dual they are best.
  EXPECT_EQ(pref->Compare(key("zzz"), key("a")), Rel::kBetter);
}

// ---------------------------------------------------------------------------
// Parser / printer
// ---------------------------------------------------------------------------

TEST(AlgebraParserTest, DualAndIntersectRoundTrip) {
  for (const char* text :
       {"DUAL(LOWEST(a))",
        "DUAL(a AROUND 5 AND b = 'x')",
        "LOWEST(a) INTERSECT HIGHEST(b)",
        "LOWEST(a) INTERSECT HIGHEST(b) AND LOWEST(c)",
        "DUAL(LOWEST(a)) CASCADE b = 'x'"}) {
    auto term = ParsePreference(text);
    ASSERT_TRUE(term.ok()) << text << ": " << term.status().ToString();
    std::string printed = PrefTermToSql(**term);
    auto again = ParsePreference(printed);
    ASSERT_TRUE(again.ok()) << printed;
    EXPECT_EQ(PrefTermToSql(**again), printed) << text;
  }
}

TEST(AlgebraParserTest, IntersectBindsTighterThanAnd) {
  auto term = ParsePreference("LOWEST(a) INTERSECT HIGHEST(b) AND LOWEST(c)");
  ASSERT_TRUE(term.ok());
  ASSERT_EQ((*term)->kind, PrefKind::kPareto);
  EXPECT_EQ((*term)->children[0]->kind, PrefKind::kIntersect);
  EXPECT_EQ((*term)->children[1]->kind, PrefKind::kLowest);
}

// ---------------------------------------------------------------------------
// Semantics
// ---------------------------------------------------------------------------

TEST(IntersectTest, StricterThanPareto) {
  auto compile = [](const char* text) {
    auto term = ParsePreference(text);
    EXPECT_TRUE(term.ok());
    auto pref = CompiledPreference::Compile(**term);
    EXPECT_TRUE(pref.ok());
    return std::move(pref).value();
  };
  CompiledPreference inter = compile("LOWEST(x) INTERSECT LOWEST(y)");
  CompiledPreference pareto = compile("LOWEST(x) AND LOWEST(y)");
  Schema s = Schema::FromNames({"x", "y"});
  auto key = [&](const CompiledPreference& p, int x, int y) {
    return p.MakeKey(s, {Value::Int(x), Value::Int(y)}).value();
  };
  // (1,1) vs (2,2): better in both -> both constructors agree.
  EXPECT_EQ(inter.Compare(key(inter, 1, 1), key(inter, 2, 2)), Rel::kBetter);
  EXPECT_EQ(pareto.Compare(key(pareto, 1, 1), key(pareto, 2, 2)),
            Rel::kBetter);
  // (1,2) vs (2,2): better in x, equal in y -> Pareto dominates,
  // intersection does not.
  EXPECT_EQ(pareto.Compare(key(pareto, 1, 2), key(pareto, 2, 2)),
            Rel::kBetter);
  EXPECT_EQ(inter.Compare(key(inter, 1, 2), key(inter, 2, 2)),
            Rel::kIncomparable);
}

/// Evaluation path of one parameterized run: "rewrite", or the in-engine
/// path under the named `bmo_algorithm` ("naive", "bnl", "sfs", "less").
void ApplyPath(ConnectionOptions& options, const std::string& path) {
  if (path == "rewrite") {
    options.mode = EvaluationMode::kRewrite;
    return;
  }
  options.mode = EvaluationMode::kBlockNestedLoop;
  options.bmo_algorithm = *BmoAlgorithmFromString(path);
}

class AlgebraEndToEndTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AlgebraEndToEndTest, DualQueryBehavesLikeInvertedPreference) {
  ConnectionOptions opts;
  ApplyPath(opts, GetParam());
  Connection conn(opts);
  ASSERT_TRUE(conn.ExecuteScript(
                       "CREATE TABLE t (id INTEGER, v INTEGER);"
                       "INSERT INTO t VALUES (1, 10), (2, 30), (3, 20)")
                  .ok());
  auto dual = conn.Execute("SELECT id FROM t PREFERRING DUAL(LOWEST(v))");
  ASSERT_TRUE(dual.ok()) << dual.status().ToString();
  ASSERT_EQ(dual->num_rows(), 1u);
  EXPECT_EQ(dual->at(0, 0).AsInt(), 2);  // max v, like HIGHEST(v)
}

TEST_P(AlgebraEndToEndTest, IntersectQueryKeepsMoreTuples) {
  ConnectionOptions opts;
  ApplyPath(opts, GetParam());
  Connection conn(opts);
  ASSERT_TRUE(conn.ExecuteScript(
                       "CREATE TABLE t (id INTEGER, x INTEGER, y INTEGER);"
                       "INSERT INTO t VALUES (1, 1, 2), (2, 2, 2), (3, 3, 3)")
                  .ok());
  auto pareto = conn.Execute(
      "SELECT id FROM t PREFERRING LOWEST(x) AND LOWEST(y) ORDER BY id");
  ASSERT_TRUE(pareto.ok());
  ASSERT_EQ(pareto->num_rows(), 1u);  // (1,2) dominates (2,2) and (3,3)
  auto inter = conn.Execute(
      "SELECT id FROM t PREFERRING LOWEST(x) INTERSECT LOWEST(y) "
      "ORDER BY id");
  ASSERT_TRUE(inter.ok()) << inter.status().ToString();
  // Under intersection (1,2) does not dominate (2,2) (equal y); only (3,3)
  // is strictly dominated by both others.
  ASSERT_EQ(inter->num_rows(), 2u);
  EXPECT_EQ(inter->at(0, 0).AsInt(), 1);
  EXPECT_EQ(inter->at(1, 0).AsInt(), 2);
}

TEST_P(AlgebraEndToEndTest, DualDistributesOverPareto) {
  ConnectionOptions opts;
  ApplyPath(opts, GetParam());
  Connection conn(opts);
  ASSERT_TRUE(conn.ExecuteScript(
                       "CREATE TABLE t (id INTEGER, x INTEGER, y INTEGER);"
                       "INSERT INTO t VALUES (1, 1, 1), (2, 9, 9), (3, 1, 9)")
                  .ok());
  // DUAL(LOWEST AND LOWEST) == HIGHEST AND HIGHEST.
  auto dual = conn.Execute(
      "SELECT id FROM t PREFERRING DUAL(LOWEST(x) AND LOWEST(y)) "
      "ORDER BY id");
  auto highest = conn.Execute(
      "SELECT id FROM t PREFERRING HIGHEST(x) AND HIGHEST(y) ORDER BY id");
  ASSERT_TRUE(dual.ok() && highest.ok());
  ASSERT_EQ(dual->num_rows(), highest->num_rows());
  for (size_t i = 0; i < dual->num_rows(); ++i) {
    EXPECT_EQ(dual->RowToString(i), highest->RowToString(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothPaths, AlgebraEndToEndTest,
    ::testing::Values("rewrite", "bnl", "naive"),
    [](const auto& info) { return info.param; });

// Partial-order axioms hold for algebra shapes too.
TEST(AlgebraPropertyTest, StrictPartialOrderAxioms) {
  for (const char* text :
       {"DUAL(a AROUND 7)",
        "DUAL(c EXPLICIT ('red' BETTER THAN 'blue', 'x' BETTER THAN 'y'))",
        "LOWEST(a) INTERSECT HIGHEST(b)",
        "DUAL(LOWEST(a) AND HIGHEST(b)) CASCADE c = 'red'",
        "(LOWEST(a) INTERSECT a AROUND 3) AND HIGHEST(b)"}) {
    auto term = ParsePreference(text);
    ASSERT_TRUE(term.ok()) << text;
    auto pref = CompiledPreference::Compile(**term);
    ASSERT_TRUE(pref.ok()) << text;
    Schema schema = Schema::FromNames({"a", "b", "c"});
    Random rng(7);
    std::vector<std::string> words = {"red", "blue", "x", "y", "z"};
    std::vector<PrefKey> keys;
    for (int i = 0; i < 40; ++i) {
      Row row{Value::Int(rng.Uniform(-3, 12)), Value::Int(rng.Uniform(0, 9)),
              Value::Text(rng.Choice(words))};
      keys.push_back(pref->MakeKey(schema, row).value());
    }
    Status check = CheckStrictPartialOrder(*pref, keys);
    EXPECT_TRUE(check.ok()) << text << ": " << check.ToString();
  }
}

}  // namespace
}  // namespace prefsql
