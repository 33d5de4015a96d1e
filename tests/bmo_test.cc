#include "core/bmo.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/connection.h"
#include "preference/validate.h"
#include "sql/parser.h"
#include "util/random.h"

namespace prefsql {
namespace {

struct Fixture {
  CompiledPreference pref;
  KeyStore keys;                 // packed keys the algorithms consume
  std::vector<PrefKey> oracle;   // AoS keys for the recursive validators
  std::vector<size_t> all;
};

Fixture MakeFixture(const std::string& pref_text,
                    const std::vector<Row>& rows,
                    const std::vector<std::string>& columns) {
  auto term = ParsePreference(pref_text);
  EXPECT_TRUE(term.ok()) << term.status().ToString();
  auto pref = CompiledPreference::Compile(**term);
  EXPECT_TRUE(pref.ok()) << pref.status().ToString();
  Schema schema = Schema::FromNames(columns);
  Fixture f{std::move(pref).value(), {}, {}, {}};
  f.keys.Reset(f.pref.num_leaves());
  f.keys.Reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(f.pref.AppendKey(schema, rows[i], &f.keys).ok());
    f.oracle.push_back(f.pref.MakeKey(schema, rows[i]).value());
    f.all.push_back(i);
  }
  return f;
}

Fixture RandomParetoFixture(size_t n, int dims, uint64_t seed,
                            int64_t domain = 100) {
  std::vector<std::string> cols = {"a", "b", "c", "d", "e"};
  cols.resize(static_cast<size_t>(dims));
  std::string text;
  for (int d = 0; d < dims; ++d) {
    if (d > 0) text += " AND ";
    text += "LOWEST(" + cols[static_cast<size_t>(d)] + ")";
  }
  Random rng(seed);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    Row row;
    for (int d = 0; d < dims; ++d) {
      row.push_back(Value::Int(rng.Uniform(0, domain)));
    }
    rows.push_back(std::move(row));
  }
  return MakeFixture(text, rows, cols);
}

TEST(BmoTest, SingleLowestKeepsAllMinima) {
  Fixture f = MakeFixture("LOWEST(a)",
                          {{Value::Int(3)}, {Value::Int(1)}, {Value::Int(1)},
                           {Value::Int(2)}},
                          {"a"});
  for (auto algo :
       {BmoAlgorithm::kNaiveNestedLoop, BmoAlgorithm::kBlockNestedLoop,
        BmoAlgorithm::kSortFilterSkyline, BmoAlgorithm::kLess}) {
    BmoOptions opt;
    opt.algorithm = algo;
    auto bmo = ComputeBmo(f.pref, f.keys, f.all, opt);
    EXPECT_EQ(bmo, (std::vector<size_t>{1, 2})) << BmoAlgorithmToString(algo);
  }
}

TEST(BmoTest, ParetoSkylineSmall) {
  // Classic 2d example: (1,5) (2,2) (5,1) are the skyline; (3,3) (4,4)
  // dominated by (2,2).
  Fixture f = MakeFixture(
      "LOWEST(a) AND LOWEST(b)",
      {{Value::Int(1), Value::Int(5)},
       {Value::Int(3), Value::Int(3)},
       {Value::Int(2), Value::Int(2)},
       {Value::Int(5), Value::Int(1)},
       {Value::Int(4), Value::Int(4)}},
      {"a", "b"});
  auto bmo = ComputeBmo(f.pref, f.keys, f.all);
  EXPECT_EQ(bmo, (std::vector<size_t>{0, 2, 3}));
  EXPECT_TRUE(CheckBmoIsMaximalSet(f.pref, f.oracle, bmo).ok());
}

TEST(BmoTest, EmptyAndSingletonInputs) {
  Fixture f = MakeFixture("LOWEST(a)", {{Value::Int(1)}}, {"a"});
  const std::vector<size_t> none;
  const std::vector<size_t> only{0};
  for (auto algo :
       {BmoAlgorithm::kNaiveNestedLoop, BmoAlgorithm::kBlockNestedLoop,
        BmoAlgorithm::kSortFilterSkyline, BmoAlgorithm::kLess}) {
    BmoOptions opt;
    opt.algorithm = algo;
    EXPECT_TRUE(ComputeBmo(f.pref, f.keys, none, opt).empty());
    EXPECT_EQ(ComputeBmo(f.pref, f.keys, only, opt),
              (std::vector<size_t>{0}));
  }
}

TEST(BmoTest, CandidateSubsetRestrictsInput) {
  Fixture f = MakeFixture("LOWEST(a)",
                          {{Value::Int(1)}, {Value::Int(5)}, {Value::Int(9)}},
                          {"a"});
  // Without index 0, the minimum of the remaining set wins.
  const std::vector<size_t> subset{1, 2};
  auto bmo = ComputeBmo(f.pref, f.keys, subset);
  EXPECT_EQ(bmo, (std::vector<size_t>{1}));
}

// Cross-algorithm equivalence on randomized inputs: all three algorithms
// must return exactly the maximal set.
class BmoEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BmoEquivalenceTest, AllAlgorithmsAgree) {
  auto [n, dims, seed] = GetParam();
  Fixture f = RandomParetoFixture(static_cast<size_t>(n), dims,
                                  static_cast<uint64_t>(seed), 20);
  auto naive = ComputeBmo(f.pref, f.keys, f.all,
                          {BmoAlgorithm::kNaiveNestedLoop, 0});
  auto bnl = ComputeBmo(f.pref, f.keys, f.all,
                        {BmoAlgorithm::kBlockNestedLoop, 0});
  auto sfs = ComputeBmo(f.pref, f.keys, f.all,
                        {BmoAlgorithm::kSortFilterSkyline, 0});
  BmoOptions less_opt;
  less_opt.algorithm = BmoAlgorithm::kLess;
  auto less = ComputeBmo(f.pref, f.keys, f.all, less_opt);
  EXPECT_EQ(naive, bnl);
  EXPECT_EQ(naive, sfs);
  EXPECT_EQ(naive, less);
  EXPECT_TRUE(CheckBmoIsMaximalSet(f.pref, f.oracle, naive).ok());
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, BmoEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 10, 100, 400),
                       ::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3)));

// Bounded-window BNL must still be exact, across window sizes even smaller
// than the skyline.
class BnlWindowTest : public ::testing::TestWithParam<int> {};

TEST_P(BnlWindowTest, BoundedWindowIsExact) {
  Fixture f = RandomParetoFixture(300, 3, 7, 30);
  auto reference = ComputeBmo(f.pref, f.keys, f.all,
                              {BmoAlgorithm::kNaiveNestedLoop, 0});
  BmoOptions opt;
  opt.algorithm = BmoAlgorithm::kBlockNestedLoop;
  opt.bnl_window = static_cast<size_t>(GetParam());
  BmoStats stats;
  auto bounded = ComputeBmo(f.pref, f.keys, f.all, opt, &stats);
  EXPECT_EQ(bounded, reference) << "window=" << GetParam();
  if (static_cast<size_t>(GetParam()) < reference.size()) {
    EXPECT_GT(stats.passes, 1u);  // overflow forced extra passes
  }
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, BnlWindowTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 1024));

// LESS must be exact for any elimination-filter window capacity (the EF
// only pre-drops tuples a real input tuple dominates; the SFS pass over the
// survivors restores exactness).
class LessWindowTest : public ::testing::TestWithParam<int> {};

TEST_P(LessWindowTest, EliminationFilterIsExact) {
  Fixture f = RandomParetoFixture(300, 3, 13, 30);
  auto reference = ComputeBmo(f.pref, f.keys, f.all,
                              {BmoAlgorithm::kNaiveNestedLoop, 0});
  BmoOptions opt;
  opt.algorithm = BmoAlgorithm::kLess;
  opt.less_window = static_cast<size_t>(GetParam());
  auto less = ComputeBmo(f.pref, f.keys, f.all, opt);
  EXPECT_EQ(less, reference) << "less_window=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, LessWindowTest,
                         ::testing::Values(0, 1, 2, 8, 32, 256, 100000));

TEST(BmoTest, StatsCountComparisons) {
  Fixture f = RandomParetoFixture(100, 2, 3, 50);
  BmoStats naive_stats, sfs_stats;
  ComputeBmo(f.pref, f.keys, f.all, {BmoAlgorithm::kNaiveNestedLoop, 0},
             &naive_stats);
  ComputeBmo(f.pref, f.keys, f.all, {BmoAlgorithm::kSortFilterSkyline, 0},
             &sfs_stats);
  EXPECT_GT(naive_stats.comparisons, 0u);
  // SFS never compares more than the naive quadratic loop.
  EXPECT_LE(sfs_stats.comparisons, naive_stats.comparisons);
}

// Progressive top-k: members must be maximal, counts must cap at k, and
// comparisons must not exceed the full SFS run.
class BmoTopKTest : public ::testing::TestWithParam<int> {};

TEST_P(BmoTopKTest, ReturnsKMaximalTuples) {
  size_t k = static_cast<size_t>(GetParam());
  Fixture f = RandomParetoFixture(400, 3, 11, 40);
  auto full = ComputeBmo(f.pref, f.keys, f.all,
                         {BmoAlgorithm::kSortFilterSkyline, 0});
  BmoStats topk_stats, full_stats;
  ComputeBmo(f.pref, f.keys, f.all, {BmoAlgorithm::kSortFilterSkyline, 0},
             &full_stats);
  auto topk = ComputeBmoTopK(f.pref, f.keys, f.all, k, {}, &topk_stats);
  EXPECT_EQ(topk.size(), std::min(k, full.size()));
  // Every returned tuple is in the full BMO set.
  for (size_t idx : topk) {
    EXPECT_NE(std::find(full.begin(), full.end(), idx), full.end());
  }
  EXPECT_LE(topk_stats.comparisons, full_stats.comparisons);
}

INSTANTIATE_TEST_SUITE_P(Ks, BmoTopKTest,
                         ::testing::Values(0, 1, 2, 5, 20, 10000));

TEST(BmoTopKTest, LimitPushdownEndToEnd) {
  // Through the Connection: SFS + bare LIMIT returns k non-dominated rows
  // (subset of the full BMO).
  ConnectionOptions opts;
  opts.mode = EvaluationMode::kBlockNestedLoop;
  opts.bmo_algorithm = BmoAlgorithm::kSortFilterSkyline;
  Connection conn(opts);
  ASSERT_TRUE(conn.ExecuteScript(
                       "CREATE TABLE t (id INTEGER, x INTEGER, y INTEGER);"
                       "INSERT INTO t VALUES (0,0,9),(1,1,8),(2,2,7),"
                       "(3,3,6),(4,4,5),(5,9,9),(6,8,8)")
                  .ok());
  auto limited =
      conn.Execute("SELECT id FROM t PREFERRING LOWEST(x) AND LOWEST(y) "
                   "LIMIT 3");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_EQ(limited->num_rows(), 3u);
  auto full = conn.Execute(
      "SELECT id FROM t PREFERRING LOWEST(x) AND LOWEST(y)");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->num_rows(), 5u);  // the anti-correlated diagonal
  for (size_t i = 0; i < limited->num_rows(); ++i) {
    bool found = false;
    for (size_t j = 0; j < full->num_rows(); ++j) {
      found |= limited->RowToString(i) == full->RowToString(j);
    }
    EXPECT_TRUE(found) << limited->RowToString(i);
  }
}

TEST(BmoTest, AntiCorrelatedDataYieldsLargeSkyline) {
  // On an anti-correlated diagonal every tuple is maximal.
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back({Value::Int(i), Value::Int(50 - i)});
  }
  Fixture f = MakeFixture("LOWEST(a) AND LOWEST(b)", rows, {"a", "b"});
  auto bmo = ComputeBmo(f.pref, f.keys, f.all);
  EXPECT_EQ(bmo.size(), rows.size());
}

TEST(BmoTest, PrioritizedBmoIsBestGroup) {
  // CASCADE: all tuples tied on the first preference and minimal on the
  // second survive.
  Fixture f = MakeFixture(
      "LOWEST(a) CASCADE LOWEST(b)",
      {{Value::Int(1), Value::Int(4)},
       {Value::Int(1), Value::Int(2)},
       {Value::Int(1), Value::Int(2)},
       {Value::Int(0), Value::Int(9)}},
      {"a", "b"});
  auto bmo = ComputeBmo(f.pref, f.keys, f.all);
  EXPECT_EQ(bmo, (std::vector<size_t>{3}));  // a=0 wins outright
}

TEST(BmoTest, ExplicitPreferenceWithIncomparables) {
  Fixture f = MakeFixture(
      "c EXPLICIT ('a' BETTER THAN 'b', 'x' BETTER THAN 'y')",
      {{Value::Text("b")}, {Value::Text("x")}, {Value::Text("a")},
       {Value::Text("y")}, {Value::Text("other")}},
      {"c"});
  auto bmo = ComputeBmo(f.pref, f.keys, f.all);
  // Maximal: 'a' and 'x' and 'b'? 'b' is dominated only by 'a'; wait, 'b'
  // is dominated by 'a' (index 2), 'y' by 'x' (1), 'other' by all mentioned.
  EXPECT_EQ(bmo, (std::vector<size_t>{1, 2}));
  EXPECT_TRUE(CheckBmoIsMaximalSet(f.pref, f.oracle, bmo).ok());
}

}  // namespace
}  // namespace prefsql
