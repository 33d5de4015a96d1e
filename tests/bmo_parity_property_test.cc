// Randomized BMO parity property tests:
//   * For generated workloads and random preference terms, the naive nested
//     loop, BNL (several window sizes), SFS, LESS and the full
//     operator-pipeline path (the rewrite, and the in-engine path under
//     every bmo_algorithm) must return the same maximal set, and
//     the progressive ComputeBmoTopK(k) must return a k-subset of it with
//     fewer (or equal) dominance comparisons.
//   * The compiled dominance program (flat opcodes + packed kernels over the
//     KeyStore) must agree with the recursive CompiledPreference::Compare
//     oracle on randomized preference trees including EXPLICIT leaves
//     (weak-order and general partial orders), DUAL wrappers, Prioritized /
//     Pareto / INTERSECT mixes — ≥10k (preference, key-pair) samples.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/bmo.h"
#include "core/connection.h"
#include "sql/parser.h"
#include "util/random.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

// A random weak-order preference over the numeric car columns: 2-4 distinct
// dimensions combined with AND (Pareto) or CASCADE (prioritization).
std::string RandomPreferenceText(Random& rng) {
  struct Dim {
    const char* column;
    int64_t lo, hi;  // plausible AROUND target range
  };
  std::vector<Dim> dims = {{"price", 5000, 40000},
                           {"mileage", 0, 200000},
                           {"power", 50, 300},
                           {"age", 0, 30}};
  size_t n = static_cast<size_t>(rng.Uniform(2, 4));
  std::string text;
  for (size_t d = 0; d < n; ++d) {
    const Dim& dim = dims[d];
    std::string atom;
    switch (rng.Uniform(0, 2)) {
      case 0:
        atom = "LOWEST(" + std::string(dim.column) + ")";
        break;
      case 1:
        atom = "HIGHEST(" + std::string(dim.column) + ")";
        break;
      default:
        atom = std::string(dim.column) + " AROUND " +
               std::to_string(rng.Uniform(dim.lo, dim.hi));
        break;
    }
    if (d > 0) text += rng.Bernoulli(0.3) ? " CASCADE " : " AND ";
    text += atom;
  }
  return text;
}

class BmoParityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BmoParityPropertyTest, AllPathsReturnTheSameMaximalSet) {
  uint64_t seed = GetParam();
  Random rng(seed);
  std::string pref_text = RandomPreferenceText(rng);
  SCOPED_TRACE("PREFERRING " + pref_text);

  // Reference: keys over the materialized candidate relation, naive BMO.
  Connection ref_conn;
  ASSERT_TRUE(GenerateUsedCars(ref_conn.database(), 400, seed).ok());
  auto stmt = ParseStatement("SELECT * FROM car");
  ASSERT_TRUE(stmt.ok());
  auto candidates =
      ref_conn.database().executor().MaterializeCandidates(*stmt->select);
  ASSERT_TRUE(candidates.ok());
  auto term = ParsePreference(pref_text);
  ASSERT_TRUE(term.ok()) << term.status().ToString();
  auto pref = CompiledPreference::Compile(**term);
  ASSERT_TRUE(pref.ok()) << pref.status().ToString();

  KeyStore keys(pref->num_leaves());
  keys.Reserve(candidates->num_rows());
  std::vector<size_t> all;
  for (size_t i = 0; i < candidates->num_rows(); ++i) {
    ASSERT_TRUE(
        pref->AppendKey(candidates->schema(), candidates->rows()[i], &keys)
            .ok());
    all.push_back(i);
  }
  auto reference =
      ComputeBmo(*pref, keys, all, {BmoAlgorithm::kNaiveNestedLoop, 0});

  // 1. Direct algorithms agree, across BNL window sizes and LESS
  //    elimination-filter capacities.
  for (size_t window : {size_t{0}, size_t{1}, size_t{7}, size_t{64}}) {
    auto bnl = ComputeBmo(*pref, keys, all,
                          {BmoAlgorithm::kBlockNestedLoop, window});
    EXPECT_EQ(bnl, reference) << "BNL window " << window;
  }
  auto sfs =
      ComputeBmo(*pref, keys, all, {BmoAlgorithm::kSortFilterSkyline, 0});
  EXPECT_EQ(sfs, reference);
  for (size_t ef : {size_t{1}, size_t{8}, size_t{32}}) {
    BmoOptions less_opt;
    less_opt.algorithm = BmoAlgorithm::kLess;
    less_opt.less_window = ef;
    auto less = ComputeBmo(*pref, keys, all, less_opt);
    EXPECT_EQ(less, reference) << "LESS window " << ef;
  }

  // 2. ComputeBmoTopK(k) returns a k-subset of the maximal set without
  //    extra comparisons.
  BmoStats full_stats;
  ComputeBmo(*pref, keys, all, {BmoAlgorithm::kSortFilterSkyline, 0},
             &full_stats);
  std::set<size_t> reference_set(reference.begin(), reference.end());
  for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{1000}}) {
    BmoStats topk_stats;
    auto topk = ComputeBmoTopK(*pref, keys, all, k, {}, &topk_stats);
    EXPECT_EQ(topk.size(), std::min(k, reference.size())) << "k=" << k;
    for (size_t idx : topk) {
      EXPECT_TRUE(reference_set.count(idx)) << "k=" << k << " idx=" << idx;
    }
    EXPECT_LE(topk_stats.comparisons, full_stats.comparisons) << "k=" << k;
  }

  // Reference ids (the generated car table has id in column 0).
  std::vector<std::string> reference_ids;
  for (size_t idx : reference) {
    reference_ids.push_back(candidates->at(idx, 0).ToString());
  }
  std::sort(reference_ids.begin(), reference_ids.end());

  // 3. The operator-pipeline path agrees under the rewrite and under every
  //    in-engine skyline algorithm.
  struct PathConfig {
    EvaluationMode mode;
    BmoAlgorithm algorithm;
  };
  for (PathConfig path :
       {PathConfig{EvaluationMode::kRewrite, BmoAlgorithm::kBlockNestedLoop},
        PathConfig{EvaluationMode::kBlockNestedLoop,
                   BmoAlgorithm::kBlockNestedLoop},
        PathConfig{EvaluationMode::kBlockNestedLoop,
                   BmoAlgorithm::kNaiveNestedLoop},
        PathConfig{EvaluationMode::kBlockNestedLoop,
                   BmoAlgorithm::kSortFilterSkyline},
        PathConfig{EvaluationMode::kBlockNestedLoop, BmoAlgorithm::kLess}}) {
    ConnectionOptions opts;
    opts.mode = path.mode;
    opts.bmo_algorithm = path.algorithm;
    opts.bnl_window = static_cast<size_t>(rng.Uniform(0, 16));
    Connection conn(opts);
    ASSERT_TRUE(GenerateUsedCars(conn.database(), 400, seed).ok());
    const std::string label =
        std::string(EvaluationModeToString(path.mode)) + "/" +
        BmoAlgorithmToString(path.algorithm);
    auto r = conn.Execute("SELECT id FROM car PREFERRING " + pref_text);
    ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
    if (path.mode != EvaluationMode::kRewrite) {
      EXPECT_EQ(conn.last_stats().bmo_algorithm,
                BmoAlgorithmToString(path.algorithm));
    }
    std::vector<std::string> ids;
    for (size_t i = 0; i < r->num_rows(); ++i) {
      ids.push_back(r->at(i, 0).ToString());
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, reference_ids) << label;
  }

  // 4. LIMIT pushdown through the pipeline: SFS mode with a bare LIMIT
  //    returns min(k, |BMO|) maximal rows with no more dominance
  //    comparisons than the full run.
  {
    ConnectionOptions opts;
    opts.mode = EvaluationMode::kBlockNestedLoop;
    opts.bmo_algorithm = BmoAlgorithm::kSortFilterSkyline;
    Connection conn(opts);
    ASSERT_TRUE(GenerateUsedCars(conn.database(), 400, seed).ok());
    auto full = conn.Execute("SELECT id FROM car PREFERRING " + pref_text);
    ASSERT_TRUE(full.ok());
    size_t full_comparisons = conn.last_stats().bmo_comparisons;
    size_t k = 3;
    auto limited = conn.Execute("SELECT id FROM car PREFERRING " + pref_text +
                                " LIMIT " + std::to_string(k));
    ASSERT_TRUE(limited.ok());
    EXPECT_EQ(limited->num_rows(), std::min(k, reference.size()));
    EXPECT_LE(conn.last_stats().bmo_comparisons, full_comparisons);
    for (size_t i = 0; i < limited->num_rows(); ++i) {
      EXPECT_TRUE(std::binary_search(reference_ids.begin(),
                                     reference_ids.end(),
                                     limited->at(i, 0).ToString()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BmoParityPropertyTest,
                         ::testing::Values(1u, 5u, 23u, 57u, 111u, 4242u));

// ---------------------------------------------------------------------------
// Dominance program vs recursive Compare oracle on randomized trees.
// ---------------------------------------------------------------------------

// A random preference tree over small integer/text columns c0..c5, depth up
// to 3, covering every constructor the program compiles: weak-order leaves
// (LOWEST/HIGHEST/AROUND/POS), EXPLICIT better-than graphs (frequently not
// weak orders), DUAL wrappers, AND / CASCADE / INTERSECT combinators.
std::string RandomTreeText(Random& rng, int depth, size_t* next_col) {
  auto leaf = [&]() -> std::string {
    std::string col = "c" + std::to_string((*next_col)++ % 6);
    switch (rng.Uniform(0, 4)) {
      case 0:
        return "LOWEST(" + col + ")";
      case 1:
        return "HIGHEST(" + col + ")";
      case 2:
        return col + " AROUND " + std::to_string(rng.Uniform(0, 9));
      case 3:
        return col + " IN ('v" + std::to_string(rng.Uniform(0, 4)) + "', 'v" +
               std::to_string(rng.Uniform(5, 9)) + "')";
      default: {
        // EXPLICIT over values v0..v9; 2-5 random edges. Retry on the rare
        // cyclic draw by orienting edges from lower to higher value id.
        size_t n_edges = static_cast<size_t>(rng.Uniform(2, 5));
        std::string text = col + " EXPLICIT (";
        for (size_t e = 0; e < n_edges; ++e) {
          int64_t a = rng.Uniform(0, 8);
          int64_t b = rng.Uniform(static_cast<int64_t>(a) + 1, 9);
          if (e > 0) text += ", ";
          text += "'v" + std::to_string(a) + "' BETTER THAN 'v" +
                  std::to_string(b) + "'";
        }
        return text + ")";
      }
    }
  };
  std::string node;
  if (depth <= 0 || rng.Bernoulli(0.35)) {
    node = leaf();
  } else {
    const char* op = rng.Bernoulli(0.4)   ? " AND "
                     : rng.Bernoulli(0.5) ? " CASCADE "
                                          : " INTERSECT ";
    size_t n = static_cast<size_t>(rng.Uniform(2, 3));
    node = "(";
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) node += op;
      node += RandomTreeText(rng, depth - 1, next_col);
    }
    node += ")";
  }
  if (rng.Bernoulli(0.2)) node = "DUAL(" + node + ")";
  return node;
}

// Random row over c0..c5: small integers and 'v<k>' texts (so EXPLICIT
// leaves hit mentioned and unmentioned values), with occasional NULLs.
Row RandomTreeRow(Random& rng) {
  Row row;
  for (size_t c = 0; c < 6; ++c) {
    int64_t pick = rng.Uniform(0, 9);
    if (rng.Bernoulli(0.05)) {
      row.push_back(Value::Null());
    } else if (rng.Bernoulli(0.5)) {
      row.push_back(Value::Int(pick));
    } else {
      row.push_back(Value::Text("v" + std::to_string(pick)));
    }
  }
  return row;
}

TEST(DominanceProgramParityTest, ProgramMatchesRecursiveCompareOracle) {
  Random rng(20260729);
  Schema schema =
      Schema::FromNames({"c0", "c1", "c2", "c3", "c4", "c5"});
  size_t samples = 0;
  size_t general_kernel_trees = 0;
  constexpr size_t kTrees = 120;
  constexpr size_t kRows = 24;
  for (size_t t = 0; t < kTrees; ++t) {
    size_t next_col = static_cast<size_t>(rng.Uniform(0, 5));
    std::string text = RandomTreeText(rng, 3, &next_col);
    SCOPED_TRACE("PREFERRING " + text);
    auto term = ParsePreference(text);
    ASSERT_TRUE(term.ok()) << term.status().ToString();
    auto pref = CompiledPreference::Compile(**term);
    ASSERT_TRUE(pref.ok()) << pref.status().ToString();
    if (pref->program().kernel() == DominanceKernel::kGeneric) {
      ++general_kernel_trees;
    }

    KeyStore store(pref->num_leaves());
    store.Reserve(kRows);
    std::vector<PrefKey> oracle_keys;
    for (size_t r = 0; r < kRows; ++r) {
      Row row = RandomTreeRow(rng);
      ASSERT_TRUE(pref->AppendKey(schema, row, &store).ok());
      auto key = pref->MakeKey(schema, row);
      ASSERT_TRUE(key.ok());
      oracle_keys.push_back(std::move(key).value());
      // The packed store and the oracle key must agree leaf for leaf.
      for (size_t l = 0; l < pref->num_leaves(); ++l) {
        ASSERT_EQ(store.key(r, l).score, oracle_keys[r][l].score);
        ASSERT_EQ(store.key(r, l).explicit_id, oracle_keys[r][l].explicit_id);
      }
    }
    for (size_t i = 0; i < kRows; ++i) {
      for (size_t j = 0; j < kRows; ++j) {
        Rel want = pref->Compare(oracle_keys[i], oracle_keys[j]);
        Rel got = pref->program().Compare(store, i, j);
        ASSERT_EQ(got, want)
            << "pair (" << i << ", " << j << "), kernel "
            << DominanceKernelToString(pref->program().kernel());
        EXPECT_EQ(pref->program().Dominates(store, i, j),
                  want == Rel::kBetter);
        ++samples;
      }
    }
  }
  // The acceptance bar: ≥10k randomized (preference, key-pair) samples,
  // exercising both the packed kernels and the generic opcode evaluator.
  EXPECT_GE(samples, 10000u);
  EXPECT_GT(general_kernel_trees, 10u);
  EXPECT_LT(general_kernel_trees, kTrees);
}

// The block-variant set this host must agree on: scalar and the portable
// unrolled form always, AVX2 when the runtime dispatch selects it.
std::vector<SimdVariant> BlockVariants() {
  std::vector<SimdVariant> v = {SimdVariant::kScalar,
                                SimdVariant::kUnrolled4};
  if (DispatchedSimdVariant() == SimdVariant::kAvx2) {
    v.push_back(SimdVariant::kAvx2);
  }
  return v;
}

// Checks AnyDominates / DominatesBlock against the row-at-a-time Dominates
// oracle for every target row of `store`, under every supported variant.
void CheckBlockParity(const DominanceProgram& prog, const KeyStore& store,
                      const std::vector<size_t>& rows) {
  for (size_t target = 0; target < store.size(); ++target) {
    bool want_any = false;
    for (size_t r : rows) want_any |= prog.Dominates(store, r, target);
    std::vector<uint8_t> want_block(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      want_block[i] = prog.Dominates(store, target, rows[i]) ? 1 : 0;
    }
    for (SimdVariant v : BlockVariants()) {
      size_t comparisons = 0;
      EXPECT_EQ(prog.AnyDominates(store, rows.data(), rows.size(), target, v,
                                  &comparisons),
                want_any)
          << "AnyDominates, variant " << SimdVariantToString(v)
          << ", target " << target;
      if (want_any) {
        EXPECT_GT(comparisons, 0u);
      }
      std::vector<uint8_t> got(rows.size(), 0xee);
      prog.DominatesBlock(store, target, rows.data(), rows.size(),
                          got.data(), v, /*comparisons=*/nullptr);
      EXPECT_EQ(got, want_block)
          << "DominatesBlock, variant " << SimdVariantToString(v)
          << ", candidate " << target;
    }
  }
}

// Block-kernel parity on randomized trees: the group-of-4 unrolled and
// AVX2 forms must agree bit-for-bit with the scalar loop, including on row
// sets shorter than the vector width (tail handling) and shuffled subsets.
TEST(DominanceProgramParityTest, BlockKernelsMatchTheScalarOracle) {
  Random rng(20260808);
  Schema schema = Schema::FromNames({"c0", "c1", "c2", "c3", "c4", "c5"});
  size_t packed_trees = 0;
  for (size_t t = 0; t < 80; ++t) {
    size_t next_col = static_cast<size_t>(rng.Uniform(0, 5));
    std::string text = RandomTreeText(rng, 2, &next_col);
    SCOPED_TRACE("PREFERRING " + text);
    auto term = ParsePreference(text);
    ASSERT_TRUE(term.ok()) << term.status().ToString();
    auto pref = CompiledPreference::Compile(**term);
    ASSERT_TRUE(pref.ok()) << pref.status().ToString();
    if (pref->program().kernel() != DominanceKernel::kGeneric) {
      ++packed_trees;
    }

    // Row counts straddle the 4-wide group size: every tail length 1..9
    // shows up across iterations, as do multi-group sets.
    size_t n = static_cast<size_t>(t % 2 == 0 ? rng.Uniform(1, 9)
                                              : rng.Uniform(10, 30));
    KeyStore store(pref->num_leaves());
    store.Reserve(n);
    for (size_t r = 0; r < n; ++r) {
      ASSERT_TRUE(pref->AppendKey(schema, RandomTreeRow(rng), &store).ok());
    }
    std::vector<size_t> rows;  // random subset, shuffled (non-contiguous)
    for (size_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(0.8)) rows.push_back(r);
    }
    for (size_t i = rows.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(i) - 1));
      std::swap(rows[i - 1], rows[j]);
    }
    CheckBlockParity(pref->program(), store, rows);
  }
  EXPECT_GT(packed_trees, 20u);
}

// NaN (incomparable both ways), -0.0 == 0.0, and ±inf must behave
// identically across scalar, unrolled and AVX2 forms — the vector
// comparisons are ordered-quiet (_CMP_LT_OQ/_CMP_GT_OQ) exactly so this
// holds. Every (special, special) pair appears as a row of both a packed
// Pareto and a packed lex store; 49 rows also exercises the 4-wide tail.
TEST(DominanceProgramParityTest, BlockKernelsAgreeOnAdversarialDoubles) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {kNaN, -kInf, -1.0, -0.0,
                                        0.0,  1.0,   kInf};
  for (const char* text :
       {"LOWEST(a) AND LOWEST(b)", "LOWEST(a) CASCADE LOWEST(b)"}) {
    SCOPED_TRACE(text);
    auto term = ParsePreference(text);
    ASSERT_TRUE(term.ok());
    auto pref = CompiledPreference::Compile(**term);
    ASSERT_TRUE(pref.ok());
    ASSERT_NE(pref->program().kernel(), DominanceKernel::kGeneric);

    KeyStore store(2);
    for (double a : specials) {
      for (double b : specials) {
        store.PushLeaf(a, -1);
        store.PushLeaf(b, -1);
        store.CommitRow();
      }
    }
    std::vector<size_t> rows(store.size());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    CheckBlockParity(pref->program(), store, rows);
  }
}

// The packed kernels engage exactly for the advertised shapes.
TEST(DominanceProgramParityTest, KernelSelection) {
  auto kernel_of = [](const std::string& text) {
    auto term = ParsePreference(text);
    EXPECT_TRUE(term.ok()) << text;
    auto pref = CompiledPreference::Compile(**term);
    EXPECT_TRUE(pref.ok()) << text;
    return pref->program().kernel();
  };
  EXPECT_EQ(kernel_of("LOWEST(a) AND HIGHEST(b) AND c AROUND 5"),
            DominanceKernel::kPackedPareto);
  EXPECT_EQ(kernel_of("LOWEST(a)"), DominanceKernel::kPackedPareto);
  // Nested same-kind Pareto flattens into the packed kernel.
  EXPECT_EQ(kernel_of("LOWEST(a) AND (HIGHEST(b) AND LOWEST(c))"),
            DominanceKernel::kPackedPareto);
  EXPECT_EQ(kernel_of("LOWEST(a) CASCADE HIGHEST(b)"),
            DominanceKernel::kPackedLex);
  // DUAL of a weak order stays packed (scores are negated at key time).
  EXPECT_EQ(kernel_of("DUAL(LOWEST(a)) AND HIGHEST(b)"),
            DominanceKernel::kPackedPareto);
  // Mixed combinators and non-weak-order EXPLICIT fall back to the generic
  // opcode evaluator.
  EXPECT_EQ(kernel_of("LOWEST(a) AND (HIGHEST(b) CASCADE LOWEST(c))"),
            DominanceKernel::kGeneric);
  EXPECT_EQ(kernel_of("a EXPLICIT ('x' BETTER THAN 'y', 'u' BETTER THAN 'w') "
                      "AND LOWEST(b)"),
            DominanceKernel::kGeneric);
  // A weak-order EXPLICIT chain is score-faithful, hence packed.
  EXPECT_EQ(kernel_of("a EXPLICIT ('x' BETTER THAN 'y')"),
            DominanceKernel::kPackedPareto);
  EXPECT_EQ(kernel_of("LOWEST(a) INTERSECT HIGHEST(b)"),
            DominanceKernel::kGeneric);
}

// Regression: composite nesting deeper than the evaluator's inline frame
// buffer (64) must spill to the heap, not mis-answer. Alternating AND /
// CASCADE defeats the same-kind flattening; the tuples tie on every leaf
// except the innermost, so only a full descent finds the dominance.
TEST(DominanceProgramParityTest, DeepAlternatingNestingSpillsCorrectly) {
  constexpr int kDepth = 80;
  std::string text = "LOWEST(b)";  // innermost leaf, the only decider
  for (int i = 0; i < kDepth; ++i) {
    const char* op = (i % 2 == 0) ? " AND " : " CASCADE ";
    text = "LOWEST(a)" + std::string(op) + "(" + text + ")";
  }
  auto term = ParsePreference(text);
  ASSERT_TRUE(term.ok()) << term.status().ToString();
  auto pref = CompiledPreference::Compile(**term);
  ASSERT_TRUE(pref.ok()) << pref.status().ToString();
  ASSERT_EQ(pref->program().kernel(), DominanceKernel::kGeneric);

  Schema schema = Schema::FromNames({"a", "b"});
  KeyStore store(pref->num_leaves());
  Row better = {Value::Int(1), Value::Int(0)};
  Row worse = {Value::Int(1), Value::Int(5)};
  ASSERT_TRUE(pref->AppendKey(schema, better, &store).ok());
  ASSERT_TRUE(pref->AppendKey(schema, worse, &store).ok());
  auto key_better = pref->MakeKey(schema, better);
  auto key_worse = pref->MakeKey(schema, worse);
  ASSERT_TRUE(key_better.ok());
  ASSERT_TRUE(key_worse.ok());
  ASSERT_EQ(pref->Compare(*key_better, *key_worse), Rel::kBetter);
  EXPECT_EQ(pref->program().Compare(store, 0, 1), Rel::kBetter);
  EXPECT_EQ(pref->program().Compare(store, 1, 0), Rel::kWorse);
  EXPECT_TRUE(pref->program().Dominates(store, 0, 1));
}

// The pipeline handles GROUPING partitions: per-partition BMO matches a
// manual per-group reference on a generated workload.
TEST(BmoParityPropertyTest, GroupingPartitionsMatchPerGroupReference) {
  for (uint64_t seed : {2u, 31u}) {
    Connection conn;
    ASSERT_TRUE(GenerateUsedCars(conn.database(), 300, seed).ok());
    auto grouped = conn.Execute(
        "SELECT id FROM car PREFERRING LOWEST(price) AND HIGHEST(power) "
        "GROUPING make");
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();

    // Reference: one preference query per make, unioned.
    auto makes = conn.Execute("SELECT DISTINCT make FROM car");
    ASSERT_TRUE(makes.ok());
    std::vector<std::string> expected;
    for (size_t m = 0; m < makes->num_rows(); ++m) {
      auto r = conn.Execute(
          "SELECT id FROM car WHERE make = '" + makes->at(m, 0).AsText() +
          "' PREFERRING LOWEST(price) AND HIGHEST(power)");
      ASSERT_TRUE(r.ok());
      for (size_t i = 0; i < r->num_rows(); ++i) {
        expected.push_back(r->at(i, 0).ToString());
      }
    }
    std::sort(expected.begin(), expected.end());
    std::vector<std::string> actual;
    for (size_t i = 0; i < grouped->num_rows(); ++i) {
      actual.push_back(grouped->at(i, 0).ToString());
    }
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace prefsql
