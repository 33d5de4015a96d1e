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
//   * A DominanceWindow's fused pass (dominated flag, eviction marks and
//     comparison charge) must agree with the row-at-a-time oracle through
//     admits, evictions and replacements, under every SIMD variant.
//   * The BMO algorithms' comparison counts repeat pinned values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/bmo.h"
#include "core/connection.h"
#include "preference/dominance_window.h"
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
        // The fused window pass reads "j dominates i" off Compare(i, j) ==
        // kWorse, which holds only if the relation is antisymmetric.
        EXPECT_EQ(want == Rel::kWorse,
                  pref->Compare(oracle_keys[j], oracle_keys[i]) ==
                      Rel::kBetter);
        EXPECT_EQ(got == Rel::kWorse,
                  pref->program().Compare(store, j, i) == Rel::kBetter);
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

// The comparison charge of one window pass (dominance_window.h) whose
// first dominating member is `first` (`n` when none): the lanes visited up
// to and including it, plus the window size again for a marking pass that
// no member dominates.
size_t ExpectedCharge(SimdVariant v, size_t n, size_t first, bool marking) {
  if (first == n) return marking ? 2 * n : n;
  if (v == SimdVariant::kScalar || first >= n / 4 * 4) return first + 1;
  return (first / 4 + 1) * 4;
}

// Drives one window through random admits, fused passes, evictions and
// replacements. After every step its membership must equal a mirror kept
// beside it, and its answers for a random target must equal the
// row-at-a-time Dominates oracle over that mirror, in both directions.
void CheckWindowParity(const DominanceProgram& prog, const KeyStore& store,
                       SimdVariant variant, Random& rng) {
  SCOPED_TRACE(std::string("variant ") + SimdVariantToString(variant));
  DominanceWindow window(prog, variant);
  struct Mirror {
    size_t index;
    size_t insert_pass;
  };
  std::vector<Mirror> mirror;
  const int64_t last_row = static_cast<int64_t>(store.size()) - 1;
  for (size_t step = 0; step < 3 * store.size(); ++step) {
    const size_t t = static_cast<size_t>(rng.Uniform(0, last_row));
    const size_t n = mirror.size();
    size_t first = n;
    for (size_t m = 0; m < n && first == n; ++m) {
      if (prog.Dominates(store, mirror[m].index, t)) first = m;
    }
    const bool want = first < n;
    size_t comparisons = 0;
    ASSERT_EQ(window.Dominated(store, t, &comparisons), want)
        << "step " << step << ", target " << t;
    EXPECT_EQ(comparisons, ExpectedCharge(window.variant(), n, first, false));
    comparisons = 0;
    ASSERT_EQ(window.Test(store, t, &comparisons), want)
        << "step " << step << ", target " << t;
    EXPECT_EQ(comparisons, ExpectedCharge(window.variant(), n, first, true));
    std::vector<bool> dominated_by_t(n);
    for (size_t m = 0; m < n; ++m) {
      dominated_by_t[m] = prog.Dominates(store, t, mirror[m].index);
      if (!want) {
        ASSERT_EQ(window.marked(m), dominated_by_t[m])
            << "step " << step << ", target " << t << ", member " << m;
      }
    }

    std::vector<bool> drop(n, false);
    switch (rng.Uniform(0, 5)) {
      case 0:
      case 1:
      case 2:  // a BNL step; a dominated t joins too (no antichain needed)
        if (!want) {
          window.EvictMarked();
          drop = dominated_by_t;
        }
        window.Admit(store, t, step);
        break;
      case 3:
        if (n > 0) {
          const size_t m = static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(n) - 1));
          window.Replace(m, store, t);
          mirror[m] = {t, 0};
        }
        break;
      case 4:
        for (size_t m = 0; m < n; ++m) drop[m] = rng.Bernoulli(0.3);
        window.EvictIf([&](size_t m) {
          EXPECT_EQ(window.index(m), mirror[m].index);
          return drop[m];
        });
        break;
      default:
        break;
    }
    std::vector<Mirror> kept;
    for (size_t m = 0; m < n; ++m) {
      if (!drop[m]) kept.push_back(mirror[m]);
    }
    if (kept.size() < window.size()) kept.push_back({t, step});
    mirror = std::move(kept);
    ASSERT_EQ(window.size(), mirror.size()) << "step " << step;
    for (size_t m = 0; m < mirror.size(); ++m) {
      ASSERT_EQ(window.index(m), mirror[m].index) << "step " << step;
      ASSERT_EQ(window.insert_pass(m), mirror[m].insert_pass);
    }
  }
}

// NaN (incomparable both ways), -0.0 == 0.0 and ±inf, beside a few
// ordinary scores.
const std::vector<double>& SpecialScores() {
  static const std::vector<double> specials = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::infinity(),
      -1.0,
      -0.0,
      0.0,
      1.0,
      2.0,
      std::numeric_limits<double>::infinity()};
  return specials;
}

const DominanceProgram& ProgramOf(const std::string& text,
                                  std::optional<CompiledPreference>* holder) {
  auto term = ParsePreference(text);
  EXPECT_TRUE(term.ok()) << term.status().ToString();
  auto pref = CompiledPreference::Compile(**term);
  EXPECT_TRUE(pref.ok()) << pref.status().ToString();
  holder->emplace(std::move(pref).value());
  return (*holder)->program();
}

// Window parity on random packed Pareto and packed lex trees whose scores
// are drawn from SpecialScores(), under every variant this host runs.
TEST(DominanceWindowParityTest, PackedWindowsMatchTheRowOracle) {
  Random rng(20261019);
  for (size_t t = 0; t < 80; ++t) {
    const bool pareto = t % 2 == 0;
    const size_t leaves =
        static_cast<size_t>(rng.Uniform(pareto ? 1 : 2, 5));
    std::string text;
    for (size_t l = 0; l < leaves; ++l) {
      if (l > 0) text += pareto ? " AND " : " CASCADE ";
      text += "LOWEST(c" + std::to_string(l) + ")";
    }
    SCOPED_TRACE("PREFERRING " + text);
    std::optional<CompiledPreference> pref;
    const DominanceProgram& prog = ProgramOf(text, &pref);
    ASSERT_EQ(prog.kernel(), pareto ? DominanceKernel::kPackedPareto
                                    : DominanceKernel::kPackedLex);
    KeyStore store(leaves);
    const size_t rows = static_cast<size_t>(rng.Uniform(5, 40));
    const auto& specials = SpecialScores();
    for (size_t r = 0; r < rows; ++r) {
      for (size_t l = 0; l < leaves; ++l) {
        store.PushLeaf(specials[static_cast<size_t>(rng.Uniform(
                           0, static_cast<int64_t>(specials.size()) - 1))],
                       -1);
      }
      store.CommitRow();
    }
    for (SimdVariant v : BlockVariants()) {
      CheckWindowParity(prog, store, v, rng);
    }
  }
}

// Every (special, special) pair as a row of a two-leaf Pareto and a
// two-leaf lex store.
TEST(DominanceWindowParityTest, WindowsAgreeOnAdversarialDoubles) {
  Random rng(20261020);
  for (const char* text :
       {"LOWEST(a) AND LOWEST(b)", "LOWEST(a) CASCADE LOWEST(b)"}) {
    SCOPED_TRACE(text);
    std::optional<CompiledPreference> pref;
    const DominanceProgram& prog = ProgramOf(text, &pref);
    ASSERT_NE(prog.kernel(), DominanceKernel::kGeneric);
    KeyStore store(2);
    for (double a : SpecialScores()) {
      for (double b : SpecialScores()) {
        store.PushLeaf(a, -1);
        store.PushLeaf(b, -1);
        store.CommitRow();
      }
    }
    for (SimdVariant v : BlockVariants()) {
      CheckWindowParity(prog, store, v, rng);
    }
  }
}

// Window parity on the randomized trees of the oracle test (EXPLICIT DAGs,
// mixed combinators, INTERSECT: mostly the generic kernel), over rows whose
// numeric columns include NaN, ±inf and -0.0.
TEST(DominanceWindowParityTest, GenericWindowsMatchTheRowOracle) {
  Random rng(20261021);
  Schema schema = Schema::FromNames({"c0", "c1", "c2", "c3", "c4", "c5"});
  size_t generic_trees = 0;
  for (size_t t = 0; t < 60; ++t) {
    size_t next_col = static_cast<size_t>(rng.Uniform(0, 5));
    const std::string text = RandomTreeText(rng, 2, &next_col);
    SCOPED_TRACE("PREFERRING " + text);
    auto term = ParsePreference(text);
    ASSERT_TRUE(term.ok()) << term.status().ToString();
    auto pref = CompiledPreference::Compile(**term);
    ASSERT_TRUE(pref.ok()) << pref.status().ToString();
    if (pref->program().kernel() == DominanceKernel::kGeneric) {
      ++generic_trees;
    }
    KeyStore store(pref->num_leaves());
    const size_t rows = static_cast<size_t>(rng.Uniform(5, 30));
    const auto& specials = SpecialScores();
    for (size_t r = 0; r < rows; ++r) {
      Row row = RandomTreeRow(rng);
      for (Value& v : row) {
        if (v.type() == ValueType::kInt && rng.Bernoulli(0.3)) {
          v = Value::Double(specials[static_cast<size_t>(rng.Uniform(
              0, static_cast<int64_t>(specials.size()) - 1))]);
        }
      }
      ASSERT_TRUE(pref->AppendKey(schema, row, &store).ok());
    }
    for (SimdVariant v : BlockVariants()) {
      CheckWindowParity(pref->program(), store, v, rng);
    }
  }
  EXPECT_GT(generic_trees, 20u);
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

// ---------------------------------------------------------------------------
// Pinned dominance-test counts.
// ---------------------------------------------------------------------------

// BmoStats::comparisons charges the lanes a window pass visits: one per
// member in the scalar form; in the 4-wide forms (unrolled4, avx2) four per
// group up to the group holding the first dominating member, one per tail
// member. A candidate that no member dominates is also charged the window
// size for its eviction test. The counts below were recorded before the
// BMO windows moved to a packed layout; any change to a window's member
// order, its early exits or its charging shows up here to the unit. The
// parity suites re-run under PREFSQL_SIMD=scalar and =unrolled4, which
// checks the scalar column and the 4-wide column on every host.
struct CountPin {
  const char* pref;
  const char* algorithm;
  size_t scalar_comparisons;
  size_t block_comparisons;
  size_t passes;
};

// Rows over a, b (anti-correlated, so two-leaf Pareto skylines are wide),
// c (small domain, many ties) and a colour for an EXPLICIT leaf.
std::vector<Row> PinRows(size_t n, uint64_t seed) {
  static const char* kColours[] = {"red", "green", "blue", "grey", "white"};
  Random rng(seed);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    const int64_t a = rng.Uniform(0, 60);
    rows.push_back({Value::Int(a), Value::Int(60 - a + rng.Uniform(0, 12)),
                    Value::Int(rng.Uniform(0, 30)),
                    Value::Text(kColours[rng.Uniform(0, 4)])});
  }
  return rows;
}

std::map<std::string, std::pair<size_t, size_t>> PinnedRuns(
    const std::string& pref_text) {
  auto term = ParsePreference(pref_text);
  EXPECT_TRUE(term.ok()) << term.status().ToString();
  auto pref = CompiledPreference::Compile(**term);
  EXPECT_TRUE(pref.ok()) << pref.status().ToString();
  const Schema schema = Schema::FromNames({"a", "b", "c", "col"});
  auto keyed = [&](size_t n, uint64_t seed, KeyStore* keys,
                   std::vector<size_t>* all) {
    keys->Reset(pref->num_leaves());
    for (const Row& row : PinRows(n, seed)) {
      EXPECT_TRUE(pref->AppendKey(schema, row, keys).ok());
      all->push_back(all->size());
    }
  };
  KeyStore keys;
  std::vector<size_t> all;
  keyed(700, 777, &keys, &all);
  KeyStore big_keys;  // ≥ 4096 rows: top-k runs its LESS prepass
  std::vector<size_t> big_all;
  keyed(4500, 778, &big_keys, &big_all);

  std::map<std::string, std::pair<size_t, size_t>> out;
  auto run = [&](const std::string& name, BmoOptions options) {
    BmoStats stats;
    ComputeBmo(*pref, keys, all, options, &stats);
    out[name] = {stats.comparisons, stats.passes};
  };
  run("naive", {BmoAlgorithm::kNaiveNestedLoop, 0});
  for (size_t window : {size_t{0}, size_t{1}, size_t{2}, size_t{7}}) {
    run("bnl" + std::to_string(window),
        {BmoAlgorithm::kBlockNestedLoop, window});
  }
  run("sfs", {BmoAlgorithm::kSortFilterSkyline, 0});
  for (size_t ef : {size_t{4}, size_t{32}}) {
    BmoOptions options;
    options.algorithm = BmoAlgorithm::kLess;
    options.less_window = ef;
    run("less" + std::to_string(ef), options);
  }
  for (size_t k : {size_t{1}, size_t{5}}) {
    BmoStats stats;
    ComputeBmoTopK(*pref, keys, all, k, {}, &stats);
    out["top" + std::to_string(k)] = {stats.comparisons, stats.passes};
    BmoStats big_stats;
    ComputeBmoTopK(*pref, big_keys, big_all, k, {}, &big_stats);
    out["top" + std::to_string(k) + "_ef"] = {big_stats.comparisons,
                                              big_stats.passes};
  }
  return out;
}

TEST(BmoComparisonCountTest, CountsRepeatThePinnedValues) {
  const std::map<std::string, std::string> kPrefs = {
      {"pareto2", "LOWEST(a) AND LOWEST(b)"},
      {"pareto3", "LOWEST(a) AND LOWEST(b) AND HIGHEST(c)"},
      {"lex3", "LOWEST(c) CASCADE LOWEST(a) CASCADE HIGHEST(b)"},
      // Not a chain, hence the generic kernel.
      {"explicit",
       "LOWEST(a) AND col EXPLICIT ('red' BETTER THAN 'green', "
       "'blue' BETTER THAN 'green')"},
  };
  const bool scalar = DispatchedSimdVariant() == SimdVariant::kScalar;
  const CountPin kPins[] = {
      {"pareto2", "naive", 79686, 80640, 1},
      {"pareto2", "bnl0", 13533, 14504, 1},
      {"pareto2", "bnl1", 25827, 25827, 153},
      {"pareto2", "bnl2", 24847, 24847, 77},
      {"pareto2", "bnl7", 21442, 22049, 21},
      {"pareto2", "sfs", 20269, 21168, 1},
      {"pareto2", "less4", 18349, 19262, 1},
      {"pareto2", "less32", 13589, 14696, 1},
      {"pareto2", "top1", 0, 0, 1},
      {"pareto2", "top1_ef", 58357, 65082, 1},
      {"pareto2", "top5", 53, 77, 1},
      {"pareto2", "top5_ef", 58367, 65092, 1},
      {"pareto3", "naive", 111633, 112620, 1},
      {"pareto3", "bnl0", 22857, 23722, 1},
      {"pareto3", "bnl1", 40003, 40003, 175},
      {"pareto3", "bnl2", 39149, 39149, 87},
      {"pareto3", "bnl7", 36756, 37176, 25},
      {"pareto3", "sfs", 29609, 30405, 1},
      {"pareto3", "less4", 25671, 26606, 1},
      {"pareto3", "less32", 21230, 22227, 1},
      {"pareto3", "top1", 0, 0, 1},
      {"pareto3", "top1_ef", 56375, 61477, 1},
      {"pareto3", "top5", 48, 52, 1},
      {"pareto3", "top5_ef", 56436, 61538, 1},
      {"lex3", "naive", 6687, 7532, 1},
      {"lex3", "bnl0", 708, 708, 1},
      {"lex3", "bnl1", 708, 708, 1},
      {"lex3", "bnl2", 708, 708, 1},
      {"lex3", "bnl7", 708, 708, 1},
      {"lex3", "sfs", 699, 699, 1},
      {"lex3", "less4", 1267, 2796, 1},
      {"lex3", "less32", 2343, 3774, 1},
      {"lex3", "top1", 0, 0, 1},
      {"lex3", "top1_ef", 9998, 20027, 1},
      {"lex3", "top5", 699, 699, 1},
      {"lex3", "top5_ef", 10011, 20040, 1},
      {"explicit", "naive", 10840, 10840, 1},
      {"explicit", "bnl0", 904, 904, 1},
      {"explicit", "bnl1", 1303, 1303, 13},
      {"explicit", "bnl2", 931, 931, 7},
      {"explicit", "bnl7", 904, 904, 1},
      {"explicit", "sfs", 859, 859, 1},
      {"explicit", "less4", 946, 946, 1},
      {"explicit", "less32", 1327, 1327, 1},
      {"explicit", "top1", 0, 0, 1},
      {"explicit", "top1_ef", 11999, 11999, 1},
      {"explicit", "top5", 10, 10, 1},
      {"explicit", "top5_ef", 12009, 12009, 1},
  };
  std::map<std::string, std::map<std::string, std::pair<size_t, size_t>>>
      runs;
  for (const CountPin& pin : kPins) {
    if (!runs.count(pin.pref)) runs[pin.pref] = PinnedRuns(kPrefs.at(pin.pref));
    const auto& run = runs[pin.pref];
    auto it = run.find(pin.algorithm);
    ASSERT_NE(it, run.end()) << pin.algorithm;
    EXPECT_EQ(it->second.first,
              scalar ? pin.scalar_comparisons : pin.block_comparisons)
        << pin.pref << " / " << pin.algorithm << " ("
        << SimdVariantToString(DispatchedSimdVariant()) << ")";
    EXPECT_EQ(it->second.second, pin.passes)
        << pin.pref << " / " << pin.algorithm;
  }
}

}  // namespace
}  // namespace prefsql
