// Randomized cross-strategy fuzz test: random preference trees over random
// data must yield identical BMO sets on every evaluation path (rewrite,
// BNL, naive, SFS), and the direct path must agree with a brute-force
// maximality check. TEST_P sweeps seeds.

#include <gtest/gtest.h>

#include <utility>

#include "core/connection.h"
#include "preference/validate.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/random.h"

namespace prefsql {
namespace {

// Grammar-directed random preference generator over columns c0..c3
// (numeric) and s0..s1 (text).
class PrefGenerator {
 public:
  explicit PrefGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate(int depth) {
    if (depth <= 0 || rng_.Bernoulli(0.4)) return Base();
    if (rng_.Bernoulli(0.15)) {
      return "DUAL(" + Generate(depth - 1) + ")";
    }
    const char* ops[] = {" AND ", " CASCADE ", " INTERSECT "};
    const char* op = ops[rng_.Uniform(0, 2)];
    int arity = static_cast<int>(rng_.Uniform(2, 3));
    std::string out;
    for (int i = 0; i < arity; ++i) {
      if (i) out += op;
      std::string child = Generate(depth - 1);
      // Parenthesize composite children to keep precedence explicit.
      if (child.find(" AND ") != std::string::npos ||
          child.find(" CASCADE ") != std::string::npos ||
          child.find(" INTERSECT ") != std::string::npos) {
        child = "(" + child + ")";
      }
      out += child;
    }
    return out;
  }

 private:
  std::string NumCol() {
    return "c" + std::to_string(rng_.Uniform(0, 3));
  }
  std::string TextCol() {
    return "s" + std::to_string(rng_.Uniform(0, 1));
  }
  std::string Word() {
    static const std::vector<std::string> kWords = {
        "'red'", "'blue'", "'green'", "'white'", "'black'"};
    return kWords[static_cast<size_t>(rng_.Uniform(0, 4))];
  }

  std::string Base() {
    switch (rng_.Uniform(0, 7)) {
      case 0:
        return NumCol() + " AROUND " + std::to_string(rng_.Uniform(-5, 30));
      case 1: {
        int64_t lo = rng_.Uniform(0, 15);
        return NumCol() + " BETWEEN " + std::to_string(lo) + ", " +
               std::to_string(lo + rng_.Uniform(0, 10));
      }
      case 2:
        return "LOWEST(" + NumCol() + ")";
      case 3:
        return "HIGHEST(" + NumCol() + ")";
      case 4:
        return TextCol() + " IN (" + Word() + ", " + Word() + ")";
      case 5:
        return TextCol() + " <> " + Word();
      case 6:
        return TextCol() + " = " + Word() + " ELSE " + TextCol() + " = " +
               Word();
      default:
        // Weak-order EXPLICIT chain (rewritable).
        return TextCol() + " EXPLICIT ('red' BETTER THAN 'blue', " +
               "'blue' BETTER THAN 'green')";
    }
  }

  Random rng_;
};

// The ELSE generator can produce mismatched attributes (s0 ELSE s1) which
// the parser rejects; retry until the preference parses.
std::string GenerateValidPreference(uint64_t seed) {
  for (uint64_t attempt = 0; attempt < 32; ++attempt) {
    PrefGenerator gen(seed * 131 + attempt);
    std::string text = gen.Generate(2);
    if (ParsePreference(text).ok()) return text;
  }
  return "LOWEST(c0)";
}

std::string BuildDataScript(uint64_t seed, size_t rows) {
  Random rng(seed);
  std::string script =
      "CREATE TABLE t (id INTEGER, c0 INTEGER, c1 INTEGER, c2 INTEGER, "
      "c3 INTEGER, s0 TEXT, s1 TEXT);INSERT INTO t VALUES ";
  static const std::vector<std::string> kWords = {"red", "blue", "green",
                                                  "white", "black", "odd"};
  for (size_t i = 0; i < rows; ++i) {
    if (i) script += ", ";
    script += "(" + std::to_string(i);
    for (int c = 0; c < 4; ++c) {
      if (rng.Bernoulli(0.06)) {
        script += ", NULL";
      } else {
        script += ", " + std::to_string(rng.Uniform(-5, 30));
      }
    }
    for (int s = 0; s < 2; ++s) {
      script += ", '" + rng.Choice(kWords) + "'";
    }
    script += ")";
  }
  return script;
}

class RandomPreferenceFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPreferenceFuzzTest, AllStrategiesAgree) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  std::string pref_text = GenerateValidPreference(seed);
  std::string data = BuildDataScript(seed, 120);
  std::string query = "SELECT id FROM t PREFERRING " + pref_text +
                      " ORDER BY id";

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
    opts.bnl_window = seed % 3 == 0 ? 4 : 0;  // exercise bounded windows too
    Connection conn(opts);
    ASSERT_TRUE(conn.ExecuteScript(data).ok());
    auto r = conn.Execute(query);
    ASSERT_TRUE(r.ok()) << "pref: " << pref_text << "\nmode: "
                        << EvaluationModeToString(mode) << "/"
                        << BmoAlgorithmToString(algorithm) << "\n"
                        << r.status().ToString();
    std::vector<std::string> rows;
    for (size_t i = 0; i < r->num_rows(); ++i) rows.push_back(r->RowToString(i));
    results.push_back(std::move(rows));
  }
  for (size_t m = 1; m < results.size(); ++m) {
    EXPECT_EQ(results[0], results[m])
        << "strategy " << m << " diverges for: " << pref_text;
  }

  // Independent oracle: the result is exactly the maximal set.
  auto term = ParsePreference(pref_text);
  ASSERT_TRUE(term.ok());
  auto pref = CompiledPreference::Compile(**term);
  ASSERT_TRUE(pref.ok());
  Connection conn;
  ASSERT_TRUE(conn.ExecuteScript(data).ok());
  auto all = conn.Execute("SELECT * FROM t ORDER BY id");
  ASSERT_TRUE(all.ok());
  std::vector<PrefKey> keys;
  for (const Row& row : all->rows()) {
    auto key = pref->MakeKey(all->schema(), row);
    ASSERT_TRUE(key.ok());
    keys.push_back(std::move(key).value());
  }
  std::vector<size_t> bmo;
  for (const auto& id_text : results[0]) {
    bmo.push_back(static_cast<size_t>(std::stoll(id_text)));
  }
  Status check = CheckBmoIsMaximalSet(*pref, keys, bmo);
  EXPECT_TRUE(check.ok()) << pref_text << ": " << check.ToString();

  // And the preference itself must be a strict partial order on this data.
  Status spo = CheckStrictPartialOrder(*pref, keys);
  EXPECT_TRUE(spo.ok()) << pref_text << ": " << spo.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPreferenceFuzzTest,
                         ::testing::Range(1, 41));

}  // namespace
}  // namespace prefsql
