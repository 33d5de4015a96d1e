// Cross-path property test: the rewrite-to-SQL strategy (§3.2) and the
// in-engine skyline algorithms must return identical BMO sets for randomized
// datasets and a family of preference query shapes.

#include <gtest/gtest.h>

#include <utility>

#include "core/connection.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

struct Case {
  const char* name;
  const char* query;
};

class EquivalencePropertyTest : public ::testing::TestWithParam<Case> {};

std::vector<std::string> SortedRows(const ResultTable& t) {
  std::vector<std::string> out;
  for (size_t i = 0; i < t.num_rows(); ++i) out.push_back(t.RowToString(i));
  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(EquivalencePropertyTest, RewriteAgreesWithAllInEngineAlgorithms) {
  const Case& c = GetParam();
  for (uint64_t seed : {1u, 7u, 99u}) {
    std::vector<std::vector<std::string>> per_mode;
    for (auto [mode, algorithm] :
         {std::pair{EvaluationMode::kRewrite,
                    BmoAlgorithm::kBlockNestedLoop},
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
      ASSERT_TRUE(GenerateUsedCars(conn.database(), 300, seed).ok());
      ASSERT_TRUE(GenerateTrips(conn.database(), 200, seed).ok());
      ASSERT_TRUE(GenerateHotels(conn.database(), 200, seed).ok());
      auto r = conn.Execute(c.query);
      ASSERT_TRUE(r.ok()) << c.name << " mode "
                          << EvaluationModeToString(mode) << "/"
                          << BmoAlgorithmToString(algorithm) << " seed " << seed
                          << ": " << r.status().ToString();
      per_mode.push_back(SortedRows(*r));
    }
    for (size_t m = 1; m < per_mode.size(); ++m) {
      EXPECT_EQ(per_mode[0], per_mode[m])
          << c.name << " seed " << seed << ": rewrite vs mode " << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueryShapes, EquivalencePropertyTest,
    ::testing::Values(
        Case{"single_around", "SELECT id FROM car PREFERRING price AROUND 15000"},
        Case{"single_lowest", "SELECT id FROM car PREFERRING LOWEST(mileage)"},
        Case{"pareto2",
             "SELECT id FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)"},
        Case{"pareto3",
             "SELECT id FROM car PREFERRING LOWEST(price) AND "
             "LOWEST(mileage) AND HIGHEST(power)"},
        Case{"pareto4_with_where",
             "SELECT id FROM car WHERE age < 15 PREFERRING LOWEST(price) AND "
             "LOWEST(mileage) AND HIGHEST(power) AND age AROUND 5"},
        Case{"cascade",
             "SELECT id FROM car PREFERRING category = 'roadster' CASCADE "
             "LOWEST(price)"},
        Case{"cascade_of_pareto",
             "SELECT id FROM car PREFERRING (LOWEST(price) AND "
             "HIGHEST(power)) CASCADE color IN ('red', 'black') CASCADE "
             "LOWEST(mileage)"},
        Case{"posneg_else",
             "SELECT id FROM car PREFERRING category = 'roadster' ELSE "
             "category <> 'passenger' AND price AROUND 20000"},
        Case{"between_and_neg",
             "SELECT id FROM car PREFERRING price BETWEEN 10000, 20000 AND "
             "color <> 'green'"},
        Case{"weak_explicit",
             "SELECT id FROM car PREFERRING color EXPLICIT ('red' BETTER "
             "THAN 'blue', 'blue' BETTER THAN 'green') CASCADE LOWEST(price)"},
        Case{"grouping",
             "SELECT id FROM car PREFERRING LOWEST(price) AND "
             "HIGHEST(power) GROUPING make"},
        Case{"but_only",
             "SELECT id FROM car PREFERRING price AROUND 15000 AND "
             "LOWEST(mileage) BUT ONLY DISTANCE(price) <= 5000"},
        Case{"dates",
             "SELECT id FROM trips PREFERRING start_day AROUND "
             "'1999/7/3' AND duration AROUND 14"},
        Case{"hotels_neg_grouping",
             "SELECT id FROM hotels PREFERRING location <> 'downtown' AND "
             "LOWEST(price) GROUPING city"},
        Case{"quality_in_select",
             "SELECT id, LEVEL(category), DISTANCE(price) FROM car "
             "PREFERRING category IN ('roadster', 'coupe') AND price "
             "AROUND 18000"},
        Case{"order_and_limit",
             "SELECT id FROM car PREFERRING LOWEST(price) AND "
             "HIGHEST(power) ORDER BY id LIMIT 5"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace prefsql
