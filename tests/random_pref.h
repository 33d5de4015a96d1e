// Shared random-preference generators for the parity-style property tests
// (BMO parallel stress, planner pushdown, column vectors): weak-order
// preferences over the generated car workload's columns, combined with
// AND / CASCADE.

#pragma once

#include <string>
#include <vector>

#include "util/random.h"

namespace prefsql {
namespace testutil {

/// A random weak-order preference over the numeric car columns: 2-4 distinct
/// dimensions combined with AND (Pareto) or CASCADE (prioritization).
/// `qualifier` prefixes every column ("c." for join tests).
inline std::string RandomCarPreferenceText(Random& rng,
                                           const std::string& qualifier = "") {
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
    std::string col = qualifier + dim.column;
    std::string atom;
    switch (rng.Uniform(0, 2)) {
      case 0:
        atom = "LOWEST(" + col + ")";
        break;
      case 1:
        atom = "HIGHEST(" + col + ")";
        break;
      default:
        atom = col + " AROUND " + std::to_string(rng.Uniform(dim.lo, dim.hi));
        break;
    }
    if (d > 0) text += rng.Bernoulli(0.3) ? " CASCADE " : " AND ";
    text += atom;
  }
  return text;
}

/// A random preference over the generated car table that mixes leaves the
/// key build reads from numeric column vectors (LOWEST/HIGHEST/AROUND/
/// BETWEEN on a plain column, and their DUAL) with leaves it evaluates on
/// rows (categorical POS/NEG/POS-POS/CONTAINS, and numeric leaves over an
/// expression): 2-5 leaves combined with AND or CASCADE.
inline std::string RandomMixedCarPreferenceText(Random& rng) {
  const char* const numeric[] = {"price", "mileage", "power", "age"};
  size_t n = static_cast<size_t>(rng.Uniform(2, 5));
  std::string text;
  for (size_t d = 0; d < n; ++d) {
    const std::string col = numeric[static_cast<size_t>(rng.Uniform(0, 3))];
    std::string atom;
    switch (rng.Uniform(0, 9)) {
      case 0:
        atom = "LOWEST(" + col + ")";
        break;
      case 1:
        atom = "HIGHEST(" + col + ")";
        break;
      case 2:
        atom = col + " AROUND " + std::to_string(rng.Uniform(0, 40000));
        break;
      case 3:
        atom = col + " BETWEEN " + std::to_string(rng.Uniform(0, 100)) +
               ", " + std::to_string(rng.Uniform(100, 30000));
        break;
      case 4:
        atom = "DUAL(LOWEST(" + col + "))";
        break;
      case 5:
        atom = "LOWEST(" + col + " + age)";
        break;
      case 6:
        atom = "make IN ('BMW', 'Audi')";
        break;
      case 7:
        atom = "color = 'red' ELSE color IN ('black')";
        break;
      case 8:
        atom = "category <> 'van'";
        break;
      default:
        atom = "model CONTAINS 'a'";
        break;
    }
    if (d > 0) text += rng.Bernoulli(0.3) ? " CASCADE " : " AND ";
    text += atom;
  }
  return text;
}

}  // namespace testutil
}  // namespace prefsql
