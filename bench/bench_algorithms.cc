// A1 (DESIGN.md): in-engine BMO algorithm ablation — the paper's abstract
// nested-loop selection method (§3.2) vs BNL [BKS01] vs sort-filter skyline,
// swept over input cardinality, dimensionality, and BNL window capacity.
// This quantifies the §3.3 remark that "implementing a generalized skyline
// operator in the kernel ... clearly hold[s] much promise for additional
// speed-ups" over the high-level rewriting.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdlib>
#include <string>
#include <vector>

#include "core/bmo.h"
#include "sql/parser.h"
#include "util/random.h"

namespace prefsql {
namespace {

struct Dataset {
  CompiledPreference pref;
  KeyStore keys;                // packed SoA keys (production path)
  std::vector<PrefKey> aos;     // tuple-at-a-time keys (generic baseline)
  std::vector<size_t> all;
};

// `dims`-dimensional Pareto preference over independent uniform integers.
// `with_aos` additionally builds the tuple-at-a-time PrefKey vector — only
// the generic-recursive baseline bench reads it.
Dataset MakeDataset(size_t n, int dims, bool anti_correlated,
                    bool with_aos = false) {
  static const char* cols[] = {"a", "b", "c", "d", "e", "f"};
  std::string text;
  std::vector<std::string> names;
  for (int i = 0; i < dims; ++i) {
    if (i) text += " AND ";
    text += "LOWEST(" + std::string(cols[i]) + ")";
    names.push_back(cols[i]);
  }
  auto term = ParsePreference(text);
  auto pref = CompiledPreference::Compile(**term);
  if (!pref.ok()) std::abort();
  Schema schema = Schema::FromNames(names);
  Random rng(n * 31 + static_cast<size_t>(dims));
  Dataset ds{std::move(pref).value(), {}, {}, {}};
  ds.keys.Reset(ds.pref.num_leaves());
  ds.keys.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    if (anti_correlated && dims == 2) {
      // Anti-correlated plane: large skylines, the hard case of [BKS01].
      int64_t x = rng.Uniform(0, 100000);
      row.push_back(Value::Int(x));
      row.push_back(Value::Int(100000 - x + rng.Uniform(-500, 500)));
    } else {
      for (int d = 0; d < dims; ++d) {
        row.push_back(Value::Int(rng.Uniform(0, 100000)));
      }
    }
    if (!ds.pref.AppendKey(schema, row, &ds.keys).ok()) std::abort();
    if (with_aos) ds.aos.push_back(ds.pref.MakeKey(schema, row).value());
    ds.all.push_back(i);
  }
  return ds;
}

void RunAlgorithm(benchmark::State& state, BmoAlgorithm algo,
                  bool anti_correlated = false) {
  size_t n = static_cast<size_t>(state.range(0));
  int dims = static_cast<int>(state.range(1));
  Dataset ds = MakeDataset(n, dims, anti_correlated);
  BmoOptions opt;
  opt.algorithm = algo;
  size_t skyline = 0;
  for (auto _ : state) {
    auto bmo = ComputeBmo(ds.pref, ds.keys, ds.all, opt);
    skyline = bmo.size();
    benchmark::DoNotOptimize(bmo);
  }
  state.counters["skyline"] = static_cast<double>(skyline);
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
}

void BM_NaiveNestedLoop(benchmark::State& state) {
  RunAlgorithm(state, BmoAlgorithm::kNaiveNestedLoop);
}
// The paper's abstract method is quadratic: keep n moderate.
BENCHMARK(BM_NaiveNestedLoop)
    ->Args({1000, 2})->Args({4000, 2})->Args({16000, 2})
    ->Args({4000, 4})->Unit(benchmark::kMillisecond);

void BM_BlockNestedLoop(benchmark::State& state) {
  RunAlgorithm(state, BmoAlgorithm::kBlockNestedLoop);
}
BENCHMARK(BM_BlockNestedLoop)
    ->Args({1000, 2})->Args({4000, 2})->Args({16000, 2})->Args({64000, 2})
    ->Args({4000, 4})->Args({64000, 4})->Unit(benchmark::kMillisecond);

void BM_SortFilterSkyline(benchmark::State& state) {
  RunAlgorithm(state, BmoAlgorithm::kSortFilterSkyline);
}
BENCHMARK(BM_SortFilterSkyline)
    ->Args({1000, 2})->Args({4000, 2})->Args({16000, 2})->Args({64000, 2})
    ->Args({4000, 4})->Args({64000, 4})->Unit(benchmark::kMillisecond);

// LESS: SFS with the elimination-filter prepass; the EF window drops most
// dominated tuples before the sort, so the gap to SFS widens with n.
void BM_Less(benchmark::State& state) {
  RunAlgorithm(state, BmoAlgorithm::kLess);
}
BENCHMARK(BM_Less)
    ->Args({1000, 2})->Args({4000, 2})->Args({16000, 2})->Args({64000, 2})
    ->Args({4000, 4})->Args({64000, 4})->Unit(benchmark::kMillisecond);

void BM_LessAntiCorrelated(benchmark::State& state) {
  RunAlgorithm(state, BmoAlgorithm::kLess, true);
}
BENCHMARK(BM_LessAntiCorrelated)
    ->Args({1000, 2})->Args({4000, 2})->Args({16000, 2})
    ->Unit(benchmark::kMillisecond);

// Dimensionality sweep at fixed n: skyline growth drives all algorithms.
void BM_BnlDimensionality(benchmark::State& state) {
  RunAlgorithm(state, BmoAlgorithm::kBlockNestedLoop);
}
BENCHMARK(BM_BnlDimensionality)
    ->Args({16000, 1})->Args({16000, 2})->Args({16000, 3})
    ->Args({16000, 4})->Args({16000, 5})->Unit(benchmark::kMillisecond);

// Anti-correlated worst case (large skylines).
void BM_BnlAntiCorrelated(benchmark::State& state) {
  RunAlgorithm(state, BmoAlgorithm::kBlockNestedLoop, true);
}
BENCHMARK(BM_BnlAntiCorrelated)
    ->Args({1000, 2})->Args({4000, 2})->Args({16000, 2})
    ->Unit(benchmark::kMillisecond);

// Packed vs generic dominance kernels: raw dominance-test throughput of the
// compiled program over the SoA KeyStore against the recursive virtual
// Compare over tuple-at-a-time PrefKeys (the pre-KeyStore path). Pair
// indices are precomputed so both loops measure nothing but the tests.
std::vector<std::pair<size_t, size_t>> RandomPairs(size_t n, size_t count) {
  Random rng(n * 7 + 5);
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(
        static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(n) - 1)),
        static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(n) - 1)));
  }
  return pairs;
}

void BM_DominancePackedKernel(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  int dims = static_cast<int>(state.range(1));
  Dataset ds = MakeDataset(n, dims, false);
  auto pairs = RandomPairs(n, 1 << 16);
  size_t acc = 0;
  for (auto _ : state) {
    for (const auto& [i, j] : pairs) {
      acc += static_cast<size_t>(ds.pref.program().Compare(ds.keys, i, j));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["kernel"] =
      static_cast<double>(static_cast<int>(ds.pref.program().kernel()));
  state.SetItemsProcessed(static_cast<int64_t>(pairs.size()) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DominancePackedKernel)
    ->Args({100000, 2})->Args({100000, 4})->Unit(benchmark::kMillisecond);

void BM_DominanceGenericRecursive(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  int dims = static_cast<int>(state.range(1));
  Dataset ds = MakeDataset(n, dims, false, /*with_aos=*/true);
  auto pairs = RandomPairs(n, 1 << 16);
  size_t acc = 0;
  for (auto _ : state) {
    for (const auto& [i, j] : pairs) {
      acc += static_cast<size_t>(ds.pref.Compare(ds.aos[i], ds.aos[j]));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(pairs.size()) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DominanceGenericRecursive)
    ->Args({100000, 2})->Args({100000, 4})->Unit(benchmark::kMillisecond);

// BNL window-capacity ablation: small windows trigger multi-pass overflow.
void BM_BnlWindowCapacity(benchmark::State& state) {
  Dataset ds = MakeDataset(16000, 3, false);
  BmoOptions opt;
  opt.algorithm = BmoAlgorithm::kBlockNestedLoop;
  opt.bnl_window = static_cast<size_t>(state.range(0));
  BmoStats stats;
  for (auto _ : state) {
    auto bmo = ComputeBmo(ds.pref, ds.keys, ds.all, opt, &stats);
    benchmark::DoNotOptimize(bmo);
  }
  state.counters["passes"] = static_cast<double>(stats.passes);
}
BENCHMARK(BM_BnlWindowCapacity)
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(0)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace prefsql

PREFSQL_BENCHMARK_MAIN("algorithms");
