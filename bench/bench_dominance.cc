// Dominance-kernel micro-benchmark: dominance tests/sec and key-build time
// for the packed path (compiled DominanceProgram over the SoA KeyStore)
// against the generic path (recursive CompiledPreference::Compare over
// tuple-at-a-time PrefKeys — the engine's pre-KeyStore representation).
//
// Workloads:
//   * pareto_100k_d{2,4,6} — the acceptance workload: d-dimensional Pareto
//     over 100k uniform rows (packed-pareto kernel vs recursion).
//   * cascade_100k_d4      — all-weak prioritization (packed-lex kernel).
//   * mixed_100k           — CASCADE of a Pareto pair with an EXPLICIT
//     leaf: generic opcode evaluator vs recursion (the fallback's win is
//     iteration + SoA locality, not kernel specialization).
//
// Records into BENCH_dominance.json. Args: --rows N --pairs N (defaults
// 100000 / 2^20) shrink the run for CI smoke jobs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "preference/composite.h"
#include "preference/dominance_program.h"
#include "preference/dominance_window.h"
#include "sql/parser.h"
#include "util/random.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  const char* name;
  std::string pref_text;
  std::vector<std::string> columns;
  bool text_last_column = false;  // EXPLICIT color column
};

}  // namespace

int main(int argc, char** argv) {
  size_t rows = 100000;
  size_t n_pairs = size_t{1} << 20;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--rows") == 0) {
      rows = static_cast<size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--pairs") == 0) {
      n_pairs = static_cast<size_t>(std::atoll(argv[i + 1]));
    }
  }
  std::printf("=== dominance kernels: packed (KeyStore + program) vs "
              "generic (recursive Compare) ===\n");
  std::printf("rows=%zu pairs=%zu\n", rows, n_pairs);

  std::vector<Workload> workloads;
  for (int d : {2, 4, 6}) {
    std::string text;
    std::vector<std::string> cols;
    for (int i = 0; i < d; ++i) {
      if (i) text += " AND ";
      std::string c(1, static_cast<char>('a' + i));
      text += "LOWEST(" + c + ")";
      cols.push_back(c);
    }
    workloads.push_back({d == 2   ? "pareto_100k_d2"
                         : d == 4 ? "pareto_100k_d4"
                                  : "pareto_100k_d6",
                         text, cols});
  }
  workloads.push_back({"cascade_100k_d4",
                       "LOWEST(a) CASCADE LOWEST(b) CASCADE LOWEST(c) "
                       "CASCADE LOWEST(d)",
                       {"a", "b", "c", "d"}});
  workloads.push_back({"mixed_100k",
                       "(LOWEST(a) AND HIGHEST(b)) CASCADE "
                       "col EXPLICIT ('red' BETTER THAN 'green', "
                       "'blue' BETTER THAN 'green', "
                       "'green' BETTER THAN 'grey')",
                       {"a", "b", "col"},
                       /*text_last_column=*/true});

  prefsql::benchjson::Writer writer("dominance");
  static const char* kColors[] = {"red", "green", "blue", "grey", "white"};

  for (const Workload& w : workloads) {
    auto term = prefsql::ParsePreference(w.pref_text);
    if (!term.ok()) {
      std::fprintf(stderr, "parse failed: %s\n",
                   term.status().ToString().c_str());
      return 1;
    }
    auto pref = prefsql::CompiledPreference::Compile(**term);
    if (!pref.ok()) {
      std::fprintf(stderr, "compile failed: %s\n",
                   pref.status().ToString().c_str());
      return 1;
    }
    prefsql::Schema schema = prefsql::Schema::FromNames(w.columns);
    prefsql::Random rng(rows * 13 + w.columns.size());
    std::vector<prefsql::Row> data;
    data.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      prefsql::Row row;
      for (size_t c = 0; c < w.columns.size(); ++c) {
        if (w.text_last_column && c + 1 == w.columns.size()) {
          row.push_back(prefsql::Value::Text(
              kColors[static_cast<size_t>(rng.Uniform(0, 4))]));
        } else {
          row.push_back(prefsql::Value::Int(rng.Uniform(0, 100000)));
        }
      }
      data.push_back(std::move(row));
    }

    // Key build: packed SoA store (one reservation, streamed appends) vs
    // the per-tuple PrefKey vectors.
    auto t0 = Clock::now();
    prefsql::KeyStore store(pref->num_leaves());
    store.Reserve(rows);
    for (const auto& row : data) {
      if (!pref->AppendKey(schema, row, &store).ok()) return 1;
    }
    const double build_packed_s = SecondsSince(t0);

    t0 = Clock::now();
    std::vector<prefsql::PrefKey> aos;
    aos.reserve(rows);
    for (const auto& row : data) {
      auto key = pref->MakeKey(schema, row);
      if (!key.ok()) return 1;
      aos.push_back(std::move(key).value());
    }
    const double build_generic_s = SecondsSince(t0);

    // Dominance throughput over precomputed random pairs. `acc` keeps the
    // optimizer from eliding the loop.
    std::vector<std::pair<size_t, size_t>> pairs;
    pairs.reserve(n_pairs);
    for (size_t i = 0; i < n_pairs; ++i) {
      pairs.emplace_back(
          static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(rows) - 1)),
          static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(rows) - 1)));
    }
    const prefsql::DominanceProgram& prog = pref->program();
    size_t acc = 0;
    t0 = Clock::now();
    for (const auto& [i, j] : pairs) {
      acc += static_cast<size_t>(prog.Compare(store, i, j));
    }
    const double packed_s = SecondsSince(t0);

    size_t acc2 = 0;
    t0 = Clock::now();
    for (const auto& [i, j] : pairs) {
      acc2 += static_cast<size_t>(pref->Compare(aos[i], aos[j]));
    }
    const double generic_s = SecondsSince(t0);
    if (acc != acc2) {
      std::fprintf(stderr, "%s: kernel mismatch (%zu vs %zu)\n", w.name, acc,
                   acc2);
      return 1;
    }

    const double packed_rate = static_cast<double>(n_pairs) / packed_s;
    const double generic_rate = static_cast<double>(n_pairs) / generic_s;

    // Window section: the whole store loaded into one DominanceWindow,
    // tested by probes no member can dominate (a random row whose first
    // score is moved below every stored one), so each fused pass walks the
    // full window and marks the members its probe dominates: the rate is
    // (probes x rows) / s, once per SIMD variant. The packed kernels are
    // the only ones with vectorized forms; the generic kernel ignores the
    // variant, so its section would measure the same loop thrice.
    const prefsql::SimdVariant dispatched =
        prefsql::DispatchedSimdVariant();
    double block_rate[3] = {0.0, 0.0, 0.0};
    if (prog.kernel() != prefsql::DominanceKernel::kGeneric) {
      const size_t n_probes =
          std::max<size_t>(1, n_pairs / std::max<size_t>(rows, 1));
      double lowest = 0.0;
      for (size_t i = 0; i < rows; ++i) {
        lowest = std::min(lowest, store.score(i, 0));
      }
      prefsql::KeyStore probes(pref->num_leaves());
      for (size_t i = 0; i < n_probes; ++i) {
        const size_t row = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(rows) - 1));
        for (size_t l = 0; l < pref->num_leaves(); ++l) {
          probes.PushLeaf(l == 0 ? lowest - 1.0 : store.score(row, l), -1);
        }
        probes.CommitRow();
      }
      size_t dominated_scalar = 0;
      for (prefsql::SimdVariant v :
           {prefsql::SimdVariant::kScalar, prefsql::SimdVariant::kUnrolled4,
            prefsql::SimdVariant::kAvx2}) {
        if (v > dispatched) continue;  // host/build cannot run it
        prefsql::DominanceWindow window(prog, v);
        window.Reserve(rows);
        for (size_t i = 0; i < rows; ++i) window.Admit(store, i);
        t0 = Clock::now();
        size_t dominated = 0;
        for (size_t p = 0; p < n_probes; ++p) {
          if (window.Test(probes, p, /*comparisons=*/nullptr)) {
            std::fprintf(stderr, "%s: a member dominates probe %zu\n",
                         w.name, p);
            return 1;
          }
          for (size_t m = 0; m < rows; ++m) dominated += window.marked(m);
        }
        const double s = SecondsSince(t0);
        if (v == prefsql::SimdVariant::kScalar) {
          dominated_scalar = dominated;
        } else if (dominated != dominated_scalar) {
          std::fprintf(stderr, "%s: %s window kernel diverges from scalar\n",
                       w.name, prefsql::SimdVariantToString(v));
          return 1;
        }
        block_rate[static_cast<size_t>(v)] =
            static_cast<double>(n_probes) * static_cast<double>(rows) / s;
        std::printf("%-16s window %-9s %10.3g tests/s (%zu dominated)\n",
                    w.name, prefsql::SimdVariantToString(v),
                    block_rate[static_cast<size_t>(v)], dominated);
      }
    }
    const double scalar_block = block_rate[0];
    const double dispatched_block =
        block_rate[static_cast<size_t>(dispatched)];
    const double simd_speedup =
        scalar_block > 0.0 ? dispatched_block / scalar_block : 1.0;
    std::printf(
        "%-16s kernel=%-13s packed %10.3g tests/s  generic %10.3g tests/s  "
        "speedup %.2fx | key build %7.2f ms vs %7.2f ms\n",
        w.name, prefsql::DominanceKernelToString(prog.kernel()), packed_rate,
        generic_rate, packed_rate / generic_rate, build_packed_s * 1e3,
        build_generic_s * 1e3);
    writer.BeginRecord()
        .Field("workload", w.name)
        .Field("rows", static_cast<uint64_t>(rows))
        .Field("pairs", static_cast<uint64_t>(n_pairs))
        .Field("kernel", prefsql::DominanceKernelToString(prog.kernel()))
        .Field("packed_tests_per_sec", packed_rate)
        .Field("generic_tests_per_sec", generic_rate)
        .Field("speedup", packed_rate / generic_rate)
        .Field("key_build_packed_ms", build_packed_s * 1e3)
        .Field("key_build_generic_ms", build_generic_s * 1e3)
        .Field("simd_variant", prefsql::SimdVariantToString(dispatched))
        .Field("block_scalar_tests_per_sec", scalar_block)
        .Field("block_unrolled4_tests_per_sec", block_rate[1])
        .Field("block_avx2_tests_per_sec", block_rate[2])
        .Field("simd_speedup", simd_speedup);
  }

  if (!writer.Write()) {
    std::fprintf(stderr, "failed to write BENCH_dominance.json\n");
    return 1;
  }
  std::printf("wrote BENCH_dominance.json\n");
  return 0;
}
