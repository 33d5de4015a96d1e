// A4: index-assisted pre-selection. §3.2 notes that "having the right
// indices available current SQL optimizers can efficiently process" the
// rewritten query — in our engine the hard WHERE criteria (the benchmark's
// pre-selection) can be served from a secondary index instead of a full
// scan. This bench quantifies the effect for standard and preference
// queries over the job-profile relation.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>

#include "bench_json.h"
#include "core/connection.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

constexpr size_t kRows = 30000;

std::unique_ptr<Connection> MakeConnection(bool with_index,
                                           ConnectionOptions options = {}) {
  auto conn = std::make_unique<Connection>(options);
  JobProfileConfig cfg;
  cfg.rows = kRows;
  if (!GenerateJobProfiles(conn->database(), cfg).ok()) std::abort();
  if (with_index) {
    if (!conn->Execute("CREATE INDEX by_region_prof ON profiles "
                       "(region, profession)")
             .ok()) {
      std::abort();
    }
    // Warm the lazily built index so the measurement isolates lookups.
    if (!conn->Execute("SELECT COUNT(*) FROM profiles WHERE region = 'north' "
                       "AND profession = 'nurse'")
             .ok()) {
      std::abort();
    }
  }
  return conn;
}

const char kCountQuery[] =
    "SELECT COUNT(*) FROM profiles WHERE region = 'bavaria' AND "
    "profession = 'programmer'";

const char kPreferenceQuery[] =
    "SELECT id FROM profiles WHERE region = 'bavaria' AND "
    "profession = 'programmer' "
    "PREFERRING skill_a = 'java' AND skill_b = 'SQL' AND "
    "skill_c = 'perl' AND skill_d = 'SAP'";

void RunQuery(benchmark::State& state, bool with_index, const char* sql) {
  auto conn = MakeConnection(with_index);
  for (auto _ : state) {
    auto r = conn->Execute(sql);
    if (!r.ok()) std::abort();
    benchmark::DoNotOptimize(r);
  }
  state.counters["index_scans"] = static_cast<double>(
      conn->database().executor().stats().index_scans);
}

void BM_PreSelectionFullScan(benchmark::State& state) {
  RunQuery(state, false, kCountQuery);
}
BENCHMARK(BM_PreSelectionFullScan)->Unit(benchmark::kMillisecond);

void BM_PreSelectionIndexScan(benchmark::State& state) {
  RunQuery(state, true, kCountQuery);
}
BENCHMARK(BM_PreSelectionIndexScan)->Unit(benchmark::kMillisecond);

void BM_PreferenceQueryFullScan(benchmark::State& state) {
  RunQuery(state, false, kPreferenceQuery);
}
BENCHMARK(BM_PreferenceQueryFullScan)->Unit(benchmark::kMillisecond);

void BM_PreferenceQueryIndexScan(benchmark::State& state) {
  RunQuery(state, true, kPreferenceQuery);
}
BENCHMARK(BM_PreferenceQueryIndexScan)->Unit(benchmark::kMillisecond);

// LIMIT-k pushdown through the BmoOperator: in sort-filter mode a bare
// LIMIT stops the skyline filter pass at the k-th maximal tuple, so the
// bmo_comparisons counter must come out measurably below the full-BMO run
// over the same candidates.
void RunSfsPreference(benchmark::State& state, const char* suffix) {
  ConnectionOptions opts;
  opts.mode = EvaluationMode::kBlockNestedLoop;
  opts.bmo_algorithm = BmoAlgorithm::kSortFilterSkyline;
  auto conn = MakeConnection(true, opts);
  std::string sql = std::string(kPreferenceQuery) + suffix;
  size_t rows = 0;
  for (auto _ : state) {
    auto r = conn->Execute(sql);
    if (!r.ok()) std::abort();
    rows = r->num_rows();
    benchmark::DoNotOptimize(r);
  }
  state.counters["bmo_comparisons"] =
      static_cast<double>(conn->last_stats().bmo_comparisons);
  state.counters["candidates"] =
      static_cast<double>(conn->last_stats().candidate_count);
  state.counters["result_rows"] = static_cast<double>(rows);
}

void BM_PreferenceFullBmoSfs(benchmark::State& state) {
  RunSfsPreference(state, "");
}
BENCHMARK(BM_PreferenceFullBmoSfs)->Unit(benchmark::kMillisecond);

void BM_PreferenceTopKPushdownSfs(benchmark::State& state) {
  RunSfsPreference(state, " LIMIT 5");
}
BENCHMARK(BM_PreferenceTopKPushdownSfs)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace prefsql

PREFSQL_BENCHMARK_MAIN("index_scan");
