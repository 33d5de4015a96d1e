// Parallel partitioned BMO: result parity with the serial path across
// randomized inputs, partition layouts, chunk sizes, and thread counts 1-8;
// a std::thread-heavy stress run with concurrent Connections; and the
// regression test for BmoOperator stats flushing on early pull-stop.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/bmo.h"
#include "core/bmo_parallel.h"
#include "core/bmo_operator.h"
#include "core/connection.h"
#include "engine/operators/scan.h"
#include "random_pref.h"
#include "sql/parser.h"
#include "util/random.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

struct Dataset {
  CompiledPreference pref;
  KeyStore keys;
};

// d-dimensional random dataset under a random AND/CASCADE preference.
Dataset MakeDataset(uint64_t seed, size_t n) {
  Random rng(seed);
  std::string text = testutil::RandomCarPreferenceText(rng);
  auto term = ParsePreference(text);
  EXPECT_TRUE(term.ok()) << text;
  auto pref = CompiledPreference::Compile(**term);
  EXPECT_TRUE(pref.ok()) << text;
  Schema schema = Schema::FromNames({"price", "mileage", "power", "age"});
  Dataset ds{std::move(pref).value(), {}};
  ds.keys.Reset(ds.pref.num_leaves());
  ds.keys.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value::Int(rng.Uniform(5000, 40000)));
    row.push_back(Value::Int(rng.Uniform(0, 200000)));
    row.push_back(Value::Int(rng.Uniform(50, 300)));
    row.push_back(Value::Int(rng.Uniform(0, 30)));
    EXPECT_TRUE(ds.pref.AppendKey(schema, row, &ds.keys).ok());
  }
  return ds;
}

// Random disjoint partitions covering 0..n-1.
std::vector<std::vector<size_t>> MakePartitions(Random& rng, size_t n,
                                                size_t n_parts) {
  std::vector<std::vector<size_t>> parts(n_parts);
  for (size_t i = 0; i < n; ++i) {
    parts[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(n_parts) -
                                                 1))]
        .push_back(i);
  }
  return parts;
}

class BmoParallelParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BmoParallelParityTest, MatchesSerialAcrossThreadsAndPartitions) {
  uint64_t seed = GetParam();
  Random rng(seed * 977 + 13);
  Dataset ds = MakeDataset(seed, 1200);
  const size_t n = ds.keys.size();

  for (size_t n_parts : {size_t{1}, size_t{3}, size_t{17}}) {
    auto partitions = MakePartitions(rng, n, n_parts);
    // Serial reference (threads <= 1 path).
    ParallelBmoOptions serial;
    serial.threads = 1;
    auto reference = ComputeBmoPartitionedParallel(ds.pref, ds.keys,
                                                   partitions, {}, serial);
    for (size_t threads = 2; threads <= 8; ++threads) {
      for (size_t min_chunk : {size_t{1}, size_t{64}, size_t{100000}}) {
        ParallelBmoOptions par;
        par.threads = threads;
        par.min_chunk = min_chunk;
        ParallelBmoStats stats;
        auto parallel = ComputeBmoPartitionedParallel(
            ds.pref, ds.keys, partitions, {}, par, &stats);
        EXPECT_EQ(parallel, reference)
            << "threads=" << threads << " min_chunk=" << min_chunk
            << " partitions=" << n_parts;
        if (min_chunk == 1 && n_parts == 1) {
          EXPECT_GT(stats.chunk_tasks, 1u) << "chunking did not engage";
          EXPECT_GT(stats.merge_candidates, 0u);
        }
      }
    }
    // All BMO algorithms agree through the parallel path too.
    for (BmoAlgorithm algo :
         {BmoAlgorithm::kNaiveNestedLoop, BmoAlgorithm::kSortFilterSkyline,
          BmoAlgorithm::kLess}) {
      ParallelBmoOptions par;
      par.threads = 4;
      par.min_chunk = 32;
      BmoOptions opt;
      opt.algorithm = algo;
      auto parallel = ComputeBmoPartitionedParallel(ds.pref, ds.keys,
                                                    partitions, opt, par);
      EXPECT_EQ(parallel, reference) << BmoAlgorithmToString(algo);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BmoParallelParityTest,
                         ::testing::Values(3u, 17u, 99u, 512u, 9001u));

std::multiset<std::string> ResultIds(const ResultTable& t) {
  std::multiset<std::string> out;
  for (size_t i = 0; i < t.num_rows(); ++i) out.insert(t.at(i, 0).ToString());
  return out;
}

// End-to-end: SET bmo_threads produces the same multiset of rows as the
// serial path, with GROUPING and plain skylines, across evaluation modes.
TEST(BmoParallelConnectionTest, ParallelEqualsSerialOnGeneratedWorkload) {
  for (uint64_t seed : {7u, 21u}) {
    Random rng(seed);
    std::string pref_text = testutil::RandomCarPreferenceText(rng);
    SCOPED_TRACE("PREFERRING " + pref_text);
    for (const char* mode : {"bnl", "sfs", "naive"}) {
      Connection serial, parallel;
      ASSERT_TRUE(GenerateUsedCars(serial.database(), 600, seed).ok());
      ASSERT_TRUE(GenerateUsedCars(parallel.database(), 600, seed).ok());
      std::string set_mode =
          "SET evaluation_mode = bnl; SET bmo_algorithm = " +
          std::string(mode);
      ASSERT_TRUE(serial.ExecuteScript(set_mode).ok());
      ASSERT_TRUE(parallel.ExecuteScript(set_mode).ok());
      ASSERT_TRUE(parallel.Execute("SET bmo_threads = 4").ok());
      ASSERT_TRUE(parallel.Execute("SET parallel_min_rows = 1").ok());

      for (const std::string& sql :
           {"SELECT id FROM car PREFERRING " + pref_text,
            "SELECT id FROM car PREFERRING " + pref_text + " GROUPING make"}) {
        auto want = serial.Execute(sql);
        auto got = parallel.Execute(sql);
        ASSERT_TRUE(want.ok()) << want.status().ToString() << "\n" << sql;
        ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
        EXPECT_EQ(ResultIds(*want), ResultIds(*got)) << mode << ": " << sql;
        EXPECT_GT(parallel.last_stats().bmo_threads_used, 1u) << sql;
      }
    }
  }
}

// Heavy concurrency: several threads, each with its own Connection, run
// parallel-BMO queries simultaneously (thread pools inside std::threads);
// every result must equal the serial reference.
TEST(BmoParallelConnectionTest, ConcurrentConnectionsUnderLoad) {
  const uint64_t seed = 1234;
  Random rng(seed);
  std::string pref_text = testutil::RandomCarPreferenceText(rng);
  const std::string sql = "SELECT id FROM car PREFERRING " + pref_text;

  Connection serial;
  ASSERT_TRUE(GenerateUsedCars(serial.database(), 500, seed).ok());
  ASSERT_TRUE(serial.Execute("SET evaluation_mode = bnl").ok());
  auto want_result = serial.Execute(sql);
  ASSERT_TRUE(want_result.ok());
  auto want = ResultIds(*want_result);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 5;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Connection conn;
      if (!GenerateUsedCars(conn.database(), 500, seed).ok()) {
        errors[t] = "workload generation failed";
        return;
      }
      auto setup = conn.ExecuteScript(
          "SET evaluation_mode = bnl; SET bmo_threads = " +
          std::to_string(1 + t % 4) + "; SET parallel_min_rows = 1;");
      if (!setup.ok()) {
        errors[t] = setup.status().ToString();
        return;
      }
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto got = conn.Execute(sql);
        if (!got.ok()) {
          errors[t] = got.status().ToString();
          return;
        }
        if (ResultIds(*got) != want) {
          errors[t] = "result mismatch on iteration " + std::to_string(q);
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
}

// Regression: stats must be flushed by Close()/destruction so that a
// consumer which stops pulling early still observes correct counters.
TEST(BmoOperatorStatsTest, CloseFlushesStatsAfterPartialConsumption) {
  Schema schema = Schema::FromNames({"a", "b"});
  std::vector<Row> rows;
  for (int i = 0; i < 64; ++i) {
    rows.push_back({Value::Int(i % 8), Value::Int((64 - i) % 8)});
  }
  auto term = ParsePreference("LOWEST(a) AND LOWEST(b)");
  ASSERT_TRUE(term.ok());
  auto pref = CompiledPreference::Compile(**term);
  ASSERT_TRUE(pref.ok());

  BmoRunStats sink;
  {
    BmoOperatorConfig config;
    config.stats_sink = &sink;
    BmoOperator op(std::make_unique<SeqScanOperator>(schema, &rows), &*pref,
                   std::move(config), nullptr);
    ASSERT_TRUE(op.Open().ok());
    RowBatch batch;
    batch.capacity = 1;  // pull exactly one row, then stop
    auto first = op.NextBatch(&batch);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(*first);
    EXPECT_EQ(batch.selected(), 1u);
    op.Close();
  }
  EXPECT_EQ(sink.candidate_count, 64u);
  EXPECT_GT(sink.bmo.comparisons, 0u);
  EXPECT_GT(sink.result_count, 0u);

  // Destructor-only shutdown (no Close) must flush too.
  BmoRunStats sink2;
  {
    BmoOperatorConfig config;
    config.stats_sink = &sink2;
    BmoOperator op(std::make_unique<SeqScanOperator>(schema, &rows), &*pref,
                   std::move(config), nullptr);
    ASSERT_TRUE(op.Open().ok());
  }
  EXPECT_EQ(sink2.candidate_count, 64u);
  EXPECT_GT(sink2.bmo.comparisons, 0u);
}

// Regression (client-surface variant of the above): a streaming Cursor
// closed early — the LIMIT-k client stop — must release the engine's
// shared statement lock promptly, so a writer on a *shared* engine can
// proceed, and must still record last_stats for the partial run.
TEST(BmoOperatorStatsTest, EarlyClosedCursorReleasesSharedEngineLock) {
  auto engine = std::make_shared<Engine>();
  Connection reader, writer;
  reader.Attach(engine);
  writer.Attach(engine);
  ASSERT_TRUE(reader.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(
      reader.Execute("CREATE TABLE pts (id INTEGER, x INTEGER, y INTEGER)")
          .ok());
  std::string insert = "INSERT INTO pts VALUES ";
  for (int i = 0; i < 128; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i % 11) +
              ", " + std::to_string((128 - i) % 11) + ")";
  }
  ASSERT_TRUE(reader.Execute(insert).ok());

  auto cursor = reader.OpenCursor(
      "SELECT id FROM pts PREFERRING LOWEST(x) AND LOWEST(y)");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto row = cursor->Next();
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  cursor->Close();

  EXPECT_TRUE(reader.last_stats().was_preference_query);
  EXPECT_EQ(reader.last_stats().candidate_count, 128u);
  EXPECT_GT(reader.last_stats().bmo_comparisons, 0u);
  EXPECT_EQ(reader.last_stats().result_count, 1u);

  // The other session's exclusive statement must not block: the cursor's
  // shared lock is gone. (A leak here would deadlock the test.)
  auto write = writer.Execute("INSERT INTO pts VALUES (999, 0, 0)");
  ASSERT_TRUE(write.ok()) << write.status().ToString();
}

}  // namespace
}  // namespace prefsql
