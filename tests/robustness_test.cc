// Robustness battery: statement deadlines, cooperative cancellation,
// memory budgets, the background MVCC reclaimer, and the
// cursor-abandoned-without-Close regression.
//
// The deadline/cancel tests run under every golden evaluation config
// (rewrite, serial BNL, parallel BMO, LESS, SFS with pushdown off) so a
// regression in any one path's interrupt polling fails loudly.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/connection.h"
#include "core/engine.h"
#include "util/failpoint.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

using std::chrono::duration_cast;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// A 4-d skyline over the 500k-row `car` relation: large skyline, heavy
// dominance phase — never finishes inside a 50ms deadline on any path.
constexpr char kHeavyQuery[] =
    "SELECT id FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) "
    "AND HIGHEST(power) AND LOWEST(age)";

// Every statement the deadline tests time: the skyline above, plus a GROUP
// BY and a DISTINCT whose pipeline breakers consume the whole 500k-row input
// before emitting a row (each runs well past the bound when its feed does
// not poll the deadline).
constexpr const char* kTimeoutQueries[] = {
    kHeavyQuery,
    "SELECT make, category, color, COUNT(*), SUM(price), AVG(mileage), "
    "MAX(power) FROM car GROUP BY make, category, color",
    "SELECT DISTINCT make, category, color, diesel, airbag FROM car",
};

constexpr size_t kBigRows = 500000;

// The acceptance bound: a 50ms deadline returns within 2x the deadline.
// Sanitizer instrumentation slows each inter-poll stride ~10x, so the
// bound scales there — the property under test (polls reach every path)
// is unchanged, only the wall-clock ceiling moves.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr long kTimeoutBoundMs = 1500;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr long kTimeoutBoundMs = 1500;
#else
constexpr long kTimeoutBoundMs = 100;
#endif
#else
constexpr long kTimeoutBoundMs = 100;
#endif

/// One shared engine holding the 500k-row table (generated once; the
/// deadline tests never mutate it).
std::shared_ptr<Engine> BigEngine() {
  static std::shared_ptr<Engine> engine = [] {
    auto e = std::make_shared<Engine>();
    Status s = GenerateUsedCars(e->database(), kBigRows);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return e;
  }();
  return engine;
}

struct GoldenConfig {
  const char* name;
  void (*apply)(ConnectionOptions& o);
};

const GoldenConfig kGoldenConfigs[] = {
    {"rewrite", [](ConnectionOptions& o) { o.mode = EvaluationMode::kRewrite; }},
    {"serial_bnl",
     [](ConnectionOptions& o) {
       o.mode = EvaluationMode::kBlockNestedLoop;
       o.bmo_threads = 0;
     }},
    {"parallel_bmo",
     [](ConnectionOptions& o) {
       o.mode = EvaluationMode::kBlockNestedLoop;
       o.bmo_threads = 4;
       o.parallel_min_rows = 1024;
     }},
    {"less",
     [](ConnectionOptions& o) {
       o.mode = EvaluationMode::kBlockNestedLoop;
       o.bmo_algorithm = BmoAlgorithm::kLess;
     }},
    {"sfs_pushdown_off",
     [](ConnectionOptions& o) {
       o.mode = EvaluationMode::kBlockNestedLoop;
       o.bmo_algorithm = BmoAlgorithm::kSortFilterSkyline;
       o.preference_pushdown = false;
     }},
};

TEST(RobustnessTest, TimeoutFiresUnderEveryGoldenConfig) {
  auto engine = BigEngine();
  for (const GoldenConfig& config : kGoldenConfigs) {
    for (const char* query : kTimeoutQueries) {
      SCOPED_TRACE(std::string(config.name) + ": " + query);
      Connection conn;
      conn.Attach(engine);
      config.apply(conn.options());
      ASSERT_TRUE(conn.Execute("SET statement_timeout_ms = 50").ok());
      const auto t0 = steady_clock::now();
      auto result = conn.Execute(query);
      const auto elapsed =
          duration_cast<milliseconds>(steady_clock::now() - t0);
      ASSERT_FALSE(result.ok()) << config.name << " finished in "
                                << elapsed.count() << "ms";
      EXPECT_TRUE(result.status().IsTimeout()) << result.status().ToString();
      EXPECT_LT(elapsed.count(), kTimeoutBoundMs) << config.name;
    }
  }
}

TEST(RobustnessTest, CancelFiresUnderEveryGoldenConfig) {
  auto engine = BigEngine();
  for (const GoldenConfig& config : kGoldenConfigs) {
    SCOPED_TRACE(config.name);
    Connection conn;
    conn.Attach(engine);
    config.apply(conn.options());
    // Kill switch on another thread: spin until the statement's context is
    // published (CancelCurrent returns true), cancelling it right away.
    std::thread killer([&conn] {
      for (int i = 0; i < 4000; ++i) {
        if (conn.session().CancelCurrent()) return;
        std::this_thread::sleep_for(milliseconds(1));
      }
    });
    const auto t0 = steady_clock::now();
    auto result = conn.Execute(kHeavyQuery);
    const auto elapsed =
        duration_cast<milliseconds>(steady_clock::now() - t0);
    killer.join();
    ASSERT_FALSE(result.ok()) << config.name << " finished in "
                              << elapsed.count() << "ms";
    EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
    EXPECT_LT(elapsed.count(), 2000) << config.name;
  }
}

TEST(RobustnessTest, CancelWithNothingRunningIsANoOp) {
  Connection conn;
  EXPECT_FALSE(conn.session().CancelCurrent());
  // The next statement is unaffected (no sticky cancel latch on the
  // session itself — the latch lives in the per-statement context).
  ASSERT_TRUE(conn.Execute("CREATE TABLE t (id INTEGER)").ok());
  EXPECT_TRUE(conn.Execute("SELECT id FROM t").ok());
}

TEST(RobustnessTest, StatementMemoryBudgetRefusesWithResourceExhausted) {
  auto engine = std::make_shared<Engine>();
  ASSERT_TRUE(GenerateUsedCars(engine->database(), 20000).ok());
  Connection conn;
  conn.Attach(engine);
  conn.options().mode = EvaluationMode::kBlockNestedLoop;
  // 64KB cannot hold the packed keys of a 20k-row 4-d query, nor the
  // 20k-entry DISTINCT seen-set, the 20k aggregate groups, or the buffered
  // right side of a nested-loop join.
  const char* const queries[] = {
      kHeavyQuery,
      "SELECT DISTINCT id, price FROM car",
      "SELECT id, COUNT(*) FROM car GROUP BY id",
      "SELECT a.id FROM car a JOIN car b ON a.price < b.price LIMIT 1",
  };
  for (const char* query : queries) {
    SCOPED_TRACE(query);
    ASSERT_TRUE(conn.Execute("SET statement_memory_bytes = 65536").ok());
    auto result = conn.Execute(query);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted())
        << result.status().ToString();
    // Lifting the budget makes the same query succeed — the refusal left
    // no residual charge or latch behind.
    ASSERT_TRUE(conn.Execute("SET statement_memory_bytes = 0").ok());
    EXPECT_TRUE(conn.Execute(query).ok());
  }
}

TEST(RobustnessTest, FilteredSkylineChargesOnlyItsCandidatesKeys) {
  // The WHERE pre-selection runs first, so the in-engine path keys only the
  // 5,365 rows below the price cap — not the 100k-row table — and fits a
  // budget the rewrite path also fits.
  auto engine = std::make_shared<Engine>();
  ASSERT_TRUE(GenerateUsedCars(engine->database(), 100000, /*seed=*/7).ok());
  const std::string query =
      "SELECT id FROM car WHERE price < 3000 "
      "PREFERRING LOWEST(price) AND LOWEST(mileage)";
  auto sorted_ids = [](const ResultTable& t) {
    std::vector<int64_t> ids;
    for (size_t i = 0; i < t.num_rows(); ++i) ids.push_back(t.at(i, 0).AsInt());
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  std::vector<int64_t> expected;
  for (EvaluationMode mode :
       {EvaluationMode::kRewrite, EvaluationMode::kBlockNestedLoop}) {
    SCOPED_TRACE(EvaluationModeToString(mode));
    Connection conn;
    conn.Attach(engine);
    conn.options().mode = mode;
    ASSERT_TRUE(conn.Execute("SET statement_memory_bytes = 262144").ok());
    auto result = conn.Execute(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (mode == EvaluationMode::kRewrite) {
      expected = sorted_ids(*result);
      EXPECT_EQ(expected.size(), 9u);
      continue;
    }
    EXPECT_EQ(conn.last_stats().candidate_count, 5365u);
    EXPECT_EQ(sorted_ids(*result), expected);
  }
}

TEST(RobustnessTest, EngineBudgetShedsCachesBeforeRefusing) {
  auto engine = std::make_shared<Engine>();
  ASSERT_TRUE(GenerateUsedCars(engine->database(), 20000).ok());
  Connection conn;
  conn.Attach(engine);
  conn.options().mode = EvaluationMode::kBlockNestedLoop;
  // Warm the plan cache with a few distinct cheap statements.
  ASSERT_TRUE(
      conn.Execute("SELECT id FROM car PREFERRING LOWEST(price)").ok());
  ASSERT_TRUE(
      conn.Execute("SELECT id FROM car PREFERRING LOWEST(mileage)").ok());
  ASSERT_TRUE(
      conn.Execute("SELECT id FROM car PREFERRING HIGHEST(power)").ok());
  const size_t warm = engine->plan_cache().size();
  ASSERT_GE(warm, 3u);
  // Now pinch the engine-wide budget: the next heavy statement exhausts it,
  // triggering pressure relief (plan-cache shed + GC kick) before the
  // refusal.
  ASSERT_TRUE(conn.Execute("SET engine_memory_bytes = 65536").ok());
  auto result = conn.Execute(kHeavyQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_LT(engine->plan_cache().size(), warm);
  ASSERT_TRUE(conn.Execute("SET engine_memory_bytes = 0").ok());
  EXPECT_TRUE(conn.Execute(kHeavyQuery).ok());
}

TEST(RobustnessTest, AbandonedCursorReleasesEngineAndLock) {
  auto engine = std::make_shared<Engine>();
  ASSERT_TRUE(GenerateUsedCars(engine->database(), 1000).ok());
  Connection conn;
  conn.Attach(engine);
  conn.options().mode = EvaluationMode::kBlockNestedLoop;
  {
    auto cursor = conn.OpenCursor(
        "SELECT id FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)");
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    auto row = cursor->Next();
    ASSERT_TRUE(row.ok());
    // Abandon mid-stream: no Close() — the destructor must release the
    // statement lock, the snapshot pin, and the session's context.
  }
  // The shared lock is gone: DML from the same session proceeds.
  EXPECT_TRUE(conn.Execute("DELETE FROM car WHERE id = 0").ok());
  // And the session context was retired: a cancel finds nothing in flight.
  EXPECT_FALSE(conn.session().CancelCurrent());
}

TEST(RobustnessTest, LiveCursorOutlivesEngineHandleAndConnectionRebind) {
  auto engine = std::make_shared<Engine>();
  ASSERT_TRUE(GenerateUsedCars(engine->database(), 1000).ok());
  auto conn = std::make_unique<Connection>();
  conn->Attach(engine);
  conn->options().mode = EvaluationMode::kBlockNestedLoop;
  auto cursor = conn->OpenCursor(
      "SELECT id FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  ASSERT_TRUE(cursor->Next().ok());
  // Drop every external engine reference: the cursor's keepalive is now the
  // only owner, so pulling (and the implicit Close in the destructor) must
  // not touch a destroyed engine.
  engine.reset();
  ASSERT_TRUE(cursor->Next().ok());
  cursor->Close();
  conn.reset();
}

TEST(RobustnessTest, BackgroundReclaimerCollectsWithSessionGcOff) {
  auto engine = std::make_shared<Engine>();
  Connection conn;
  conn.Attach(engine);
  ASSERT_TRUE(conn.Execute("CREATE TABLE kv (id INTEGER, v INTEGER)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(conn.Execute("INSERT INTO kv VALUES (" + std::to_string(i) +
                             ", 0)")
                    .ok());
  }
  // Opportunistic post-DML GC off: any reclaim below is the background
  // thread's work.
  ASSERT_TRUE(conn.Execute("SET mvcc_gc = off").ok());
  for (int round = 1; round <= 20; ++round) {
    ASSERT_TRUE(
        conn.Execute("UPDATE kv SET v = " + std::to_string(round)).ok());
  }
  const auto& xstats = engine->database().executor().stats();
  const auto deadline = steady_clock::now() + std::chrono::seconds(5);
  while (xstats.gc_cleared.load(std::memory_order_relaxed) == 0 &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_GT(xstats.gc_cleared.load(std::memory_order_relaxed), 0u);
  EXPECT_GT(engine->background_gc_passes(), 0u);

  // Switching the knob off pauses the timer loop...
  ASSERT_TRUE(conn.Execute("SET mvcc_gc_background = off").ok());
  std::this_thread::sleep_for(milliseconds(50));  // drain any in-flight pass
  const uint64_t paused = engine->background_gc_passes();
  std::this_thread::sleep_for(milliseconds(150));
  EXPECT_LE(engine->background_gc_passes(), paused + 1);

  // ... and switching it back on resumes sweeping.
  ASSERT_TRUE(conn.Execute("SET mvcc_gc_background = on").ok());
  const auto resume_deadline = steady_clock::now() + std::chrono::seconds(5);
  while (engine->background_gc_passes() <= paused + 1 &&
         steady_clock::now() < resume_deadline) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_GT(engine->background_gc_passes(), paused + 1);
}

// A sweep whose horizon computation fails (injected) touches no table: the
// versions it would have freed stay on the dead-slot list, and the next
// sweep frees them.
TEST(RobustnessTest, FailedGcHorizonKeepsDeadSlotsForTheNextSweep) {
#if !defined(PREFSQL_FAILPOINTS_ENABLED)
  GTEST_SKIP() << "failpoint sites are compiled out of this build";
#else
  auto engine = std::make_shared<Engine>();
  Connection conn;
  conn.Attach(engine);
  // Only the post-DML sweeps below run; let any in-flight timer pass drain.
  ASSERT_TRUE(conn.Execute("SET mvcc_gc_background = off").ok());
  std::this_thread::sleep_for(milliseconds(50));
  ASSERT_TRUE(conn.Execute("CREATE TABLE kv (id INTEGER, v INTEGER)").ok());
  ASSERT_TRUE(conn.Execute("INSERT INTO kv VALUES (0, 0), (1, 0), (2, 0), "
                           "(3, 0), (4, 0)")
                  .ok());
  auto table = engine->database().catalog().GetTable("kv");
  ASSERT_TRUE(table.ok());
  const auto& xstats = engine->database().executor().stats();
  const uint64_t cleared = xstats.gc_cleared.load(std::memory_order_relaxed);

  ASSERT_TRUE(failpoint::ArmFromSpec("gc_horizon", "error*1"));
  ASSERT_TRUE(conn.Execute("UPDATE kv SET v = 1 WHERE id < 3").ok());
  EXPECT_EQ((*table)->heap().pending_dead(), 3u);
  EXPECT_FALSE((*table)->heap().payload_cleared(0));
  EXPECT_EQ(xstats.gc_cleared.load(std::memory_order_relaxed), cleared);

  ASSERT_TRUE(conn.Execute("DELETE FROM kv WHERE id = 4").ok());
  EXPECT_EQ((*table)->heap().pending_dead(), 0u);
  EXPECT_TRUE((*table)->heap().payload_cleared(0));
  EXPECT_EQ(xstats.gc_cleared.load(std::memory_order_relaxed), cleared + 4);
  failpoint::DisarmAll();
#endif
}

TEST(RobustnessTest, TimeoutKnobRoundTripsThroughSet) {
  Connection conn;
  ASSERT_TRUE(conn.Execute("SET statement_timeout_ms = 250").ok());
  EXPECT_EQ(conn.options().statement_timeout_ms, 250u);
  ASSERT_TRUE(conn.Execute("SET statement_memory_bytes = 1048576").ok());
  EXPECT_EQ(conn.options().statement_memory_bytes, 1048576u);
  ASSERT_TRUE(conn.Execute("SET statement_timeout_ms = 0").ok());
  EXPECT_EQ(conn.options().statement_timeout_ms, 0u);
  auto bad = conn.Execute("SET statement_timeout_ms = banana");
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace prefsql
