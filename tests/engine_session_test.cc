// The shared-engine Session architecture (paper §3.1: one Preference SQL
// optimizer + one standard SQL database, many clients):
//   * two Connections attached to one Engine see each other's tables,
//   * per-session knobs stay private, and every knob the engine lists
//     round-trips through SET and its echo,
//   * N sessions mixing DML and PREFERRING reads over one shared Engine
//     produce exactly the results of a serial replay (each session works on
//     its own table, so the interleaving is irrelevant and the parity is
//     exact), and stay clean under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/connection.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

// Evaluation strategies mixed across concurrent sessions: the §3.2 rewrite
// and the in-engine algorithms all read under the shared lock.
constexpr const char* kPathSettings[] = {
    "SET evaluation_mode = rewrite",
    "SET evaluation_mode = bnl",
    "SET evaluation_mode = bnl; SET bmo_algorithm = sfs",
    "SET evaluation_mode = bnl",
};

std::multiset<std::string> ResultIds(const ResultTable& t) {
  std::multiset<std::string> out;
  for (size_t i = 0; i < t.num_rows(); ++i) out.insert(t.at(i, 0).ToString());
  return out;
}

TEST(EngineSessionTest, AttachedConnectionsShareTheCatalog) {
  auto engine = std::make_shared<Engine>();
  Connection a, b;
  a.Attach(engine);
  b.Attach(engine);

  ASSERT_TRUE(a.Execute("CREATE TABLE shared (x INTEGER)").ok());
  ASSERT_TRUE(a.Execute("INSERT INTO shared VALUES (1), (2)").ok());
  auto r = b.Execute("SELECT x FROM shared ORDER BY x");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 2u);

  // ... and the other direction, including a preference query.
  ASSERT_TRUE(b.Execute("INSERT INTO shared VALUES (0)").ok());
  auto best = a.Execute("SELECT x FROM shared PREFERRING LOWEST(x)");
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  ASSERT_EQ(best->num_rows(), 1u);
  EXPECT_EQ(best->at(0, 0).AsInt(), 0);
}

TEST(EngineSessionTest, PrivateEnginesStayIsolated) {
  Connection a, b;  // default: each owns a private engine
  ASSERT_TRUE(a.Execute("CREATE TABLE mine (x INTEGER)").ok());
  EXPECT_FALSE(b.Execute("SELECT * FROM mine").ok());
}

TEST(EngineSessionTest, SessionKnobsArePerConnection) {
  auto engine = std::make_shared<Engine>();
  Connection a, b;
  a.Attach(engine);
  b.Attach(engine);
  ASSERT_TRUE(a.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(a.Execute("SET bmo_algorithm = sfs").ok());
  EXPECT_EQ(a.options().mode, EvaluationMode::kBlockNestedLoop);
  EXPECT_EQ(a.options().bmo_algorithm, BmoAlgorithm::kSortFilterSkyline);
  EXPECT_EQ(b.options().mode, EvaluationMode::kRewrite);
  EXPECT_EQ(b.options().bmo_algorithm, BmoAlgorithm::kBlockNestedLoop);
}

TEST(EngineSessionTest, EveryKnobRoundTripsThroughSetAndItsEcho) {
  // Knob -> (a non-default SET value, the effective value SET echoes).
  const std::map<std::string, std::pair<std::string, std::string>> knobs = {
      {"evaluation_mode", {"bnl", "bnl"}},
      {"bmo_algorithm", {"sfs", "sort-filter-skyline"}},
      {"bmo_threads", {"3", "3"}},
      {"parallel_min_rows", {"17", "17"}},
      {"preference_pushdown", {"off", "off"}},
      {"bnl_window", {"8", "8"}},
      {"but_only_mode", {"prefilter", "prefilter"}},
      {"plan_cache", {"off", "off"}},
      {"auto_parameterize", {"off", "off"}},
      {"key_cache", {"off", "off"}},
      {"skyline_cache", {"off", "off"}},
      {"mvcc_gc", {"off", "off"}},
      {"mvcc_gc_background", {"off", "off"}},
      {"statement_timeout_ms", {"5000", "5000"}},
      {"statement_memory_bytes", {"1048576", "1048576"}},
      {"engine_memory_bytes", {"2097152", "2097152"}},
  };
  Connection conn;

  // The unknown-setting message names exactly these knobs.
  auto unknown = conn.Execute("SET no_such_knob = 1");
  ASSERT_FALSE(unknown.ok());
  const std::string message = unknown.status().message();
  const size_t open = message.find("(known: ");
  const size_t close = message.rfind(')');
  ASSERT_NE(open, std::string::npos) << message;
  ASSERT_NE(close, std::string::npos) << message;
  std::set<std::string> listed;
  std::stringstream names(message.substr(open + 8, close - open - 8));
  for (std::string name; std::getline(names, name, ',');) {
    listed.insert(name.substr(name.find_first_not_of(' ')));
  }
  std::set<std::string> expected;
  for (const auto& [knob, values] : knobs) expected.insert(knob);
  EXPECT_EQ(listed, expected);
  EXPECT_EQ(listed.size(), 16u);
  // Retired: PREFSQL_SIMD is the one control of the dominance kernels.
  EXPECT_FALSE(conn.Execute("SET simd = off").ok());

  for (const auto& [knob, values] : knobs) {
    SCOPED_TRACE(knob);
    const auto& [value, echo] = values;
    auto set = conn.Execute("SET " + knob + " = " + value);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    ASSERT_EQ(set->num_rows(), 1u);
    EXPECT_EQ(set->at(0, 0).AsText(), knob);
    EXPECT_EQ(set->at(0, 1).AsText(), echo);
    auto reset = conn.Execute("SET " + knob + " = default");
    ASSERT_TRUE(reset.ok()) << reset.status().ToString();
    EXPECT_NE(reset->at(0, 1).AsText(), echo);
  }
}

TEST(EngineSessionTest, AttachKeepsSessionOptionsAndStats) {
  Connection conn;
  ASSERT_TRUE(conn.Execute("SET bmo_threads = 3").ok());
  conn.Attach(std::make_shared<Engine>());
  EXPECT_EQ(conn.options().bmo_threads, 3u);
}

// The multi-session concurrency stress of the ISSUE: N sessions over one
// shared Engine, each mixing INSERT/DELETE and PREFERRING reads on its own
// table (plus reads of a common static table), with per-session parity
// against a serial replay of the same script on a private engine.
TEST(EngineSessionTest, ConcurrentSessionsMatchSerialReplay) {
  constexpr size_t kSessions = 4;
  constexpr int kRounds = 12;

  auto engine = std::make_shared<Engine>();
  {
    Connection setup;
    setup.Attach(engine);
    ASSERT_TRUE(GenerateUsedCars(setup.database(), 300, /*seed=*/9).ok());
  }

  // The deterministic per-session script, phrased as a function of the
  // session id so the serial replay can reproduce it exactly.
  auto script = [](size_t id) {
    const std::string t = "t" + std::to_string(id);
    std::vector<std::string> stmts;
    stmts.push_back("CREATE TABLE " + t + " (x INTEGER, grp INTEGER)");
    for (int round = 0; round < kRounds; ++round) {
      stmts.push_back("INSERT INTO " + t + " VALUES (" +
                      std::to_string(100 - round) + ", " +
                      std::to_string(round % 3) + "), (" +
                      std::to_string(100 + round) + ", " +
                      std::to_string(round % 3) + ")");
      stmts.push_back("SELECT x FROM " + t + " PREFERRING LOWEST(x)");
      stmts.push_back("SELECT x FROM " + t +
                      " PREFERRING LOWEST(x) GROUPING grp");
      if (round % 4 == 3) {
        stmts.push_back("DELETE FROM " + t + " WHERE x < " +
                        std::to_string(100 - round / 2));
      }
      // Shared static table read (exercises concurrent shared locks and the
      // shared key cache).
      stmts.push_back("SELECT id FROM car PREFERRING LOWEST(price)");
    }
    return stmts;
  };

  // Concurrent run: one thread per session, own Connection, shared Engine.
  std::vector<std::vector<std::multiset<std::string>>> concurrent(kSessions);
  std::vector<std::string> errors(kSessions);
  {
    std::vector<std::thread> threads;
    for (size_t id = 0; id < kSessions; ++id) {
      threads.emplace_back([&, id] {
        Connection conn;
        conn.Attach(engine);
        // Mix evaluation strategies across sessions (all of them read
        // under the shared lock).
        if (!conn.ExecuteScript(kPathSettings[id % 4]).ok()) {
          errors[id] = "SET failed";
          return;
        }
        for (const std::string& sql : script(id)) {
          auto r = conn.Execute(sql);
          if (!r.ok()) {
            errors[id] = sql + ": " + r.status().ToString();
            return;
          }
          if (sql.rfind("SELECT", 0) == 0) {
            concurrent[id].push_back(ResultIds(*r));
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  for (size_t id = 0; id < kSessions; ++id) {
    ASSERT_TRUE(errors[id].empty()) << "session " << id << ": " << errors[id];
  }

  // Serial replay: same scripts, one private engine per session.
  for (size_t id = 0; id < kSessions; ++id) {
    Connection conn;
    ASSERT_TRUE(GenerateUsedCars(conn.database(), 300, /*seed=*/9).ok());
    ASSERT_TRUE(conn.ExecuteScript(kPathSettings[id % 4]).ok());
    std::vector<std::multiset<std::string>> serial;
    for (const std::string& sql : script(id)) {
      auto r = conn.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      if (sql.rfind("SELECT", 0) == 0) serial.push_back(ResultIds(*r));
    }
    ASSERT_EQ(serial.size(), concurrent[id].size()) << "session " << id;
    for (size_t q = 0; q < serial.size(); ++q) {
      EXPECT_EQ(serial[q], concurrent[id][q])
          << "session " << id << ", query " << q;
    }
  }
}

// Cached plans share one AST across sessions, and every execution binds it
// anew beside the AST: four sessions running the same prepared correlated
// anti-join and the same filtered direct-mode preference query, with
// different parameters interleaved, each get exactly the serial answers.
TEST(EngineSessionTest, ConcurrentPreparedCorrelatedQueriesMatchSerialAnswers) {
  constexpr size_t kSessions = 4;
  constexpr int kRuns = 200;
  constexpr const char* kAntiJoin =
      "SELECT id FROM item i1 WHERE i1.price < ? AND NOT EXISTS "
      "(SELECT 1 FROM item i2 WHERE i2.price <= i1.price AND "
      "i2.mileage <= i1.mileage AND (i2.price < i1.price OR "
      "i2.mileage < i1.mileage))";
  constexpr const char* kPreferring =
      "SELECT id FROM item WHERE price < ? "
      "PREFERRING LOWEST(price) AND LOWEST(mileage)";
  const std::vector<int64_t> caps = {15, 25, 40, 55, 70};

  auto engine = std::make_shared<Engine>();
  {
    Connection setup;
    setup.Attach(engine);
    std::string insert = "INSERT INTO item VALUES ";
    for (int i = 0; i < 48; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " +
                std::to_string(10 + (i * 37) % 61) + ", " +
                std::to_string(10 + (i * 53) % 47) + ")";
    }
    ASSERT_TRUE(setup
                    .ExecuteScript("CREATE TABLE item (id INTEGER, price "
                                   "INTEGER, mileage INTEGER);" +
                                   insert)
                    .ok());
  }

  // Serial answers, one per query and parameter.
  std::map<std::pair<int, int64_t>, std::multiset<std::string>> serial;
  {
    Connection conn;
    conn.Attach(engine);
    ASSERT_TRUE(conn.Execute("SET evaluation_mode = bnl").ok());
    for (int q = 0; q < 2; ++q) {
      auto stmt = conn.Prepare(q == 0 ? kAntiJoin : kPreferring);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
      for (int64_t cap : caps) {
        ASSERT_TRUE(stmt->Bind(0, Value::Int(cap)).ok());
        auto r = stmt->Execute();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        serial[{q, cap}] = ResultIds(*r);
      }
    }
  }
  // The two queries agree: the anti-join is the skyline's §3.2 shape.
  for (int64_t cap : caps) {
    EXPECT_EQ(serial[std::make_pair(0, cap)], serial[std::make_pair(1, cap)]);
  }

  std::vector<std::string> errors(kSessions);
  std::vector<int> mismatches(kSessions, 0);
  std::vector<int> answered(kSessions, 0);
  std::vector<std::thread> threads;
  for (size_t id = 0; id < kSessions; ++id) {
    threads.emplace_back([&, id] {
      Connection conn;
      conn.Attach(engine);
      // Odd sessions keep the default rewrite mode: they stream their
      // statement-local Aux views side by side with the others.
      if (id % 2 == 0 && !conn.Execute("SET evaluation_mode = bnl").ok()) {
        errors[id] = "SET failed";
        return;
      }
      auto anti = conn.Prepare(kAntiJoin);
      auto pref = conn.Prepare(kPreferring);
      if (!anti.ok() || !pref.ok()) {
        errors[id] = "prepare failed";
        return;
      }
      for (int run = 0; run < kRuns; ++run) {
        const int64_t cap = caps[(id * 3 + static_cast<size_t>(run)) %
                                 caps.size()];
        for (int q = 0; q < 2; ++q) {
          PreparedStatement& stmt = q == 0 ? *anti : *pref;
          if (!stmt.Bind(0, Value::Int(cap)).ok()) {
            errors[id] = "bind failed";
            return;
          }
          auto r = stmt.Execute();
          if (!r.ok()) {
            errors[id] = r.status().ToString();
            return;
          }
          ++answered[id];
          if (ResultIds(*r) != serial.at({q, cap})) ++mismatches[id];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t id = 0; id < kSessions; ++id) {
    EXPECT_TRUE(errors[id].empty()) << "session " << id << ": " << errors[id];
    EXPECT_EQ(answered[id], 2 * kRuns) << "session " << id;
    EXPECT_EQ(mismatches[id], 0) << "session " << id;
  }
}

// A rewrite-mode preference query reads like any other SELECT: another
// session's open cursor (shared DDL lock + snapshot pin) must not hold it
// up, nor an INSERT ... SELECT PREFERRING, which writes like other DML.
TEST(EngineSessionTest, RewriteModeDoesNotWaitForOtherSessionsCursors) {
  auto engine = std::make_shared<Engine>();
  Connection a;
  a.Attach(engine);
  ASSERT_TRUE(a.ExecuteScript("CREATE TABLE t (id INTEGER, p INTEGER);"
                              "CREATE TABLE best (id INTEGER, p INTEGER);"
                              "INSERT INTO t VALUES (1, 5), (2, 3), (3, 3), "
                              "(4, 9)")
                  .ok());
  auto cursor = a.OpenCursor("SELECT id FROM t");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = cursor->Next();
  ASSERT_TRUE(first.ok() && first->has_value());

  Connection b;  // default evaluation_mode: rewrite
  b.Attach(engine);
  auto query = std::async(std::launch::async, [&b] {
    return b.Execute("SELECT id FROM t PREFERRING LOWEST(p) ORDER BY id");
  });
  const bool query_done = query.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
  std::future<Result<ResultTable>> insert;
  bool insert_done = false;
  if (query_done) {
    insert = std::async(std::launch::async, [&b] {
      return b.Execute("INSERT INTO best SELECT id, p FROM t "
                       "PREFERRING LOWEST(p)");
    });
    insert_done = insert.wait_for(std::chrono::seconds(10)) ==
                  std::future_status::ready;
  }
  // Closing releases a statement that did block, so a regression fails
  // here instead of hanging the test.
  cursor->Close();
  ASSERT_TRUE(query_done) << "rewrite-mode SELECT blocked behind a cursor";
  ASSERT_TRUE(insert_done) << "INSERT ... PREFERRING blocked behind a cursor";

  auto skyline = query.get();
  ASSERT_TRUE(skyline.ok()) << skyline.status().ToString();
  EXPECT_EQ(ResultIds(*skyline), (std::multiset<std::string>{"2", "3"}));
  auto inserted = insert.get();
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_TRUE(b.last_stats().used_rewrite);
  auto best = a.Execute("SELECT id FROM best");
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_EQ(ResultIds(*best), (std::multiset<std::string>{"2", "3"}));
}

// Writers and readers hammering the *same* table: results must always be a
// consistent snapshot (here: the skyline of x over pairs inserted
// atomically, so x and its partner are either both present or both absent).
TEST(EngineSessionTest, ConcurrentMixedWorkloadOnOneTableStaysConsistent) {
  auto engine = std::make_shared<Engine>();
  {
    Connection setup;
    setup.Attach(engine);
    ASSERT_TRUE(
        setup.Execute("CREATE TABLE hot (x INTEGER, y INTEGER)").ok());
    ASSERT_TRUE(setup.Execute("INSERT INTO hot VALUES (50, 50)").ok());
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Two writers: insert dominated pairs, then delete them again.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      Connection conn;
      conn.Attach(engine);
      for (int i = 0; i < 30 && !failed; ++i) {
        int v = 100 + w * 1000 + i;
        if (!conn.Execute("INSERT INTO hot VALUES (" + std::to_string(v) +
                          ", " + std::to_string(v) + ")")
                 .ok() ||
            !conn.Execute("DELETE FROM hot WHERE x = " + std::to_string(v))
                 .ok()) {
          failed = true;
        }
      }
    });
  }
  // Three readers: every transient row (100+, 100+) is dominated by the
  // seeded (50, 50) under LOWEST(x) AND LOWEST(y), so a snapshot-consistent
  // read always returns exactly {50} no matter how the writers interleave.
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      Connection conn;
      conn.Attach(engine);
      if (!conn.ExecuteScript(kPathSettings[r]).ok()) {
        failed = true;
        return;
      }
      for (int i = 0; i < 40 && !failed; ++i) {
        auto res = conn.Execute(
            "SELECT x FROM hot PREFERRING LOWEST(x) AND LOWEST(y)");
        if (!res.ok() || res->num_rows() != 1 ||
            res->at(0, 0).AsInt() != 50) {
          failed = true;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace prefsql
