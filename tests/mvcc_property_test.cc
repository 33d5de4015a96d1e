// Snapshot-isolation property battery for the MVCC row-version store.
//
// Each round builds a fresh randomized DML script over one shared table,
// replays it serially on a private engine to capture the oracle — the
// canonical result of every probe query after each statement prefix — and
// then runs it concurrently: one writer session applies the script while
// reader sessions hammer the same table with PREFERRING and plain reads.
// Snapshot isolation demands that every concurrent observation equals the
// serial result of SOME statement prefix (writers commit atomically, so
// any pinned snapshot corresponds to a prefix), and that each reader's
// prefixes advance monotonically (epochs only grow). A torn read — a row
// version from statement k+1 mixed with the absence of one from k — has no
// matching prefix and fails the round.
//
// A streaming-cursor probe runs alongside: a cursor opened mid-churn is
// drained only after the writer finished, and its rows must still match a
// single prefix (the open-time snapshot), pinning cursor stability under
// concurrent DML. The whole battery is TSan-clean by construction and runs
// in the CI TSan job's blocking concurrency filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/connection.h"

namespace prefsql {
namespace {

constexpr int kRounds = 500;
constexpr size_t kReaders = 2;
constexpr size_t kDmlPerRound = 8;
constexpr size_t kReadsPerReader = 8;
constexpr size_t kProbes = 2;

const char* kProbeQueries[kProbes] = {
    // Direct-path preference read (BMO + caches + MVCC heap scan).
    "SELECT id, price FROM acct PREFERRING LOWEST(price)",
    // Plain visibility read: full content, not just the maximal set.
    "SELECT id, price, grp FROM acct",
};

// Order-insensitive canonical rendering (skylines and scans share content,
// not necessarily order, across plans).
std::string Canon(const ResultTable& t) {
  std::vector<std::string> rows;
  rows.reserve(t.num_rows());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    std::string r;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      r += t.at(i, c).ToString();
      r += '|';
    }
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const auto& r : rows) {
    out += r;
    out += '\n';
  }
  return out;
}

Status Preload(Connection& conn) {
  PSQL_RETURN_IF_ERROR(
      conn.Execute("CREATE TABLE acct (id INTEGER, price INTEGER, "
                   "grp INTEGER)")
          .status());
  std::string insert = "INSERT INTO acct VALUES ";
  for (int i = 0; i < 12; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(7 * i % 23) +
              ", " + std::to_string(i % 3) + ")";
  }
  return conn.Execute(insert).status();
}

// One randomized DML statement; `next_id` grows with the inserts so later
// statements can target them.
std::string RandomDml(std::mt19937& rng, int* next_id) {
  switch (rng() % 4) {
    case 0:
    case 1: {
      const int id = (*next_id)++;
      return "INSERT INTO acct VALUES (" + std::to_string(id) + ", " +
             std::to_string(rng() % 100) + ", " + std::to_string(rng() % 3) +
             ")";
    }
    case 2:
      return "UPDATE acct SET price = " + std::to_string(rng() % 100) +
             " WHERE id = " + std::to_string(rng() % *next_id);
    default:
      return "DELETE FROM acct WHERE id = " +
             std::to_string(rng() % *next_id);
  }
}

// expected[k][q] = canonical result of probe q after the first k statements.
using Oracle = std::vector<std::array<std::string, kProbes>>;

Oracle SerialReplay(const std::vector<std::string>& dml) {
  Connection conn;
  EXPECT_TRUE(conn.Execute("SET evaluation_mode = bnl").ok());
  EXPECT_TRUE(Preload(conn).ok());
  Oracle expected(dml.size() + 1);
  auto snapshot = [&](size_t k) {
    for (size_t q = 0; q < kProbes; ++q) {
      auto r = conn.Execute(kProbeQueries[q]);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) expected[k][q] = Canon(*r);
    }
  };
  snapshot(0);
  for (size_t k = 0; k < dml.size(); ++k) {
    auto r = conn.Execute(dml[k]);
    EXPECT_TRUE(r.ok()) << dml[k] << ": " << r.status().ToString();
    snapshot(k + 1);
  }
  return expected;
}

// True iff `canon` matches some prefix >= *cursor; advances *cursor to the
// smallest such prefix (greedy smallest keeps the non-decreasing
// assignment feasible whenever one exists).
bool MatchesPrefixMonotonically(const Oracle& expected, size_t q,
                                const std::string& canon, size_t* cursor) {
  for (size_t k = *cursor; k < expected.size(); ++k) {
    if (expected[k][q] == canon) {
      *cursor = k;
      return true;
    }
  }
  return false;
}

TEST(MvccPropertyTest, ConcurrentReadsMatchSomeSerialPrefix) {
  for (int round = 0; round < kRounds; ++round) {
    std::mt19937 rng(0xC0FFEE + round);
    int next_id = 12;
    std::vector<std::string> dml;
    for (size_t i = 0; i < kDmlPerRound; ++i) {
      dml.push_back(RandomDml(rng, &next_id));
    }
    const Oracle expected = SerialReplay(dml);

    auto engine = std::make_shared<Engine>();
    {
      Connection setup;
      setup.Attach(engine);
      ASSERT_TRUE(Preload(setup).ok());
    }

    struct Observation {
      size_t probe;
      std::string canon;
    };
    std::vector<std::vector<Observation>> seen(kReaders);
    std::vector<std::string> errors(kReaders + 1);

    std::thread writer([&]() {
      Connection conn;
      conn.Attach(engine);
      for (const auto& stmt : dml) {
        auto r = conn.Execute(stmt);
        if (!r.ok()) {
          errors[kReaders] = stmt + ": " + r.status().ToString();
          break;
        }
      }
    });

    // The cursor probe: opened while the writer churns, drained only after
    // it finished — the rows must still be the open-time snapshot.
    Connection cursor_conn;
    cursor_conn.Attach(engine);
    ASSERT_TRUE(cursor_conn.Execute("SET evaluation_mode = bnl").ok());
    auto cursor = cursor_conn.OpenCursor(kProbeQueries[1]);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

    std::vector<std::thread> readers;
    for (size_t id = 0; id < kReaders; ++id) {
      readers.emplace_back([&, id]() {
        Connection conn;
        conn.Attach(engine);
        auto set = conn.Execute("SET evaluation_mode = bnl");
        if (!set.ok()) {
          errors[id] = set.status().ToString();
          return;
        }
        std::mt19937 reader_rng(0xBEEF + round * 16 + static_cast<int>(id));
        for (size_t i = 0; i < kReadsPerReader; ++i) {
          const size_t q = reader_rng() % kProbes;
          auto r = conn.Execute(kProbeQueries[q]);
          if (!r.ok()) {
            errors[id] = r.status().ToString();
            return;
          }
          seen[id].push_back({q, Canon(*r)});
        }
      });
    }

    writer.join();
    for (auto& t : readers) t.join();
    for (size_t i = 0; i <= kReaders; ++i) {
      ASSERT_TRUE(errors[i].empty()) << "round " << round << ": " << errors[i];
    }

    // Drain the cursor only now, after every write committed.
    std::vector<Row> rows;
    for (;;) {
      auto row = cursor->Next();
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      if (!row->has_value()) break;
      rows.push_back(std::move(**row).IntoRow());
    }
    const std::string cursor_canon =
        Canon(ResultTable(cursor->columns(), std::move(rows)));
    size_t any_prefix = 0;
    EXPECT_TRUE(MatchesPrefixMonotonically(expected, 1, cursor_canon,
                                           &any_prefix))
        << "round " << round
        << ": cursor rows match no serial prefix:\n" << cursor_canon;

    // Every reader observation equals some prefix, prefixes non-decreasing.
    for (size_t id = 0; id < kReaders; ++id) {
      size_t cursor_k = 0;
      for (size_t i = 0; i < seen[id].size(); ++i) {
        EXPECT_TRUE(MatchesPrefixMonotonically(expected, seen[id][i].probe,
                                               seen[id][i].canon, &cursor_k))
            << "round " << round << ", reader " << id << ", read " << i
            << " (probe " << seen[id][i].probe
            << ") matches no serial prefix >= " << cursor_k << ":\n"
            << seen[id][i].canon;
      }
    }

    // Convergence: once the writer finished, a fresh read sees the full
    // script's effect.
    Connection final_conn;
    final_conn.Attach(engine);
    ASSERT_TRUE(final_conn.Execute("SET evaluation_mode = bnl").ok());
    for (size_t q = 0; q < kProbes; ++q) {
      auto r = final_conn.Execute(kProbeQueries[q]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(Canon(*r), expected.back()[q])
          << "round " << round << ": final state diverges for probe " << q;
    }
  }
}

// The background reclaimer sweeps while two writers UPDATE and DELETE
// disjoint id ranges (their own post-DML sweeps off) and a reader keeps
// pinning snapshots. The sweep visits only the end-stamped slots, so it
// must free each of them exactly once: once every pin is gone, gc_cleared
// equals the number of versions the writers ended, and the final state is
// the serial one.
TEST(MvccPropertyTest, BackgroundReclaimerRacesUpdateAndDeleteWriters) {
  constexpr int kWriters = 2;
  constexpr int kRowsPerWriter = 40;
  constexpr int kStatementsPerWriter = 60;
  auto script = [](int w) {
    std::mt19937 rng(0xD15C + w);
    std::vector<std::string> out;
    for (int i = 0; i < kStatementsPerWriter; ++i) {
      const int id = w * kRowsPerWriter + static_cast<int>(rng() % kRowsPerWriter);
      if (rng() % 4 == 0) {
        out.push_back("DELETE FROM acct WHERE id = " + std::to_string(id));
      } else {
        out.push_back("UPDATE acct SET price = price + 1 WHERE id = " +
                      std::to_string(id));
      }
    }
    return out;
  };
  auto load = [](Connection& conn) {
    ASSERT_TRUE(conn.Execute("CREATE TABLE acct (id INTEGER, price INTEGER, "
                             "grp INTEGER)")
                    .ok());
    std::string insert = "INSERT INTO acct VALUES ";
    for (int i = 0; i < kWriters * kRowsPerWriter; ++i) {
      insert += (i ? ", (" : "(") + std::to_string(i) + ", " +
                std::to_string(i % 17) + ", " + std::to_string(i % 3) + ")";
    }
    ASSERT_TRUE(conn.Execute(insert).ok());
  };

  // The serial state: the ranges are disjoint, so any interleaving of the
  // two scripts ends here.
  std::string expected;
  {
    Connection serial;
    load(serial);
    for (int w = 0; w < kWriters; ++w) {
      for (const std::string& sql : script(w)) {
        ASSERT_TRUE(serial.Execute(sql).ok()) << sql;
      }
    }
    auto r = serial.Execute(kProbeQueries[1]);
    ASSERT_TRUE(r.ok());
    expected = Canon(*r);
  }

  auto engine = std::make_shared<Engine>();
  {
    Connection setup;
    setup.Attach(engine);
    load(setup);
  }
  const auto& xstats = engine->database().executor().stats();
  const uint64_t cleared_before =
      xstats.gc_cleared.load(std::memory_order_relaxed);
  std::atomic<int64_t> ended{0};
  std::atomic<bool> writers_done{false};
  std::vector<std::string> errors(kWriters + 1);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w]() {
      Connection conn;
      conn.Attach(engine);
      if (!conn.Execute("SET mvcc_gc = off").ok()) return;
      for (const std::string& sql : script(w)) {
        auto r = conn.Execute(sql);
        if (!r.ok()) {
          errors[w] = sql + ": " + r.status().ToString();
          return;
        }
        ended.fetch_add(r->at(0, 0).AsInt(), std::memory_order_relaxed);
        // Spread the writes over several reclaimer periods (20 ms).
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  threads.emplace_back([&]() {
    Connection conn;
    conn.Attach(engine);
    while (!writers_done.load(std::memory_order_acquire)) {
      auto cursor = conn.OpenCursor(kProbeQueries[1]);
      if (!cursor.ok()) {
        errors[kWriters] = cursor.status().ToString();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      for (;;) {
        auto row = cursor->Next();
        if (!row.ok()) {
          errors[kWriters] = row.status().ToString();
          return;
        }
        if (!row->has_value()) break;
      }
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  threads.back().join();
  for (const std::string& e : errors) ASSERT_TRUE(e.empty()) << e;

  const uint64_t want = static_cast<uint64_t>(ended.load());
  ASSERT_GT(want, 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (xstats.gc_cleared.load(std::memory_order_relaxed) - cleared_before <
             want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(xstats.gc_cleared.load(std::memory_order_relaxed) - cleared_before,
            want);
  EXPECT_GT(engine->background_gc_passes(), 0u);
  Connection check;
  check.Attach(engine);
  auto r = check.Execute(kProbeQueries[1]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Canon(*r), expected);
}

}  // namespace
}  // namespace prefsql
