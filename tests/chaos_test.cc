// Chaos battery: the MVCC snapshot-isolation oracle of
// mvcc_property_test.cc re-run with fault-injection failpoints armed at the
// engine's three hairy transitions (epoch publish, writer-mutex handoff,
// GC horizon).
//
// Each round replays a randomized DML script serially on a private engine
// — with every failpoint disarmed — to capture the oracle, then runs it
// concurrently with a random mix of `delay` and `error` actions armed.
// Error actions are only armed at sites whose failure is clean by design:
//   writer_handoff        the DML statement fails before any mutation; the
//                         writer retries it (the hit limit guarantees the
//                         retry converges), so the applied sequence stays a
//                         prefix of the script and the oracle holds;
//   gc_horizon            a GC pass is skipped — garbage lingers, results
//                         are unaffected.
// Delay actions (epoch_publish, and optionally the above)
// widen the race windows TSan watches.
//
// When the build compiles failpoints away (PREFSQL_FAILPOINTS off), arming
// is a registry no-op and this degenerates to a valid plain concurrency
// battery — the suite is meaningful in every build flavour, and the CI
// chaos job runs it with -DPREFSQL_FAILPOINTS=ON under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/connection.h"
#include "util/failpoint.h"

namespace prefsql {
namespace {

constexpr int kRounds = 200;
constexpr size_t kReaders = 2;
constexpr size_t kDmlPerRound = 6;
constexpr size_t kReadsPerReader = 6;
constexpr size_t kProbes = 2;
constexpr int kWriterRetries = 100;

const char* kProbeQueries[kProbes] = {
    "SELECT id, price FROM acct PREFERRING LOWEST(price)",
    "SELECT id, price, grp FROM acct",
};

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

bool IsInjectedFault(const Status& s) {
  return s.IsInternal() &&
         s.message().find("failpoint") != std::string::npos;
}

/// Arms a random action at `site`. Error actions carry a small hit limit so
/// writer retries converge; delay actions stay short so rounds stay fast.
void ArmRandom(std::mt19937& rng, const char* site, bool allow_error) {
  switch (rng() % 3) {
    case 0:
      break;  // leave disarmed this round
    case 1: {
      const std::string spec = "delay(1)*" + std::to_string(1 + rng() % 3);
      ASSERT_TRUE(failpoint::ArmFromSpec(site, spec));
      break;
    }
    default: {
      const std::string spec =
          allow_error ? "error*" + std::to_string(1 + rng() % 2)
                      : "delay(1)*" + std::to_string(1 + rng() % 3);
      ASSERT_TRUE(failpoint::ArmFromSpec(site, spec));
      break;
    }
  }
}

TEST(ChaosTest, OracleHoldsUnderInjectedFaults) {
  for (int round = 0; round < kRounds; ++round) {
    failpoint::DisarmAll();
    std::mt19937 rng(0xFA17 + round);
    int next_id = 12;
    std::vector<std::string> dml;
    for (size_t i = 0; i < kDmlPerRound; ++i) {
      dml.push_back(RandomDml(rng, &next_id));
    }
    // Oracle captured fault-free; the faults below must not change any
    // committed state, only fail statements cleanly or delay them.
    const Oracle expected = SerialReplay(dml);

    auto engine = std::make_shared<Engine>();
    {
      Connection setup;
      setup.Attach(engine);
      ASSERT_TRUE(Preload(setup).ok());
    }

    // NEVER arm `crash` here — this battery proves clean degradation.
    std::mt19937 fp_rng(0xFA11 + round);
    ArmRandom(fp_rng, "epoch_publish", /*allow_error=*/false);
    ArmRandom(fp_rng, "writer_handoff", /*allow_error=*/true);
    ArmRandom(fp_rng, "gc_horizon", /*allow_error=*/true);

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
        bool applied = false;
        for (int attempt = 0; attempt < kWriterRetries && !applied;
             ++attempt) {
          auto r = conn.Execute(stmt);
          if (r.ok()) {
            applied = true;
          } else if (!IsInjectedFault(r.status())) {
            errors[kReaders] = stmt + ": " + r.status().ToString();
            return;
          }
          // An injected writer_handoff fault failed the statement before
          // any mutation; retry until the hit limit expires.
        }
        if (!applied) {
          errors[kReaders] = stmt + ": still failing after retries";
          return;
        }
      }
    });

    std::vector<std::thread> readers;
    for (size_t id = 0; id < kReaders; ++id) {
      readers.emplace_back([&, id]() {
        Connection conn;
        conn.Attach(engine);
        conn.options().mode = EvaluationMode::kBlockNestedLoop;
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
    failpoint::DisarmAll();
    for (size_t i = 0; i <= kReaders; ++i) {
      ASSERT_TRUE(errors[i].empty()) << "round " << round << ": " << errors[i];
    }

    // Snapshot isolation held through the faults: every concurrent
    // observation equals some serial prefix, prefixes non-decreasing.
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

    // Convergence: with faults disarmed, a fresh in-engine read of every
    // probe sees exactly the full script's effect.
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

#if defined(PREFSQL_FAILPOINTS_ENABLED)
  // Coverage: the battery actually reached every catalogued site.
  const std::vector<std::string> sites = failpoint::EvaluatedSites();
  for (const char* site :
       {"epoch_publish", "writer_handoff", "gc_horizon"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << "site never evaluated: " << site;
  }
#endif
}

}  // namespace
}  // namespace prefsql
