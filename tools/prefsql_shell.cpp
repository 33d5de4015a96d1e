// prefsql_shell: an interactive Preference SQL session — the closest thing
// to pointing an ODBC client at the paper's middleware stack.
//
//   $ ./build/tools/prefsql_shell
//   prefsql> .demo cars
//   prefsql> SELECT * FROM Cars PREFERRING Make = 'Audi' AND Diesel = 'yes';
//   prefsql> EXPLAIN SELECT * FROM Cars PREFERRING Make = 'Audi';
//   prefsql> .mode bnl
//   prefsql> .quit
//
// Dot commands: .help, .tables, .mode rewrite|bnl, .demo <name>, .quit.
// Everything else is (Preference) SQL, terminated by ';' — the in-engine
// skyline algorithm is `SET bmo_algorithm = naive|bnl|sfs|less;`.
//
// The shell drives the driver-style client surface: single SELECT
// statements stream through a Cursor (rows appear as they are produced,
// capped at kMaxRows), and multi-statement scripts run through the
// per-statement ExecuteScript callback so no result is silently dropped.
//
// Ctrl-C cancels the in-flight statement instead of killing the shell:
// the signal handler only raises a flag (async-signal-safe); a watcher
// thread turns it into Session::CancelCurrent(), and the statement
// returns with a Cancelled status. Statement timing is printed after
// every statement, distinguishing completed / timed-out / cancelled
// (set a deadline with `SET statement_timeout_ms = <n>;`).
//
// Remote mode: `prefsql_shell --connect host:port` drives a running
// prefsqld over the wire protocol instead of an embedded engine. The
// statement loop, streaming display, and timing lines are shared; Ctrl-C
// sends the out-of-band CANCEL frame, and `.stats` prints the server's
// counters. Errors arrive with the same numeric status codes the
// embedded engine produces.

#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "core/connection.h"
#include "engine/csv.h"
#include "net/client.h"
#include "util/string_util.h"
#include "workload/generators.h"

namespace {

using prefsql::Connection;
using prefsql::EvaluationMode;

constexpr size_t kMaxRows = 50;

// ---------------------------------------------------------------------------
// Ctrl-C -> cooperative cancel. The handler is restricted to flag-raising;
// CancelCurrent takes a mutex, so the watcher thread issues it instead.
// ---------------------------------------------------------------------------
volatile std::sig_atomic_t g_sigint = 0;
std::atomic<Connection*> g_conn{nullptr};
std::atomic<prefsql::net::Client*> g_remote{nullptr};
std::atomic<bool> g_shutdown{false};

void OnSigint(int) { g_sigint = 1; }

void WatchSigint() {
  while (!g_shutdown.load(std::memory_order_relaxed)) {
    if (g_sigint) {
      g_sigint = 0;
      Connection* conn = g_conn.load(std::memory_order_acquire);
      if (conn != nullptr && conn->session().CancelCurrent()) {
        std::printf("\n^C — cancelling statement\n");
        std::fflush(stdout);
      }
      // Remote mode: the kill switch is the out-of-band CANCEL frame
      // (Client::Cancel is the one thread-safe entry point).
      prefsql::net::Client* remote = g_remote.load(std::memory_order_acquire);
      if (remote != nullptr && remote->Cancel().ok()) {
        std::printf("\n^C — cancelling statement\n");
        std::fflush(stdout);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

double ElapsedMs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Statement postmortem: completed, timed out, or cancelled — with timing,
/// so deadline experiments read directly off the prompt.
void PrintOutcome(const prefsql::Status& status, double elapsed_ms) {
  if (status.ok()) {
    std::printf("(%.1f ms)\n", elapsed_ms);
  } else if (status.IsTimeout()) {
    std::printf("timed out after %.1f ms: %s\n", elapsed_ms,
                status.ToString().c_str());
  } else if (status.IsCancelled()) {
    std::printf("cancelled after %.1f ms: %s\n", elapsed_ms,
                status.ToString().c_str());
  } else {
    std::printf("error: %s\n", status.ToString().c_str());
  }
}

/// True iff `sql` holds a single statement (no interior ';').
bool IsSingleStatement(const std::string& sql) {
  bool in_string = false;
  for (size_t i = 0; i + 1 < sql.size(); ++i) {
    char c = sql[i];
    if (c == '\'') in_string = !in_string;
    if (c == ';' && !in_string) {
      for (size_t j = i + 1; j + 1 < sql.size(); ++j) {
        if (!std::isspace(static_cast<unsigned char>(sql[j]))) return false;
      }
    }
  }
  return true;
}

void PrintResult(const prefsql::ResultTable& result) {
  if (result.num_columns() > 0) {
    std::printf("%s(%zu rows)\n", result.ToString(kMaxRows).c_str(),
                result.num_rows());
  } else {
    std::printf("ok\n");
  }
}

/// Streams a single SELECT (or EXPLAIN) through the Cursor API, printing
/// rows as they arrive (the driver surface the paper's ODBC client would
/// use).
void RunStreaming(Connection& conn, const std::string& sql) {
  const auto t0 = std::chrono::steady_clock::now();
  auto cursor = conn.OpenCursor(sql);
  if (!cursor.ok()) {
    PrintOutcome(cursor.status(), ElapsedMs(t0));
    return;
  }
  std::vector<prefsql::Row> rows;
  size_t total = 0;
  for (;;) {
    auto row = cursor->Next();
    if (!row.ok()) {
      PrintOutcome(row.status(), ElapsedMs(t0));
      return;
    }
    if (!row->has_value()) break;
    ++total;
    if (rows.size() < kMaxRows) {
      rows.push_back(std::move(**row).IntoRow());
    } else {
      // The skyline is larger than the display cap: stop pulling — the
      // early Close releases the engine's statement lock promptly.
      cursor->Close();
      std::printf("... display cap reached after %zu rows\n", kMaxRows);
      break;
    }
  }
  prefsql::ResultTable table(cursor->columns(), std::move(rows));
  std::printf("%s(%zu rows streamed, %.1f ms)\n",
              table.ToString(kMaxRows).c_str(), total, ElapsedMs(t0));
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  .help                 this text\n"
      "  .tables               list tables\n"
      "  .mode <m>             evaluation mode: rewrite | bnl\n"
      "                        (algorithm: SET bmo_algorithm = naive | bnl |\n"
      "                        sfs | less;)\n"
      "  .demo <name>          load demo data: oldtimer | cars | usedcars |\n"
      "                        products | trips | hotels | programmers\n"
      "  .import <file> <tbl>  import a CSV file into a (new) table\n"
      "  .quit                 exit\n"
      "anything else: SQL / Preference SQL, terminated by ';'\n"
      "  (try: SELECT ... PREFERRING x AROUND 10 AND LOWEST(y);\n"
      "        EXPLAIN SELECT ... PREFERRING ...;)\n");
}

bool HandleDotCommand(Connection& conn, const std::string& line) {
  if (line == ".help") {
    PrintHelp();
    return true;
  }
  if (line == ".tables") {
    for (const auto& name : conn.database().catalog().TableNames()) {
      std::printf("%s\n", name.c_str());
    }
    return true;
  }
  if (line.rfind(".mode", 0) == 0) {
    std::string mode = line.size() > 6 ? line.substr(6) : "";
    if (mode == "rewrite") {
      conn.options().mode = EvaluationMode::kRewrite;
    } else if (mode == "bnl") {
      conn.options().mode = EvaluationMode::kBlockNestedLoop;
    } else {
      std::printf("unknown mode '%s' (rewrite | bnl)\n", mode.c_str());
      return true;
    }
    std::printf("evaluation mode: %s\n",
                prefsql::EvaluationModeToString(conn.options().mode));
    return true;
  }
  if (line.rfind(".demo", 0) == 0) {
    std::string name = line.size() > 6 ? line.substr(6) : "";
    prefsql::Status st;
    if (name == "oldtimer") {
      st = prefsql::LoadOldtimer(conn.database());
    } else if (name == "cars") {
      st = prefsql::LoadCarsExample(conn.database());
    } else if (name == "usedcars") {
      st = prefsql::GenerateUsedCars(conn.database(), 2000);
    } else if (name == "products") {
      st = prefsql::GenerateProducts(conn.database(), 1000);
    } else if (name == "trips") {
      st = prefsql::GenerateTrips(conn.database(), 800);
    } else if (name == "hotels") {
      st = prefsql::GenerateHotels(conn.database(), 500);
    } else if (name == "programmers") {
      st = prefsql::GenerateProgrammers(conn.database(), 500);
    } else {
      std::printf("unknown demo '%s'\n", name.c_str());
      return true;
    }
    std::printf("%s\n", st.ok() ? "loaded" : st.ToString().c_str());
    return true;
  }
  if (line.rfind(".import", 0) == 0) {
    std::string rest = line.size() > 8 ? line.substr(8) : "";
    size_t space = rest.find(' ');
    if (space == std::string::npos) {
      std::printf("usage: .import <file> <table>\n");
      return true;
    }
    auto n = prefsql::ImportCsvFile(conn.database(), rest.substr(space + 1),
                                    rest.substr(0, space));
    if (n.ok()) {
      std::printf("imported %zu rows\n", *n);
    } else {
      std::printf("%s\n", n.status().ToString().c_str());
    }
    return true;
  }
  if (line == ".quit" || line == ".exit") return false;
  std::printf("unknown command %s (try .help)\n", line.c_str());
  return true;
}

// ---------------------------------------------------------------------------
// Remote mode (--connect host:port): the same statement loop over the wire.
// ---------------------------------------------------------------------------

/// Streams a single SELECT through the RemoteCursor, mirroring
/// RunStreaming's display (rows appear as pages arrive).
void RunRemoteStreaming(prefsql::net::Client& client, const std::string& sql) {
  const auto t0 = std::chrono::steady_clock::now();
  auto cursor = client.OpenCursor(sql);
  if (!cursor.ok()) {
    PrintOutcome(cursor.status(), ElapsedMs(t0));
    return;
  }
  std::vector<prefsql::Row> rows;
  size_t total = 0;
  for (;;) {
    auto row = cursor->Next();
    if (!row.ok()) {
      PrintOutcome(row.status(), ElapsedMs(t0));
      return;
    }
    if (!row->has_value()) break;
    ++total;
    if (rows.size() < kMaxRows) {
      rows.push_back(std::move(**row));
    } else {
      cursor->Close();  // frees the server-side cursor promptly
      std::printf("... display cap reached after %zu rows\n", kMaxRows);
      break;
    }
  }
  prefsql::ResultTable table(cursor->columns(), std::move(rows));
  std::printf("%s(%zu rows streamed, %.1f ms)\n",
              table.ToString(kMaxRows).c_str(), total, ElapsedMs(t0));
}

bool HandleRemoteDotCommand(prefsql::net::Client& client,
                            const std::string& line) {
  if (line == ".help") {
    std::printf(
        "remote commands:\n"
        "  .help     this text\n"
        "  .stats    server + connection counters (STATS verb)\n"
        "  .quit     exit\n"
        "anything else: SQL / Preference SQL, terminated by ';'\n");
    return true;
  }
  if (line == ".stats") {
    auto stats = client.Stats();
    if (!stats.ok()) {
      std::printf("%s\n", stats.status().ToString().c_str());
      return true;
    }
    for (const auto& [key, value] : *stats) {
      std::printf("  %-22s %lld\n", key.c_str(),
                  static_cast<long long>(value));
    }
    return true;
  }
  if (line == ".quit" || line == ".exit") return false;
  std::printf("unknown remote command %s (try .help)\n", line.c_str());
  return true;
}

int RunRemote(const std::string& host, int port) {
  auto connected = prefsql::net::Client::Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect %s:%d failed: %s\n", host.c_str(), port,
                 connected.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<prefsql::net::Client> client = std::move(*connected);
  g_remote.store(client.get(), std::memory_order_release);
  struct sigaction sa = {};
  sa.sa_handler = OnSigint;
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  std::thread watcher(WatchSigint);
  std::printf("connected to %s:%d (%s) — .help for commands\n", host.c_str(),
              port, client->banner().c_str());

  std::string buffer;
  std::string line;
  while (true) {
    std::printf(buffer.empty() ? "prefsql> " : "    ...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r' ||
                             line.back() == '\t')) {
      line.pop_back();
    }
    if (buffer.empty() && !line.empty() && line[0] == '.') {
      if (!HandleRemoteDotCommand(*client, line)) break;
      continue;
    }
    buffer += line + "\n";
    if (line.empty() || line.back() != ';') continue;
    std::string sql;
    sql.swap(buffer);
    if (IsSingleStatement(sql) && prefsql::FirstSqlWord(sql) == "SELECT") {
      RunRemoteStreaming(*client, sql);
      continue;
    }
    // The wire protocol carries one statement per EXECUTE; a script runs
    // as a single server-side statement only when it is one statement.
    const auto t0 = std::chrono::steady_clock::now();
    auto result = client->Execute(sql);
    if (result.ok()) PrintResult(*result);
    PrintOutcome(result.status(), ElapsedMs(t0));
  }
  g_remote.store(nullptr, std::memory_order_release);
  g_shutdown.store(true, std::memory_order_relaxed);
  watcher.join();
  client->Close();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect_spec = argv[++i];
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect_spec = arg.substr(10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--connect host:port]\n"
                   "  (no flags: embedded engine; --connect: remote "
                   "prefsqld)\n",
                   argv[0]);
      return 2;
    }
  }
  if (!connect_spec.empty()) {
    size_t colon = connect_spec.rfind(':');
    int port = colon == std::string::npos
                   ? 0
                   : std::atoi(connect_spec.c_str() + colon + 1);
    if (colon == std::string::npos || port <= 0 || port > 65535) {
      std::fprintf(stderr, "bad --connect '%s' (host:port expected)\n",
                   connect_spec.c_str());
      return 2;
    }
    return RunRemote(connect_spec.substr(0, colon), port);
  }

  Connection conn;
  g_conn.store(&conn, std::memory_order_release);
  struct sigaction sa = {};
  sa.sa_handler = OnSigint;
  sa.sa_flags = SA_RESTART;  // keep getline() reading across a Ctrl-C
  sigaction(SIGINT, &sa, nullptr);
  std::thread watcher(WatchSigint);
  std::printf("Preference SQL shell — .help for commands, .quit to exit\n");
  std::string buffer;
  std::string line;
  while (true) {
    std::printf(buffer.empty() ? "prefsql> " : "    ...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    // Trim trailing whitespace.
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r' ||
                             line.back() == '\t')) {
      line.pop_back();
    }
    if (buffer.empty() && !line.empty() && line[0] == '.') {
      if (!HandleDotCommand(conn, line)) break;
      continue;
    }
    buffer += line + "\n";
    if (line.empty() || line.back() != ';') continue;
    std::string sql;
    sql.swap(buffer);
    // A single SELECT or EXPLAIN opens through the plan cache, so a
    // repeated statement reuses its preparation.
    if (IsSingleStatement(sql) && (prefsql::FirstSqlWord(sql) == "SELECT" ||
                                   prefsql::FirstSqlWord(sql) == "EXPLAIN")) {
      RunStreaming(conn, sql);
      continue;
    }
    // Scripts run statement by statement; every result is printed (the old
    // ExecuteScript interface silently dropped all but the last).
    const auto t0 = std::chrono::steady_clock::now();
    auto status = conn.ExecuteScript(
        sql, [](size_t, const prefsql::Statement&,
                prefsql::ResultTable result) {
          PrintResult(result);
          return prefsql::Status::OK();
        });
    PrintOutcome(status, ElapsedMs(t0));
  }
  g_conn.store(nullptr, std::memory_order_release);
  g_shutdown.store(true, std::memory_order_relaxed);
  watcher.join();
  return 0;
}
