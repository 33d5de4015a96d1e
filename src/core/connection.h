// Connection: the public entry point of the library — the analogue of the
// paper's "Preference ODBC/JDBC driver" sitting in front of the Preference
// SQL Optimizer and the standard SQL database (§3.1).
//
//   prefsql::Connection conn;
//   conn.Execute("CREATE TABLE trips (dest TEXT, duration INTEGER)");
//   conn.Execute("INSERT INTO trips VALUES ('Rome', 10), ('Oslo', 15)");
//   auto result = conn.Execute(
//       "SELECT * FROM trips PREFERRING duration AROUND 14");
//   std::cout << result->ToString();
//
// A Connection is a thin facade bundling one Session (per-client knobs and
// stats, core/session.h) with an Engine (shared catalog + executor + plan
// cache, core/engine.h). By default each Connection owns a private engine
// — the classic embedded behaviour; Attach() switches it onto a shared
// engine so many connections serve one database, as in the paper's
// deployment:
//
//   auto engine = std::make_shared<prefsql::Engine>();
//   prefsql::Connection a, b;
//   a.Attach(engine);
//   b.Attach(engine);   // b sees every table a creates
//
// Standard SQL passes straight through to the engine ("without causing any
// noticeable overhead"); queries with a PREFERRING clause are rewritten
// into standard SQL (the product's strategy) or evaluated with an in-engine
// skyline algorithm, selectable per session.
//
// The driver surface is three-tiered, like the ODBC/JDBC API it mirrors:
//   Execute(text)   one-shot: parse (or plan-cache hit), run, materialize;
//   Prepare(text)   parse once, Bind('?'/'$name') per request, re-execute —
//                   statements differing only in literals share one cached
//                   plan (auto-parameterization);
//   OpenCursor(text) stream rows out of the pull pipeline without
//                   materializing a ResultTable (core/cursor.h).

#pragma once

#include <memory>
#include <string>
#include <utility>

#include "core/cursor.h"
#include "core/engine.h"
#include "core/prepared_statement.h"
#include "core/session.h"
#include "types/result_table.h"
#include "util/status.h"

namespace prefsql {

/// A Preference SQL connection: one session over a private or shared engine.
class Connection {
 public:
  Connection() : engine_(std::make_shared<Engine>()) {}
  explicit Connection(ConnectionOptions options)
      : engine_(std::make_shared<Engine>()), session_(options) {}

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Attaches this connection to `engine`, releasing the private one. The
  /// session's knobs and stats are kept. Statements of connections sharing
  /// an engine are isolated by the engine's statement lock (reads run
  /// concurrently, writes exclusively).
  void Attach(std::shared_ptr<Engine> engine) { engine_ = std::move(engine); }

  /// The engine this connection runs on (pass it to another connection's
  /// Attach to share the database).
  const std::shared_ptr<Engine>& engine() const { return engine_; }

  /// Parses and executes one statement (standard SQL or Preference SQL).
  Result<ResultTable> Execute(const std::string& sql) {
    return engine_->Execute(session_, sql);
  }

  /// Prepares a statement for repeated execution: parse once, bind values
  /// per request, execute or stream at will (core/prepared_statement.h).
  /// The returned statement borrows this connection's session — it must
  /// not outlive the Connection.
  Result<PreparedStatement> Prepare(const std::string& sql) {
    return engine_->Prepare(session_, sql, engine_);
  }

  /// Opens a streaming cursor over one statement: rows are pulled from the
  /// operator pipeline on demand instead of materializing a ResultTable.
  /// A streaming cursor holds the engine's shared statement lock — close
  /// it before issuing DML/DDL from the same thread (core/cursor.h).
  Result<Cursor> OpenCursor(const std::string& sql) {
    return engine_->OpenCursor(session_, sql, engine_);
  }

  /// Executes a semicolon-separated script; returns the last result.
  Result<ResultTable> ExecuteScript(const std::string& sql) {
    return engine_->ExecuteScript(session_, sql);
  }

  /// Executes a script, delivering every statement's result to `on_result`
  /// (0-based statement index, parsed statement, result) instead of
  /// dropping all but the last. A non-OK callback return aborts the script.
  Status ExecuteScript(const std::string& sql,
                       const Engine::ScriptResultCallback& on_result) {
    return engine_->ExecuteScript(session_, sql, on_result);
  }

  /// Executes an already-parsed statement (see Engine::ExecuteStatement).
  Result<ResultTable> ExecuteStatement(const Statement& stmt) {
    return engine_->ExecuteStatement(session_, stmt);
  }

  /// Translates a preference query into the standard SQL script the
  /// rewriting optimizer would run (§3.2) without executing it.
  Result<std::string> RewriteToSql(const std::string& sql) {
    return engine_->RewriteToSql(session_, sql);
  }

  /// The underlying standard-SQL database (catalog access, direct SQL).
  Database& database() { return engine_->database(); }

  ConnectionOptions& options() { return session_.options(); }
  const ConnectionOptions& options() const { return session_.options(); }

  /// Stats struct of the last executed preference query (kept as a nested
  /// alias for source compatibility; the type lives in core/session.h).
  using PreferenceQueryStats = prefsql::PreferenceQueryStats;
  const PreferenceQueryStats& last_stats() const {
    return session_.last_stats();
  }

  Session& session() { return session_; }

 private:
  std::shared_ptr<Engine> engine_;
  Session session_;
};

}  // namespace prefsql
