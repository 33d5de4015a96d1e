// Engine: the shared half of the paper's §3.1 architecture — one Preference
// SQL optimizer plus one standard SQL database serving many client
// sessions.
//
//   auto engine = std::make_shared<Engine>();
//   Connection a, b;
//   a.Attach(engine);
//   b.Attach(engine);         // b sees every table a creates
//
// The engine owns the catalog/executor (Database) and the prepared-plan
// cache, its one cache. Concurrency is MVCC: rows carry [begin, end)
// commit-epoch stamps (storage/row_heap.h), every committed DML statement
// gets one epoch (storage/epoch.h), and a reader pins the current epoch
// when its statement or streaming Cursor opens and filters scans by
// visibility at that snapshot. Two locks coordinate the rest:
//
//   * `mutex_` (shared_mutex) — the DDL lock. Readers (in every evaluation
//     mode) AND DML writers (INSERT ... SELECT PREFERRING included) hold it
//     shared; only DDL (CREATE/DROP move the catalog) and the version GC
//     (which must observe no active pins) take it exclusively.
//   * `writer_mutex_` (mutex) — serializes DML statements.
//
// Readers therefore never block writers and vice versa: a streaming Cursor
// holds only the shared DDL lock plus its snapshot pin while concurrent
// INSERT/UPDATE/DELETE append new row versions.
//
// The plan cache maps (parameterized normalized text, catalog version) to
// the parsed + expanded + compiled preparation. Constant literals of
// SELECT/EXPLAIN texts are auto-parameterized into `?` holes for keying,
// so statements differing only in literal values share one preparation;
// the values are re-injected at execute time (sql/normalize.h,
// sql/parameters.h). No session knob is part of the key: preparation reads
// none. Any DDL bumps the catalog version, which leaves older preparations
// unreachable; the DDL path evicts them right away. Table contents are in
// no cache: every PREFERRING statement pulls its candidates at its
// snapshot, keys exactly those and runs the BMO (or the §3.2 rewrite), so
// a write does no cache work. After a write, when the DDL lock is
// momentarily free of readers, superseded row-version payloads older than
// every pin are garbage-collected (TryCollectGarbage).
//
// The client surface is three-tiered:
//   * Execute(text)      — one-shot; a thin wrapper that drains a Cursor;
//   * Prepare(text)      — returns a PreparedStatement holding the shared
//                          cached plan; Bind values, re-execute at will
//                          (transparently re-prepared when DDL moves the
//                          catalog version);
//   * OpenCursor(text)   — streams rows through the pull pipeline without
//                          materializing a ResultTable (core/cursor.h).
//
// Only the text entry points consult the plan cache: OpenCursor (and so
// Execute) and Prepare share one preparation routine, PrepareText, and
// PreparedStatement re-validates through the same LookupOrPrepare.
// Pre-parsed statements (ExecuteStatement, and so ExecuteScript) are
// prepared afresh and never touch the cache. `SET plan_cache = off` only
// skips the lookup and insert: every SELECT, from every entry point,
// streams through OpenPreparedCursor; only SET, DML, DDL and EXPLAIN
// results are materialized.
//
// Per-session state (knobs, last_stats) lives in Session objects
// (core/session.h); the Connection facade (core/connection.h) bundles one
// Session with an engine reference for the classic embedded API.

#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cursor.h"
#include "core/plan_cache.h"
#include "core/preference_query.h"
#include "core/prepared_statement.h"
#include "core/rewriter.h"
#include "core/session.h"
#include "engine/database.h"
#include "storage/epoch.h"
#include "types/result_table.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace prefsql {

class Engine {
 public:
  /// Starts the background MVCC reclaimer thread (see BackgroundGcLoop).
  Engine();
  /// Stops and joins the reclaimer before any member is torn down.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Parses and executes one statement on behalf of `session` by draining
  /// OpenCursor. Repeated SELECT/EXPLAIN texts skip the parse through the
  /// plan cache — including repetitions that differ only in literal values
  /// (auto-parameterization).
  Result<ResultTable> Execute(Session& session, const std::string& sql);

  /// Opens a cursor over one statement text (see core/cursor.h), prepared
  /// through the plan cache by PrepareText with IN lists collapsed. Every
  /// SELECT streams, preference queries in either evaluation mode; EXPLAIN
  /// and write statements replay a materialized result. `keepalive`, when
  /// supplied, is retained by the cursor so it cannot outlive the engine.
  Result<Cursor> OpenCursor(Session& session, const std::string& sql,
                            std::shared_ptr<Engine> keepalive = nullptr);

  /// Prepares one statement for repeated execution: parse once, bind
  /// per request (PreparedStatement::Bind), execute/stream at will. For
  /// SELECT/EXPLAIN the preparation comes from PrepareText (placeholders
  /// 1:1 with values), is published into the plan cache and re-validated
  /// per execution, so DDL between executions triggers a transparent
  /// re-prepare (no re-parse). Statements without placeholders are
  /// auto-parameterized: their literals become pre-bound parameters.
  Result<PreparedStatement> Prepare(Session& session, const std::string& sql,
                                    std::shared_ptr<Engine> keepalive =
                                        nullptr);

  /// Executes a semicolon-separated script; returns the last result.
  Result<ResultTable> ExecuteScript(Session& session, const std::string& sql);

  /// Per-statement result sink of the script overload below; `index` is the
  /// 0-based statement position. A non-OK return aborts the script.
  using ScriptResultCallback =
      std::function<Status(size_t index, const Statement& stmt,
                           ResultTable result)>;

  /// Executes a script, delivering every statement's result to `on_result`
  /// instead of dropping all but the last.
  Status ExecuteScript(Session& session, const std::string& sql,
                       const ScriptResultCallback& on_result);

  /// Executes an already-parsed statement. Beyond plain SELECTs this layer
  /// handles: preference SELECTs (rewrite or in-engine BMO), EXPLAIN
  /// (returns the optimizer's standard-SQL translation as a one-column
  /// table), INSERT whose SELECT has a PREFERRING clause (§2.2.5), SET
  /// (session knobs), and expansion of stored PREFERENCE references (PDL).
  /// A SELECT/EXPLAIN is prepared afresh (never through the plan cache)
  /// and drained from OpenPreparedCursor. Statements containing unbound
  /// parameters are rejected with a kBindError (use Prepare).
  Result<ResultTable> ExecuteStatement(Session& session,
                                       const Statement& stmt);

  /// Translates a preference query into the standard SQL script the
  /// rewriting optimizer would run (§3.2) without executing it.
  Result<std::string> RewriteToSql(Session& session, const std::string& sql);

  /// The underlying standard-SQL database. Unsynchronized — direct access
  /// is for single-threaded setup (tests, generators, benches); concurrent
  /// sessions must go through Execute*.
  Database& database() { return db_; }

  PlanCache& plan_cache() { return plan_cache_; }

  /// Retired and read by nothing: the engine keeps no key or skyline cache,
  /// so a write has no cache entry to maintain. Kept only so existing
  /// callers (perfbench) still compile.
  struct RetiredKeyCache {
    uint64_t maintenance_events() const { return 0; }
  };
  RetiredKeyCache key_cache() const { return {}; }

  /// Engine-wide memory budget shared by all sessions' statement buffers
  /// (`SET engine_memory_bytes` adjusts the limit; 0 = unlimited).
  MemoryBudget& memory_budget() { return engine_budget_; }

  /// Cumulative count of background-reclaimer sweeps that won the exclusive
  /// lock and collected (observability for tests and benches).
  uint64_t background_gc_passes() const {
    return background_gc_passes_.load(std::memory_order_relaxed);
  }

 private:
  friend class Cursor;
  friend class PreparedStatement;

  /// Builds the preparation of one SELECT/EXPLAIN statement: collects the
  /// parameter signature and, for preference queries, expands stored
  /// PREFERENCE references and compiles the PREFERRING clause (under a
  /// shared lock — the expansion reads the catalog). A PREFERRING clause
  /// containing parameter holes is left uncompiled (compiled per execution
  /// after binding).
  Result<std::shared_ptr<const CachedPlan>> BuildPreparation(
      StatementKind kind, std::shared_ptr<const SelectStmt> select);

  /// Wraps an eagerly computed result into a (replay) cursor.
  Cursor MaterializedCursor(ResultTable result, Session* session,
                            std::shared_ptr<Engine> keepalive);

  /// The one place the plan cache is looked up and filled: returns the
  /// preparation cached under (`key_text`, current catalog version), or
  /// runs `build` on a miss and publishes its result. With the session's
  /// plan_cache knob off it only runs `build`. `build` must yield the
  /// preparation `key_text` parses to — a key names exactly one plan.
  Result<std::shared_ptr<const CachedPlan>> LookupOrPrepare(
      Session& session, const std::string& key_text,
      const std::function<Result<std::shared_ptr<const CachedPlan>>()>&
          build,
      bool* hit);

  /// A statement text made ready to run (PrepareText): the preparation of
  /// a SELECT/EXPLAIN, or the parsed statement of any other kind.
  struct PreparedText {
    std::shared_ptr<const CachedPlan> plan;  ///< SELECT/EXPLAIN, else null
    std::shared_ptr<const Statement> stmt;   ///< every other kind
    std::string key_text;                    ///< plan-cache key of `plan`
    bool plan_cache_hit = false;
    /// Literals were lifted into `plan`'s holes; `values` holds them and
    /// `widths` says how many values each hole consumes (IN-list collapse).
    bool auto_parameterized = false;
    std::vector<Value> values;
    std::vector<uint32_t> widths;
  };

  /// Turns a statement text into a preparation through the plan cache:
  /// normalizes it, lifts its literals when auto_parameterize is on
  /// (collapsing IN lists when asked — the text path — or keeping
  /// placeholders 1:1 with values — Prepare), and on a miss parses the
  /// lifted text. Parse errors always point into the client's `sql`.
  Result<PreparedText> PrepareText(Session& session, const std::string& sql,
                                   bool collapse_in_lists);

  /// Opens a cursor over a prepared SELECT/EXPLAIN: streaming for every
  /// SELECT (plain, rewritten, or evaluated in-engine), materialized for
  /// EXPLAIN. `params` are the values for the plan's parameter holes
  /// (nullptr or empty when the statement has none); `auto_parameterized`
  /// tags the stats. `widths`, when non-empty, maps IN-list-collapsed
  /// placeholders to the number of flat values each consumes (see
  /// ParameterizeSql).
  Result<Cursor> OpenPreparedCursor(Session& session,
                                    std::shared_ptr<const CachedPlan> plan,
                                    bool plan_cache_hit,
                                    const std::vector<Value>* params,
                                    bool auto_parameterized,
                                    std::shared_ptr<Engine> keepalive,
                                    const std::vector<uint32_t>* widths =
                                        nullptr);

  /// The artifacts one execution of a prepared statement runs against:
  /// the (re-)expanded query block with bound values injected, and the
  /// compiled preference (nullptr for plain SELECTs).
  struct ExecutionView {
    std::shared_ptr<const SelectStmt> select;
    std::shared_ptr<const CompiledPreference> preference;
  };

  /// Produces the execution artifacts for `plan` under the statement lock:
  /// re-expands when DDL moved the catalog version since preparation
  /// (transparent re-prepare), injects `params`, and (re-)compiles the
  /// PREFERRING clause when it could not be compiled at prepare time.
  /// Caller must hold the statement lock.
  Result<ExecutionView> BindForExecutionLocked(
      const CachedPlan& plan, const std::vector<Value>* params,
      const std::vector<uint32_t>* widths = nullptr);

  /// The §3.2 rewrite of a bound preference SELECT with its Aux view named
  /// `aux_name`: probes the base columns, validates the preference against
  /// them, and rewrites. The one caller of the rewriter — execution passes
  /// the statement-local name, EXPLAIN and RewriteToSql the printed "Aux",
  /// so all three validate alike. NotImplemented when the rewriter refuses
  /// the preference. Caller must hold the lock (schema probe).
  Result<RewriteOutput> RewriteLocked(
      const Session& session, const SelectStmt& select,
      const std::shared_ptr<const CompiledPreference>& pref,
      const std::string& aux_name);

  /// Plans a bound preference SELECT the one way every statement runs it
  /// (cursors stream the plan, INSERT ... SELECT drains it): the §3.2
  /// rewrite in rewrite mode, the in-engine BMO plan in bnl mode or when
  /// the rewriter refuses. Records the decision in `stats`. Caller must
  /// hold the lock.
  Result<PreferencePlan> PlanPreferenceLocked(Session& session,
                                              ExecutionView view,
                                              PreferenceQueryStats& stats);

  /// The one stats flush of an executed SELECT (Cursor::Close, the
  /// INSERT ... SELECT drain): completes `stats` with the counters `plan`'s
  /// BMO operators flushed on Close (an in-engine plan only), the result
  /// size and the statement's batch counters, and publishes it as
  /// `session`'s last_stats.
  void FlushStats(Session& session, PreferenceQueryStats stats,
                  const PreferencePlan& plan, size_t result_count,
                  const QueryContext* ctx);

  Result<ResultTable> ExecuteExplain(Session& session, const CachedPlan& plan,
                                     const std::vector<Value>* params,
                                     const std::vector<uint32_t>* widths =
                                         nullptr);

  /// SET <knob> = <value>: run-time access to the session's options.
  Result<ResultTable> ExecuteSet(Session& session, const Statement& stmt);

  /// Returns `select` with stored PREFERENCE references expanded (clones
  /// only when needed). Caller must hold the lock (catalog read).
  Result<std::shared_ptr<SelectStmt>> ExpandSelect(const SelectStmt& select);

  /// Column names a `SELECT *` over the query's FROM would produce (schema
  /// probe for the rewriter). Caller must hold the lock.
  Result<std::vector<std::string>> ProbeBaseColumns(const SelectStmt& select);

  /// Copies the plan cache's cumulative eviction counter and the MVCC
  /// counters into `session`'s last_stats.
  void SnapshotCacheCounters(Session& session);

  /// Opportunistic version GC: if the DDL lock is free of readers (no pins
  /// can exist without it), frees row-version payloads of the last DML's
  /// table that are invisible at every snapshot >= the GC horizon. No-op
  /// when `session` has mvcc_gc off or readers are active.
  void TryCollectGarbage(Session& session);

  /// Body of the background MVCC reclaimer thread: a cv-timed loop that
  /// periodically (and whenever memory pressure or a knob change notifies
  /// it) attempts the DDL lock exclusively with try_to_lock — the same
  /// "exclusive acquisition proves no pins, no readers" safety argument as
  /// TryCollectGarbage — and on success sweeps superseded version payloads
  /// of ALL catalog tables. Unlike the opportunistic post-DML sweep it
  /// retries on a timer, so dead-version residency stays bounded even when
  /// readers usually hold the lock at commit time.
  void BackgroundGcLoop();

  /// The one GC sweep: frees superseded row-version payloads of `only`, or
  /// of every catalog table when null, below the pin-aware horizon. Caller
  /// must hold `mutex_` exclusively. Returns payloads reclaimed.
  uint64_t CollectGarbageLocked(Table* only);

  /// Engine-budget pressure relief (installed into each statement's
  /// QueryContext): sheds cold plan-cache entries — freeing their heap
  /// memory, though not budget-charged bytes, which only return when
  /// statements finish — and kicks the background reclaimer so a full
  /// pin-aware sweep runs before any query is refused.
  void RelieveMemoryPressure(uint64_t requested_bytes);

  /// Builds the statement's resource-governance context from `session`'s
  /// knobs (deadline, statement/engine budgets, pressure relief) and
  /// publishes it as the session's current context so CancelCurrent can
  /// reach it. The caller establishes the thread-local scope and is
  /// responsible for retiring it (SessionContextClearGuard / cursor Close).
  std::shared_ptr<QueryContext> ArmStatementContext(Session& session);

  Database db_;
  /// The DDL lock: readers and DML writers share it, DDL and GC take it
  /// exclusively; see file comment.
  std::shared_mutex mutex_;
  /// Serializes DML statements.
  std::mutex writer_mutex_;
  PlanCache plan_cache_;

  /// Engine-wide statement-buffer budget (`SET engine_memory_bytes`).
  MemoryBudget engine_budget_;

  // Background MVCC reclaimer (see BackgroundGcLoop). `gc_mu_`/`gc_cv_`
  // only coordinate the thread's sleep/wake/stop handshake; the sweep
  // itself synchronizes through `mutex_` like every other GC.
  std::mutex gc_mu_;
  std::condition_variable gc_cv_;
  bool gc_stop_ = false;
  bool gc_kick_ = false;  ///< pressure relief requested an immediate pass
  std::atomic<bool> gc_background_enabled_{true};
  std::atomic<uint64_t> background_gc_passes_{0};
  std::thread gc_thread_;  ///< last member: joins before peers tear down
};

}  // namespace prefsql
