// Cursor: row-at-a-time access to a statement result — the client-facing
// end of the pull-based operator pipeline (the paper's Preference ODBC/JDBC
// driver surface, §3.1).
//
//   auto cursor = conn.OpenCursor(
//       "SELECT * FROM car PREFERRING LOWEST(price)");
//   while (auto row = cursor->Next()) {          // Result<optional<RowRef>>
//     if (!(*row)) break;                        // end of stream
//     use((**row).row());
//   }
//   cursor->Close();                             // optional; ~Cursor closes
//
// Two shapes share the interface:
//   * streaming — every SELECT (plain, §3.2-rewritten, or evaluated
//     in-engine; plan cache on or off; opened from text, a prepared
//     statement or a parsed statement) holds the open operator tree, the
//     engine's shared DDL lock, and a pinned MVCC snapshot, and pulls rows
//     on demand: skyline/top-k results reach the client without a
//     ResultTable materialization. Close() (or end-of-stream, or an error)
//     closes the operator tree — flushing the BMO statistics into the
//     session's last_stats even when the client stopped early — and
//     releases the snapshot pin and the lock promptly.
//   * materialized — EXPLAIN, SET, DML and DDL results are computed
//     eagerly and replayed row by row; no lock or pin is held.
//
// Snapshot stability: a streaming cursor's rows are exactly the versions
// visible at its open-time epoch. Concurrent DML appends new row versions
// without blocking on the cursor — and without changing what it streams;
// the pin keeps the version GC behind the snapshot. Only DDL still excludes
// open cursors: close a cursor before issuing CREATE/DROP from the same
// thread (the exclusive DDL lock would self-deadlock), and never let a
// cursor outlive its Connection/Engine. RowRefs returned by Next() are
// valid until the next Next()/Close() call.

#pragma once

#include <memory>
#include <optional>
#include <shared_mutex>

#include "core/plan_cache.h"
#include "core/preference_query.h"
#include "core/session.h"
#include "engine/operators/operator.h"
#include "storage/epoch.h"
#include "types/result_table.h"
#include "types/row_view.h"
#include "types/schema.h"
#include "util/status.h"

namespace prefsql {

class Engine;

/// Row-at-a-time result handle; movable, auto-closes on destruction.
class Cursor {
 public:
  /// A closed cursor; Next() on it reports kExecutionError.
  Cursor() = default;
  ~Cursor();

  Cursor(Cursor&&) noexcept = default;
  Cursor& operator=(Cursor&&) noexcept = default;
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  /// Column metadata of the result; valid from construction, also after
  /// Close.
  const Schema& columns() const;

  /// Produces the next row, or nullopt at end of stream (which auto-closes
  /// the cursor, releasing the statement lock). The returned RowRef is
  /// valid until the next Next()/Close() call. After Close, reports
  /// kExecutionError.
  Result<std::optional<RowRef>> Next();

  /// Closes the cursor: shuts the operator tree down (flushing statistics
  /// into the session's last_stats — the counters are correct even when the
  /// client stopped pulling early) and releases the engine's statement
  /// lock. Idempotent.
  void Close();

  /// True until Close / end of stream / a streaming error.
  bool is_open() const;

  /// Rows produced so far.
  size_t rows_streamed() const;

 private:
  friend class Engine;
  friend Result<ResultTable> DrainCursor(Cursor& cursor);

  /// Everything one open statement needs to stay alive while the client
  /// pulls: the operator tree, the statement lock, and the shared artifacts
  /// the operators reference (ASTs, cached plan).
  struct Impl {
    // -- streaming (engaged when root != nullptr) --
    /// Owns root for preference queries (rewritten or in-engine) along
    /// with the ASTs it borrows.
    PreferencePlan pref_plan;
    OperatorPtr plain_root;      ///< owns root for plain SELECTs
    PhysicalOperator* root = nullptr;
    std::shared_lock<std::shared_mutex> lock;
    /// Snapshot pinned for the cursor's lifetime: Next() re-establishes it
    /// as the ambient read epoch per pull, so lazily materialized subplans
    /// see the open-time view too, and GC stays behind the pin.
    SnapshotPin pin;
    uint64_t snapshot = 0;
    /// The statement's resource-governance context (deadline, cancel flag,
    /// memory budgets), kept alive for the cursor's lifetime so
    /// Session::CancelCurrent reaches in-flight pulls. Next() re-establishes
    /// it as the ambient context per pull; Close() retires it from the
    /// session.
    std::shared_ptr<QueryContext> ctx;
    std::shared_ptr<const SelectStmt> select_keepalive;  ///< plain SELECTs
    std::shared_ptr<const CachedPlan> plan_keepalive;
    std::shared_ptr<Engine> engine_keepalive;
    Engine* engine = nullptr;
    Session* session = nullptr;
    /// Stats template filled at open (cache outcomes, plan decisions);
    /// completed with the operator counters and flushed on Close — but only
    /// while `stats_epoch` still matches the session (a statement executed
    /// after this cursor opened owns last_stats now).
    PreferenceQueryStats stats;
    uint64_t stats_epoch = 0;
    /// Batch pull state: Next() keeps the row-at-a-time client API by
    /// iterating the current operator batch;
    /// `batch_pos` indexes into `batch.sel`. Borrowed refs in the batch
    /// point into pinned storage, released with the tree on Close.
    RowBatch batch;
    size_t batch_pos = 0;

    // -- materialized --
    std::optional<ResultTable> table;
    size_t next_row = 0;

    Schema schema;
    size_t streamed = 0;
    bool open = true;
  };

  explicit Cursor(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

  std::unique_ptr<Impl> impl_;
};

/// Fully drains (and closes) `cursor` into a ResultTable. Execute() is this
/// over an OpenCursor.
Result<ResultTable> DrainCursor(Cursor& cursor);

}  // namespace prefsql
