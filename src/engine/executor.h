// Statement execution facade. SELECTs compile into a pull-based physical
// operator tree (engine/planner.h + engine/operators/) and stream row views
// instead of materializing every stage; DML and DDL execute here, with
// UPDATE and DELETE reading their targets through the planner's scan.
//
// Every top-level statement runs in its own StatementScope: the subquery
// runner of all its expressions, and the owner of its view
// materializations. Views referenced several times inside one statement
// (the rewriter's Aux view appears as A1 and A2) are materialized once, at
// the statement's snapshot, and die with the statement's plan — a
// concurrent session's statement never sees or replaces them. A statement
// may also bind statement-local views: named definitions visible only to
// it, looked up before the catalog (the rewriter's Aux, §3.2, without the
// CREATE VIEW/DROP VIEW round trip).

#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "engine/operators/scan.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "types/result_table.h"
#include "util/status.h"

namespace prefsql {

class Executor;

/// Statement-local views: (name, definition) pairs bound into one
/// statement's scope only.
using LocalViews =
    std::vector<std::pair<std::string, std::shared_ptr<const SelectStmt>>>;

/// The execution state of one top-level statement, shared by every subquery
/// planned inside it. Owned by the statement's plan (or by the DML
/// statement's dispatch) and, like the operator tree, used from one thread
/// at a time.
class StatementScope final : public SubqueryRunner {
 public:
  /// `root` (borrowed; may be null) is the statement's SELECT: given, the
  /// views it reads are materialized with only the columns it names.
  explicit StatementScope(Executor* executor, LocalViews local_views = {},
                          const SelectStmt* root = nullptr);
  ~StatementScope() override;

  StatementScope(const StatementScope&) = delete;
  StatementScope& operator=(const StatementScope&) = delete;

  Executor* executor() const { return executor_; }

  /// True when `name` is one of the statement's local views (they shadow
  /// the catalog).
  bool HasLocalView(const std::string& name) const;

  /// Materializes a local or catalog view once per statement (planner
  /// access path). Under a root SELECT, a view that no `*` reaches keeps
  /// only the columns whose names the statement mentions anywhere (its
  /// select list, WHERE, ORDER BY, joins, nested subqueries and the views
  /// it reads), qualifiers ignored; see Planner::PlanSelect.
  Result<std::shared_ptr<ResultTable>> MaterializeView(
      const std::string& name);

  /// Plans and drains `select` with `outer` as the correlated scope chain.
  Result<ResultTable> RunSubquery(const SelectStmt& select,
                                  const EvalContext* outer) override;

  /// Early-exit EXISTS probe, planned for this one call: pulls a single row
  /// from the streamed FROM/WHERE pipeline when the subquery has no
  /// grouping/limit machinery.
  Result<bool> SubqueryExists(const SelectStmt& select,
                              const EvalContext* outer) override;

  /// The same probe planned once for re-runs against new outer rows; null
  /// when the subquery has grouping/limit machinery or a FROM subquery
  /// (which may read the outer row while it is planned).
  Result<std::unique_ptr<ExistsProbe>> PlanExistsProbe(
      const SelectStmt& select, const EvalContext& outer) override;

  /// Counts one EXISTS probe run (flushed into Executor::Stats when the
  /// scope ends).
  void CountProbeRun() { ++probe_runs_; }

 private:
  /// The definition of the local or catalog view `name`.
  Result<std::shared_ptr<const SelectStmt>> ViewDefinition(
      const std::string& name) const;

  Executor* executor_;
  /// Keyed by lower-cased name, like the catalog.
  std::unordered_map<std::string, std::shared_ptr<const SelectStmt>>
      local_views_;
  std::unordered_map<std::string, std::shared_ptr<ResultTable>> views_;
  const SelectStmt* root_;
  /// What the root reads of its views, collected on the first view
  /// materialization: the column names it mentions (lower case), and the
  /// views a `*` reaches, which keep every column.
  struct ViewColumnUse {
    std::unordered_set<std::string> names;
    std::unordered_set<std::string> whole;
  };
  std::optional<ViewColumnUse> view_use_;
  uint64_t probe_runs_ = 0;
  uint64_t probe_plans_ = 0;
};

/// Executes parsed statements against a catalog.
class Executor {
 public:
  explicit Executor(Catalog* catalog) : catalog_(catalog) {}

  /// Runs a top-level statement. SELECT returns its result; DML returns a
  /// one-cell table [rows_affected]; DDL returns an empty table.
  Result<ResultTable> ExecuteStatement(const Statement& stmt);

  /// Runs a top-level SELECT: plans the operator tree and drains it (used
  /// by the preference layer which builds ASTs directly). `local_views`
  /// are bound into the statement's scope.
  Result<ResultTable> ExecuteSelect(const SelectStmt& select,
                                    LocalViews local_views = {});

  /// Compiles a top-level SELECT into an unopened operator tree without
  /// draining it — the streaming-cursor entry point (core/cursor.h). The
  /// root owns the statement's scope, including `local_views`. The tree
  /// borrows from `select` and the catalog; both must outlive it.
  Result<OperatorPtr> PlanSelectOperator(const SelectStmt& select,
                                         LocalViews local_views = {});

  /// Materializes `FROM ... WHERE ...` of `select`, preserving column
  /// qualifiers (unlike SELECT *). Kept as a thin facade over
  /// Planner::PlanCandidates for callers that need the full relation.
  Result<ResultTable> MaterializeCandidates(const SelectStmt& select);

  /// Writes source row `r`'s cells into `row` (full table width, NULL
  /// elsewhere) at `positions`, the table columns the statement's column
  /// list names; fails on an arity mismatch.
  using InsertRowFiller = std::function<Status(
      size_t r, const std::vector<size_t>& positions, Row* row)>;

  /// Inserts all rows of `data` into `table` (column mapping as in INSERT;
  /// empty `columns` = positional), all or none. Returns [rows_affected].
  /// Public so the Preference SQL layer can execute INSERT statements whose
  /// SELECT has a PREFERRING clause (§2.2.5).
  Result<ResultTable> InsertTable(const std::string& table,
                                  const std::vector<std::string>& columns,
                                  ResultTable data);

  Catalog* catalog() { return catalog_; }

  /// The target table of the last DML statement — where the engine's
  /// post-write version GC looks (core/engine.cc, TryCollectGarbage). Reset
  /// at every statement dispatch and by InsertTable.
  struct DmlEffect {
    enum class Kind { kNone, kInsert, kDelete, kUpdate };
    Kind kind = Kind::kNone;
    uint64_t table_id = 0;  ///< Table::id, so a recreated table never matches
    std::string table;      ///< target table name
  };
  const DmlEffect& last_dml() const { return last_dml_; }

  /// Execution counters (monotone per executor; used by tests and benches).
  /// Atomic so concurrent reader sessions of a shared engine can count scans
  /// without synchronization.
  struct Stats {
    std::atomic<uint64_t> index_scans{0};  ///< WHEREs served via an index
    std::atomic<uint64_t> full_scans{0};   ///< WHEREs evaluated by full scan
    MvccScanCounters mvcc;                 ///< visibility filter traffic
    std::atomic<uint64_t> gc_cleared{0};   ///< version payloads reclaimed
    /// EXISTS probes run, and the probe plans built for them: a correlated
    /// probe over tables and views is planned once per statement.
    std::atomic<uint64_t> exists_probes{0};
    std::atomic<uint64_t> exists_plans{0};
  };
  const Stats& stats() const { return stats_; }
  MvccScanCounters* mvcc_counters() { return &stats_.mvcc; }
  void CountGarbageCollected(uint64_t n) {
    stats_.gc_cleared.fetch_add(n, std::memory_order_relaxed);
  }

  /// Adds one statement's EXISTS probe counts (StatementScope only).
  void CountProbes(uint64_t runs, uint64_t plans) {
    stats_.exists_probes.fetch_add(runs, std::memory_order_relaxed);
    stats_.exists_plans.fetch_add(plans, std::memory_order_relaxed);
  }

  /// Records the access-path choice of one planned WHERE (planner only).
  void CountScan(bool used_index) {
    if (used_index) {
      stats_.index_scans.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  Result<ResultTable> ExecuteInsert(const Statement& stmt);
  Result<ResultTable> ExecuteUpdate(const Statement& stmt);
  Result<ResultTable> ExecuteDelete(const Statement& stmt);

  /// Builds `count` rows of `table` (named `name` by the statement) in
  /// table column order through `fill`, coerces each in place, and only
  /// then appends them all under one commit epoch.
  Result<ResultTable> InsertRows(Table* table, const std::string& name,
                                 const std::vector<std::string>& columns,
                                 size_t count, const InsertRowFiller& fill);

  /// The ascending heap slots of the rows of `table` (read as rows of
  /// `schema`, the table's qualified by the statement's name for it) that
  /// `where` (may be null) selects at the statement's snapshot: the target
  /// scan of UPDATE and DELETE, planned by Planner::PlanTableScan.
  Result<std::vector<size_t>> TargetSlots(StatementScope* statement,
                                          const Table& table,
                                          const Schema& schema,
                                          const Expr* where);

  /// Stamps `last_dml_` with the identity of `table`.
  void BeginDml(DmlEffect::Kind kind, const std::string& name,
                const Table& table);

  Catalog* catalog_;
  DmlEffect last_dml_;
  Stats stats_;
};

}  // namespace prefsql
