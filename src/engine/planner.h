// Planner: compiles a SelectStmt into a tree of physical operators
// (engine/operators/). Access-path selection (coded heap scan vs. index
// lookup for equality/range predicates), join algorithm choice (hash vs.
// nested loop) and the projection/distinct/order/limit tail all happen
// here; execution is pure pulling afterwards. UPDATE and DELETE plan their
// target scan here too (PlanTableScan).
//
// The Preference SQL layer uses PlanCandidates to stream `FROM ... WHERE`
// (qualifiers preserved) into a BmoOperator, and PlanTail to project the
// BMO stream with the engine's own rules.

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "sql/ast.h"
#include "types/schema.h"
#include "util/status.h"

namespace prefsql {

class Executor;
class StatementScope;
class Table;

/// Builds the preference layer's semi-skyline pre-filter over `input`,
/// computing per-partition maximal tuples; `partition_cols` are positions in
/// input's schema. Supplied by core (the planner stays preference-agnostic).
using PrefilterFactory =
    std::function<OperatorPtr(OperatorPtr input,
                              std::vector<size_t> partition_cols)>;

/// Request to push the BMO block below the query's join (algebraic
/// preference pushdown). The planner applies it only when provably sound;
/// see Planner::PlanCandidates.
struct PreferencePushdown {
  /// (qualifier, column) references of the preference's leaf attribute
  /// expressions (the quality columns).
  std::vector<std::pair<std::string, std::string>> pref_columns;
  /// GROUPING attribute names of the query (bare names).
  std::vector<std::string> grouping;
  PrefilterFactory make_prefilter;
};

/// Outcome of a pushdown attempt (EXPLAIN, Connection::last_stats, tests).
struct PushdownReport {
  bool pushed = false;
  /// Human-readable decision: the pre-filter placement when pushed, the
  /// rejection reason otherwise.
  std::string detail;
};

/// True when planning the table ref executes a subquery (a FROM subquery
/// is materialized at plan time and may read the outer row).
bool RefContainsSubquery(const TableRef& tr);

class Planner {
 public:
  /// Plans inside `scope`: the statement's view materializations and the
  /// subquery runner of every operator built; its executor provides the
  /// catalog and scan counters.
  explicit Planner(StatementScope* scope);

  /// Plans a full (non-preference) SELECT pipeline. With `keep_names`
  /// (lower-case column names; a view materialization), a select list
  /// without DISTINCT, aggregates or ORDER BY drops each column reference
  /// item, `*` expansions included, whose output name is not in the set;
  /// one column stays when none is named, so the rows stay. Such items
  /// cannot raise, so no error is lost, and a name that stays keeps every
  /// column of that name, so ambiguity is kept too.
  Result<OperatorPtr> PlanSelect(
      const SelectStmt& select, const EvalContext* outer,
      const std::unordered_set<std::string>* keep_names = nullptr);

  /// Plans `FROM ... WHERE ...` of `select` with column qualifiers
  /// preserved (no projection). `count_stats` = false leaves the executor's
  /// scan counters untouched (EXISTS probes).
  ///
  /// With `pushdown` set, attempts the algebraic preference pushdown: when
  /// the FROM is a single two-way join, every preference quality column
  /// binds to exactly one join side, and each WHERE conjunct binds wholly
  /// to one side, the pre-filter from `pushdown->make_prefilter` is placed
  /// below the join on the preference side — partitioned by the side's
  /// equi-join keys plus its GROUPING columns, so that every tuple it drops
  /// is dominated by a kept tuple with the same join fate. Pref-side WHERE
  /// conjuncts move below the pre-filter (dominators must not be filtered
  /// away later); the remaining conjuncts stay above the join. Falls back
  /// to the ordinary plan otherwise; `report` records the decision.
  Result<OperatorPtr> PlanCandidates(const SelectStmt& select,
                                     const EvalContext* outer,
                                     bool count_stats = true,
                                     const PreferencePushdown* pushdown =
                                         nullptr,
                                     PushdownReport* report = nullptr);

  /// Plans the projection/distinct/order/limit tail over `child`. Takes
  /// ownership of the item/order expressions (callers clone from the AST or
  /// pass synthesized rewrites).
  Result<OperatorPtr> PlanTail(
      std::vector<SelectItem> items, bool distinct,
      std::vector<OrderItem> order_by, std::optional<int64_t> limit,
      std::optional<int64_t> offset, OperatorPtr child,
      const EvalContext* outer,
      const std::unordered_set<std::string>* keep_names = nullptr);

  /// The base table `tr` scans, or null when it names a statement-local or
  /// catalog view, a subquery or a join.
  Table* ScannedTable(const TableRef& tr);

  /// The one read of a base table (rows of `schema`) filtered by `where`
  /// (borrowed; may be null), at the statement's snapshot: a heap scan over
  /// the slots an index serves, else over the coded slot range, under a
  /// filter on the conjuncts the scan leaves. `count_stats` records the
  /// access-path choice of a WHERE. SELECTs over one table and the target
  /// scans of UPDATE and DELETE plan here.
  OperatorPtr PlanTableScan(const Table& table, Schema schema,
                            const Expr* where, const EvalContext* outer,
                            bool count_stats);

 private:
  Result<OperatorPtr> PlanTableRef(const TableRef& tr,
                                   const EvalContext* outer);
  /// Scans `table` (rows of `schema`) at the statement's snapshot: the
  /// heap slots `slots` when given (list mode; `conjuncts` is left as it
  /// is), else the slot range. There, given `conjuncts` (a WHERE's, left to
  /// right), the scan tests their leading run of direct conjuncts with a
  /// literal operand (ClassifyDirect without an outer chain) on the
  /// table's column codes, and `conjuncts` keeps what a filter must still
  /// test: the run's conjuncts on refused columns, then the rest.
  OperatorPtr PlanHeapScan(
      const Table& table, Schema schema,
      std::vector<const Expr*>* conjuncts = nullptr,
      std::optional<std::vector<size_t>> slots = std::nullopt);
  Result<OperatorPtr> PlanJoin(const TableRef& tr, const EvalContext* outer);
  /// The pushdown plan described at PlanCandidates, or nullopt (with the
  /// rejection reason in `report`) when a soundness condition fails.
  Result<std::optional<OperatorPtr>> TryPlanPushdown(
      const SelectStmt& select, const EvalContext* outer, bool count_stats,
      const PreferencePushdown& pushdown, PushdownReport* report);
  Result<OperatorPtr> PlanFromWhere(const SelectStmt& select,
                                    const EvalContext* outer,
                                    bool count_stats);
  Result<OperatorPtr> PlanAggregate(const SelectStmt& select,
                                    OperatorPtr input,
                                    const EvalContext* outer);

  /// Index-assisted access path: candidate heap slots for the `column =
  /// literal` and range conjuncts (ClassifyDirect, plus BETWEEN with
  /// literal bounds) among `conjuncts` over rows of `schema` (callers
  /// re-apply every conjunct); nullopt when no index serves them.
  std::optional<std::vector<size_t>> TryIndexPositions(
      const Table& table, const Schema& schema,
      const std::vector<const Expr*>& conjuncts);

  StatementScope* scope_;
  Executor* executor_;
};

}  // namespace prefsql
