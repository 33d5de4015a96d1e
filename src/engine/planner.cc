#include "engine/planner.h"

#include <algorithm>

#include "engine/aggregates.h"
#include "engine/executor.h"
#include "engine/operators/aggregate.h"
#include "engine/operators/filter.h"
#include "engine/operators/join.h"
#include "engine/operators/project.h"
#include "engine/operators/scan.h"
#include "engine/operators/sort.h"
#include "sql/printer.h"
#include "storage/index.h"
#include "util/string_util.h"

namespace prefsql {
namespace {

// Derives an output column name for a select item without alias.
std::string DeriveColumnName(const Expr& e, size_t position) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return e.column;
    case ExprKind::kFunction:
      if (!e.args.empty() && e.args[0]->kind == ExprKind::kColumnRef) {
        return ToUpper(e.function_name) + "(" + e.args[0]->column + ")";
      }
      return ToUpper(e.function_name);
    case ExprKind::kLiteral:
      return e.literal.ToString();
    default: {
      std::string text = ExprToSql(e);
      if (text.size() <= 32) return text;
      return "col" + std::to_string(position + 1);
    }
  }
}

// Extracts equi-join key pairs from an ON conjunction; non-extractable
// conjuncts land in `residual`.
void ExtractEquiKeys(const Expr& on, const Schema& left, const Schema& right,
                     std::vector<std::pair<size_t, size_t>>* keys,
                     std::vector<const Expr*>* residual) {
  if (on.kind == ExprKind::kBinary && on.binary_op == BinaryOp::kAnd) {
    ExtractEquiKeys(*on.left, left, right, keys, residual);
    ExtractEquiKeys(*on.right, left, right, keys, residual);
    return;
  }
  if (on.kind == ExprKind::kBinary && on.binary_op == BinaryOp::kEq &&
      on.left->kind == ExprKind::kColumnRef &&
      on.right->kind == ExprKind::kColumnRef) {
    auto l_in_left = left.TryResolve(on.left->qualifier, on.left->column);
    auto r_in_right = right.TryResolve(on.right->qualifier, on.right->column);
    if (l_in_left && r_in_right) {
      keys->emplace_back(*l_in_left, *r_in_right);
      return;
    }
    auto l_in_right = right.TryResolve(on.left->qualifier, on.left->column);
    auto r_in_left = left.TryResolve(on.right->qualifier, on.right->column);
    if (l_in_right && r_in_left) {
      keys->emplace_back(*r_in_left, *l_in_right);
      return;
    }
  }
  residual->push_back(&on);
}

// Collects the column references of `e`; returns false when the expression
// contains a subquery (whose correlated references are invisible here).
bool CollectRefsNoSubquery(const Expr& e, std::vector<const Expr*>* refs) {
  if (e.subquery != nullptr) return false;
  if (e.kind == ExprKind::kColumnRef) {
    refs->push_back(&e);
    return true;
  }
  auto walk = [&](const ExprPtr& p) {
    return p == nullptr || CollectRefsNoSubquery(*p, refs);
  };
  if (!walk(e.left) || !walk(e.right) || !walk(e.lo) || !walk(e.hi) ||
      !walk(e.case_else)) {
    return false;
  }
  for (const auto& a : e.args) {
    if (!CollectRefsNoSubquery(*a, refs)) return false;
  }
  for (const auto& item : e.in_list) {
    if (!CollectRefsNoSubquery(*item, refs)) return false;
  }
  for (const auto& cw : e.case_whens) {
    if (!CollectRefsNoSubquery(*cw.when, refs) ||
        !CollectRefsNoSubquery(*cw.then, refs)) {
      return false;
    }
  }
  return true;
}

std::vector<SelectItem> CloneItems(const std::vector<SelectItem>& items) {
  std::vector<SelectItem> out;
  out.reserve(items.size());
  for (const auto& item : items) out.push_back({item.expr->Clone(), item.alias});
  return out;
}

std::vector<OrderItem> CloneOrder(const std::vector<OrderItem>& order_by) {
  std::vector<OrderItem> out;
  out.reserve(order_by.size());
  for (const auto& oi : order_by) out.push_back({oi.expr->Clone(), oi.ascending});
  return out;
}

// Collects distinct aggregate calls in an expression tree.
void CollectAggregates(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFunction && IsAggregateFunction(e.function_name)) {
    for (const Expr* seen : *out) {
      if (ExprStructurallyEqual(*seen, e)) return;
    }
    out->push_back(&e);
    return;  // aggregates cannot nest
  }
  auto walk = [&](const ExprPtr& p) {
    if (p) CollectAggregates(*p, out);
  };
  walk(e.left);
  walk(e.right);
  walk(e.lo);
  walk(e.hi);
  walk(e.case_else);
  for (const auto& a : e.args) CollectAggregates(*a, out);
  for (const auto& item : e.in_list) CollectAggregates(*item, out);
  for (const auto& cw : e.case_whens) {
    CollectAggregates(*cw.when, out);
    CollectAggregates(*cw.then, out);
  }
}

// Rewrites `e`, replacing group-by expressions and aggregate calls with
// references into the synthetic per-group schema.
ExprPtr RewriteForGroups(const Expr& e, const std::vector<ExprPtr>& group_by,
                         const std::vector<std::string>& group_names,
                         const std::vector<const Expr*>& aggs,
                         const std::vector<std::string>& agg_names) {
  for (size_t i = 0; i < group_by.size(); ++i) {
    if (ExprStructurallyEqual(*group_by[i], e)) {
      return Expr::MakeColumn("", group_names[i]);
    }
  }
  for (size_t j = 0; j < aggs.size(); ++j) {
    if (ExprStructurallyEqual(*aggs[j], e)) {
      return Expr::MakeColumn("", agg_names[j]);
    }
  }
  ExprPtr out = e.Clone();
  auto rewrite = [&](ExprPtr& p) {
    if (p) p = RewriteForGroups(*p, group_by, group_names, aggs, agg_names);
  };
  rewrite(out->left);
  rewrite(out->right);
  rewrite(out->lo);
  rewrite(out->hi);
  rewrite(out->case_else);
  for (auto& a : out->args) {
    a = RewriteForGroups(*a, group_by, group_names, aggs, agg_names);
  }
  for (auto& item : out->in_list) {
    item = RewriteForGroups(*item, group_by, group_names, aggs, agg_names);
  }
  for (auto& cw : out->case_whens) {
    cw.when = RewriteForGroups(*cw.when, group_by, group_names, aggs, agg_names);
    cw.then = RewriteForGroups(*cw.then, group_by, group_names, aggs, agg_names);
  }
  return out;
}

}  // namespace

bool RefContainsSubquery(const TableRef& tr) {
  switch (tr.kind) {
    case TableRef::Kind::kTable:
      return false;
    case TableRef::Kind::kSubquery:
      return true;
    case TableRef::Kind::kJoin:
      return RefContainsSubquery(*tr.join_left) ||
             RefContainsSubquery(*tr.join_right);
  }
  return true;
}

// ===========================================================================
// SELECT planning
// ===========================================================================

Planner::Planner(StatementScope* scope)
    : scope_(scope), executor_(scope->executor()) {}

Result<OperatorPtr> Planner::PlanSelect(
    const SelectStmt& select, const EvalContext* outer,
    const std::unordered_set<std::string>* keep_names) {
  if (select.IsPreferenceQuery()) {
    return Status::InvalidArgument(
        "PREFERRING queries must go through the Preference SQL layer "
        "(prefsql::Connection), not the plain engine");
  }

  OperatorPtr input;
  if (select.from.empty()) {
    // SELECT <exprs>: one synthetic empty row.
    input = std::make_unique<OneRowOperator>();
    if (select.where != nullptr) {
      input = std::make_unique<FilterOperator>(
          std::move(input), select.where.get(), outer, scope_);
    }
  } else {
    PSQL_ASSIGN_OR_RETURN(input,
                          PlanFromWhere(select, outer, /*count_stats=*/true));
    bool has_aggregates =
        !select.group_by.empty() || select.having != nullptr;
    if (!has_aggregates) {
      for (const auto& item : select.items) {
        if (ContainsAggregate(*item.expr)) {
          has_aggregates = true;
          break;
        }
      }
    }
    if (has_aggregates) {
      return PlanAggregate(select, std::move(input), outer);
    }
  }
  return PlanTail(CloneItems(select.items), select.distinct,
                  CloneOrder(select.order_by), select.limit, select.offset,
                  std::move(input), outer, keep_names);
}

Result<OperatorPtr> Planner::PlanCandidates(const SelectStmt& select,
                                            const EvalContext* outer,
                                            bool count_stats,
                                            const PreferencePushdown* pushdown,
                                            PushdownReport* report) {
  if (select.from.empty()) {
    return Status::InvalidArgument("preference query requires a FROM clause");
  }
  if (pushdown != nullptr) {
    PSQL_ASSIGN_OR_RETURN(
        auto pushed,
        TryPlanPushdown(select, outer, count_stats, *pushdown, report));
    if (pushed) return std::move(*pushed);
  }
  return PlanFromWhere(select, outer, count_stats);
}

// ===========================================================================
// FROM / WHERE (access paths)
// ===========================================================================

Result<OperatorPtr> Planner::PlanTableRef(const TableRef& tr,
                                          const EvalContext* outer) {
  switch (tr.kind) {
    case TableRef::Kind::kTable: {
      std::string visible = tr.alias.empty() ? tr.table_name : tr.alias;
      if (Table* table = ScannedTable(tr)) {
        return PlanHeapScan(*table, table->schema().WithQualifier(visible));
      }
      if (scope_->HasLocalView(tr.table_name) ||
          executor_->catalog()->HasView(tr.table_name)) {
        PSQL_ASSIGN_OR_RETURN(auto materialized,
                              scope_->MaterializeView(tr.table_name));
        return OperatorPtr(std::make_unique<SeqScanOperator>(
            materialized->schema().WithQualifier(visible),
            &materialized->rows(), materialized));
      }
      return Status::NotFound("no table or view '" + tr.table_name + "'");
    }
    case TableRef::Kind::kSubquery: {
      PSQL_ASSIGN_OR_RETURN(ResultTable rt,
                            scope_->RunSubquery(*tr.subquery, outer));
      Schema schema = rt.schema().WithQualifier(tr.alias);
      return OperatorPtr(std::make_unique<SeqScanOperator>(std::move(schema),
                                                           std::move(rt)));
    }
    case TableRef::Kind::kJoin:
      return PlanJoin(tr, outer);
  }
  return Status::Internal("unreachable table ref kind");
}

Table* Planner::ScannedTable(const TableRef& tr) {
  if (tr.kind != TableRef::Kind::kTable ||
      scope_->HasLocalView(tr.table_name)) {
    return nullptr;
  }
  auto table = executor_->catalog()->GetTable(tr.table_name);
  return table.ok() ? *table : nullptr;
}

OperatorPtr Planner::PlanTableScan(const Table& table, Schema schema,
                                   const Expr* where,
                                   const EvalContext* outer,
                                   bool count_stats) {
  if (where == nullptr) return PlanHeapScan(table, std::move(schema));
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(*where, &conjuncts);
  auto slots = TryIndexPositions(table, schema, conjuncts);
  if (count_stats) executor_->CountScan(/*used_index=*/slots.has_value());
  OperatorPtr scan =
      PlanHeapScan(table, std::move(schema), &conjuncts, std::move(slots));
  if (conjuncts.empty()) return scan;
  return std::make_unique<FilterOperator>(std::move(scan), conjuncts, outer,
                                          scope_);
}

OperatorPtr Planner::PlanHeapScan(const Table& table, Schema schema,
                                  std::vector<const Expr*>* conjuncts,
                                  std::optional<std::vector<size_t>> slots) {
  // Scan the version heap at the statement's snapshot.
  const uint64_t snap = AmbientSnapshotOr(table.epochs().current());
  if (slots) {
    // Index hits are candidates over all heap slots (dead versions and
    // slots beyond the snapshot's sealed heap size included); the scan's
    // visibility test drops them, and the filter re-applies the WHERE.
    std::sort(slots->begin(), slots->end());
    return std::make_unique<HeapScanOperator>(std::move(schema),
                                              &table.heap(), std::move(*slots),
                                              snap, executor_->mvcc_counters());
  }
  // The slot bound is the heap size that snapshot's table version sealed,
  // so rows a concurrent writer appends later are out of range by
  // construction.
  const size_t limit = table.HeapSizeAt(snap);
  std::vector<HeapScanOperator::CodedFilter> coded;
  if (conjuncts != nullptr) {
    std::vector<DirectConjunct> run;
    while (run.size() < conjuncts->size()) {
      auto direct = ClassifyDirect(*(*conjuncts)[run.size()], schema);
      if (!direct) break;
      run.push_back(*direct);
    }
    // Conjuncts on one column share a truth table (their AND). Those on a
    // refused column lead the remainder; direct conjuncts never raise, so
    // moving them keeps every row's answer and error.
    std::vector<const Expr*> rest;
    std::vector<bool> decided(run.size(), false);
    for (size_t i = 0; i < run.size(); ++i) {
      if (decided[i]) continue;
      const size_t col = run[i].col;
      auto test = [&](const Value& v) {
        for (const DirectConjunct& c : run) {
          if (c.col == col && !c.Test(v)) return false;
        }
        return true;
      };
      HeapScanOperator::CodedFilter f;
      f.codes = table.CodesFor(col, limit, test, &f.truth);
      for (size_t j = i; j < run.size(); ++j) {
        if (run[j].col != col) continue;
        decided[j] = true;
        if (f.codes == nullptr) rest.push_back((*conjuncts)[j]);
      }
      if (f.codes != nullptr) coded.push_back(std::move(f));
    }
    rest.insert(rest.end(), conjuncts->begin() + run.size(), conjuncts->end());
    *conjuncts = std::move(rest);
  }
  return std::make_unique<HeapScanOperator>(
      std::move(schema), &table.heap(), limit, snap,
      executor_->mvcc_counters(), std::move(coded));
}

Result<OperatorPtr> Planner::PlanJoin(const TableRef& tr,
                                      const EvalContext* outer) {
  PSQL_ASSIGN_OR_RETURN(OperatorPtr left, PlanTableRef(*tr.join_left, outer));
  PSQL_ASSIGN_OR_RETURN(OperatorPtr right,
                        PlanTableRef(*tr.join_right, outer));
  bool left_join = tr.join_type == TableRef::JoinType::kLeft;

  std::vector<std::pair<size_t, size_t>> keys;
  std::vector<const Expr*> residual;
  if (tr.join_on != nullptr) {
    ExtractEquiKeys(*tr.join_on, left->schema(), right->schema(), &keys,
                    &residual);
  }
  if (!keys.empty()) {
    std::vector<size_t> lcols, rcols;
    for (auto& [l, r] : keys) {
      lcols.push_back(l);
      rcols.push_back(r);
    }
    return OperatorPtr(std::make_unique<HashJoinOperator>(
        std::move(left), std::move(right), std::move(lcols), std::move(rcols),
        std::move(residual), left_join, outer, scope_));
  }
  return OperatorPtr(std::make_unique<NestedLoopJoinOperator>(
      std::move(left), std::move(right), tr.join_on.get(), left_join, outer,
      scope_));
}

Result<OperatorPtr> Planner::PlanFromWhere(const SelectStmt& select,
                                           const EvalContext* outer,
                                           bool count_stats) {
  if (select.from.size() == 1) {
    if (Table* table = ScannedTable(*select.from[0])) {
      const TableRef& tr = *select.from[0];
      return PlanTableScan(
          *table,
          table->schema().WithQualifier(tr.alias.empty() ? tr.table_name
                                                         : tr.alias),
          select.where.get(), outer, count_stats);
    }
  }

  // Left-deep cross-product chain over the FROM list (single-source FROMs
  // collapse to their scan/join tree).
  PSQL_ASSIGN_OR_RETURN(OperatorPtr acc, PlanTableRef(*select.from[0], outer));
  for (size_t i = 1; i < select.from.size(); ++i) {
    PSQL_ASSIGN_OR_RETURN(OperatorPtr next,
                          PlanTableRef(*select.from[i], outer));
    acc = std::make_unique<NestedLoopJoinOperator>(
        std::move(acc), std::move(next), nullptr, /*left_join=*/false, outer,
        scope_);
  }
  if (select.where == nullptr) return acc;
  if (count_stats) executor_->CountScan(/*used_index=*/false);
  return OperatorPtr(std::make_unique<FilterOperator>(
      std::move(acc), select.where.get(), outer, scope_));
}

// ===========================================================================
// Algebraic preference pushdown
// ===========================================================================

Result<std::optional<OperatorPtr>> Planner::TryPlanPushdown(
    const SelectStmt& select, const EvalContext* outer, bool count_stats,
    const PreferencePushdown& pushdown, PushdownReport* report) {
  auto reject = [&](const std::string& why) -> std::optional<OperatorPtr> {
    if (report != nullptr) {
      report->pushed = false;
      report->detail = "no pushdown: " + why;
    }
    return std::nullopt;
  };
  if (pushdown.make_prefilter == nullptr || pushdown.pref_columns.empty()) {
    return reject("no bindable preference columns");
  }
  if (select.from.size() != 1 ||
      select.from[0]->kind != TableRef::Kind::kJoin) {
    return reject("FROM is not a single join");
  }
  const TableRef& tr = *select.from[0];
  // Planning twice for a rejected attempt must stay side-effect free.
  if (RefContainsSubquery(tr)) {
    return reject("join side contains a subquery");
  }

  // Plan both sides (cheap: scans over tables/views only, checked above).
  PSQL_ASSIGN_OR_RETURN(OperatorPtr left, PlanTableRef(*tr.join_left, outer));
  PSQL_ASSIGN_OR_RETURN(OperatorPtr right,
                        PlanTableRef(*tr.join_right, outer));

  // 1. Every quality column must bind to exactly one side — and to neither
  //    side ambiguously, or the pre-filter and the BMO on top could resolve
  //    the same name differently.
  bool all_left = true, all_right = true;
  for (const auto& [q, c] : pushdown.pref_columns) {
    bool in_left = left->schema().TryResolve(q, c).has_value();
    bool in_right = right->schema().TryResolve(q, c).has_value();
    if (in_left && in_right) {
      return reject("quality column '" + c + "' binds to both join sides");
    }
    all_left &= in_left;
    all_right &= in_right;
  }
  if (!all_left && !all_right) {
    return reject("quality columns do not bind to a single join side");
  }
  const bool pref_on_left = all_left;
  const Schema& side_schema = pref_on_left ? left->schema() : right->schema();
  const Schema& other_schema = pref_on_left ? right->schema() : left->schema();

  // 2. Join shape. Equi-join with no residual conjuncts: tuples sharing the
  //    side's key columns have identical join fates, so a per-key-group
  //    dominance drop is exact. A cross join makes every fate identical.
  //    LEFT JOIN additionally requires the preference side to be preserved
  //    (the left side), or null-padding changes the fate argument.
  std::vector<std::pair<size_t, size_t>> keys;
  std::vector<size_t> partition_cols;
  const char* join_kind = "cross";
  bool left_join = tr.join_type == TableRef::JoinType::kLeft;
  if (tr.join_on != nullptr) {
    std::vector<const Expr*> residual;
    ExtractEquiKeys(*tr.join_on, left->schema(), right->schema(), &keys,
                    &residual);
    if (!residual.empty()) {
      return reject("join condition has non-equi conjuncts");
    }
    if (keys.empty()) return reject("join condition yields no equi keys");
    for (const auto& [l, r] : keys) {
      partition_cols.push_back(pref_on_left ? l : r);
    }
    join_kind = "hash";
  } else if (left_join) {
    return reject("LEFT JOIN without ON");
  }
  if (left_join && !pref_on_left) {
    return reject("preference side is not preserved by the LEFT JOIN");
  }

  // 3. GROUPING columns on the preference side further partition the
  //    pre-filter (per-group maxima must survive); other-side GROUPING
  //    columns never split same-fate side tuples.
  for (const std::string& g : pushdown.grouping) {
    bool in_side = side_schema.TryResolve("", g).has_value();
    bool in_other = other_schema.TryResolve("", g).has_value();
    if (in_side && in_other) {
      return reject("GROUPING column '" + g + "' binds to both join sides");
    }
    if (!in_side && !in_other) {
      return reject("GROUPING column '" + g + "' does not bind");
    }
    if (in_side) partition_cols.push_back(*side_schema.TryResolve("", g));
  }
  std::sort(partition_cols.begin(), partition_cols.end());
  partition_cols.erase(
      std::unique(partition_cols.begin(), partition_cols.end()),
      partition_cols.end());

  // 4. WHERE conjuncts must each bind wholly to one side. Pref-side
  //    conjuncts move below the pre-filter (a dominator filtered away later
  //    would make the drop of its victims unsound); the rest stays above
  //    the join. A conjunct straddling both sides rules the pushdown out.
  std::vector<const Expr*> below, above;
  if (select.where != nullptr) {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(*select.where, &conjuncts);
    for (const Expr* conjunct : conjuncts) {
      std::vector<const Expr*> refs;
      if (!CollectRefsNoSubquery(*conjunct, &refs)) {
        return reject("WHERE conjunct contains a subquery");
      }
      bool any_side = false, any_other = false;
      for (const Expr* ref : refs) {
        bool in_side =
            side_schema.TryResolve(ref->qualifier, ref->column).has_value();
        bool in_other =
            other_schema.TryResolve(ref->qualifier, ref->column).has_value();
        if (in_side && in_other) {
          return reject("WHERE column '" + ref->column +
                        "' binds to both join sides");
        }
        any_side |= in_side;
        any_other |= in_other;
        if (!in_side && !in_other) {
          return reject("WHERE column '" + ref->column + "' does not bind");
        }
      }
      if (any_side && any_other) {
        return reject("WHERE conjunct straddles the join");
      }
      (any_side ? below : above).push_back(conjunct);
    }
  }

  // Assemble: side scan -> [pref-side filter] -> semi-skyline pre-filter ->
  // join -> [remaining filter]. The BMO block on top (built by the caller)
  // re-runs the full dominance test, so the pre-filter only ever *reduces*
  // the candidate stream.
  auto conjunction = [](const std::vector<const Expr*>& parts) {
    std::vector<ExprPtr> clones;
    clones.reserve(parts.size());
    for (const Expr* p : parts) clones.push_back(p->Clone());
    return Expr::MakeConjunction(std::move(clones));
  };
  OperatorPtr side = pref_on_left ? std::move(left) : std::move(right);
  if (!below.empty()) {
    side = std::make_unique<FilterOperator>(std::move(side),
                                            conjunction(below), outer,
                                            scope_);
  }
  std::string detail = "pushdown: bmo prefilter below " +
                       std::string(join_kind) + " join, side=" +
                       (pref_on_left ? "left" : "right") + ", partition_cols=[";
  for (size_t i = 0; i < partition_cols.size(); ++i) {
    if (i > 0) detail += ",";
    detail += side_schema.column(partition_cols[i]).name;
  }
  detail += "]";
  if (!below.empty()) {
    detail += ", " + std::to_string(below.size()) + " conjunct(s) below";
  }
  side = pushdown.make_prefilter(std::move(side), std::move(partition_cols));

  OperatorPtr op;
  if (pref_on_left) {
    left = std::move(side);
  } else {
    right = std::move(side);
  }
  if (!keys.empty()) {
    std::vector<size_t> lcols, rcols;
    for (auto& [l, r] : keys) {
      lcols.push_back(l);
      rcols.push_back(r);
    }
    op = std::make_unique<HashJoinOperator>(
        std::move(left), std::move(right), std::move(lcols), std::move(rcols),
        std::vector<const Expr*>{}, left_join, outer, scope_);
  } else {
    op = std::make_unique<NestedLoopJoinOperator>(
        std::move(left), std::move(right), nullptr, /*left_join=*/false,
        outer, scope_);
  }
  if (!above.empty()) {
    op = std::make_unique<FilterOperator>(std::move(op), conjunction(above),
                                          outer, scope_);
  }
  // Mirror PlanFromWhere: a WHERE-driven scan counts once, never indexed.
  if (count_stats && select.where != nullptr) {
    executor_->CountScan(/*used_index=*/false);
  }
  if (report != nullptr) {
    report->pushed = true;
    report->detail = std::move(detail);
  }
  return std::optional<OperatorPtr>(std::move(op));
}

std::optional<std::vector<size_t>> Planner::TryIndexPositions(
    const Table& table, const Schema& schema,
    const std::vector<const Expr*>& conjuncts) {
  std::vector<Index*> indexes = executor_->catalog()->IndexesOn(table.name());
  if (indexes.empty()) return std::nullopt;
  // Per column: an equality literal, and inclusive over-approximated range
  // bounds. The filter above the scan re-applies the WHERE, so widening
  // (inclusive bounds, ignored conjuncts) is safe.
  struct Bounds {
    const Value* eq = nullptr;
    const Value* lo = nullptr;
    const Value* hi = nullptr;
  };
  std::vector<Bounds> bounds(schema.num_columns());
  auto tighten_lo = [](Bounds& b, const Value* v) {
    if (b.lo == nullptr || Value::Compare(*v, *b.lo) > 0) b.lo = v;
  };
  auto tighten_hi = [](Bounds& b, const Value* v) {
    if (b.hi == nullptr || Value::Compare(*v, *b.hi) < 0) b.hi = v;
  };
  auto literal = [](const ExprPtr& e) -> const Value* {
    bool usable = e != nullptr && e->kind == ExprKind::kLiteral &&
                  !e->literal.is_param() && Index::UsableBound(e->literal);
    return usable ? &e->literal : nullptr;
  };
  for (const Expr* e : conjuncts) {
    if (auto c = ClassifyDirect(*e, schema)) {
      if (c->kind != DirectConjunct::Kind::kColOpLit ||
          !Index::UsableBound(*c->lit)) {
        continue;
      }
      Bounds& b = bounds[c->col];
      switch (c->op) {
        case BinaryOp::kEq:
          if (b.eq == nullptr) b.eq = c->lit;
          break;
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          tighten_lo(b, c->lit);
          break;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
          tighten_hi(b, c->lit);
          break;
        default:
          break;
      }
      continue;
    }
    // The one range source beyond the direct conjuncts: a non-negated
    // BETWEEN with literal bounds.
    size_t col;
    if (e->kind == ExprKind::kBetween && !e->negated && e->left != nullptr &&
        e->left->kind == ExprKind::kColumnRef &&
        schema.ResolveScoped(e->left->qualifier, e->left->column, &col) ==
            Schema::ResolveOutcome::kFound) {
      if (const Value* lo = literal(e->lo)) tighten_lo(bounds[col], lo);
      if (const Value* hi = literal(e->hi)) tighten_hi(bounds[col], hi);
    }
  }

  // 1) Equality path: the index with the most key columns fully covered by
  //    `column = literal` conjuncts ("having the right indices available",
  //    §3.2).
  Index* best = nullptr;
  for (Index* idx : indexes) {
    bool covered = true;
    for (size_t key_col : idx->key_columns()) {
      covered &= bounds[key_col].eq != nullptr;
    }
    if (covered && (best == nullptr || idx->key_columns().size() >
                                           best->key_columns().size())) {
      best = idx;
    }
  }
  if (best != nullptr) {
    Row key;
    for (size_t key_col : best->key_columns()) {
      key.push_back(*bounds[key_col].eq);
    }
    return best->Lookup(key);
  }

  // 2) Range path: a single-column index whose column has at least one
  //    comparison/BETWEEN bound. Prefer both-sided ranges; tie-break by
  //    index name for determinism.
  Index* best_range = nullptr;
  int best_sides = 0;
  for (Index* idx : indexes) {
    if (idx->key_columns().size() != 1) continue;
    const Bounds& b = bounds[idx->key_columns()[0]];
    int sides = (b.lo != nullptr ? 1 : 0) + (b.hi != nullptr ? 1 : 0);
    if (sides == 0) continue;
    if (sides > best_sides ||
        (sides == best_sides && idx->name() < best_range->name())) {
      best_range = idx;
      best_sides = sides;
    }
  }
  if (best_range == nullptr) return std::nullopt;
  const Bounds& b = bounds[best_range->key_columns()[0]];
  return best_range->RangeLookupBounds(b.lo, b.hi);
}

// ===========================================================================
// Projection tail
// ===========================================================================

Result<OperatorPtr> Planner::PlanTail(
    std::vector<SelectItem> items, bool distinct,
    std::vector<OrderItem> order_by, std::optional<int64_t> limit,
    std::optional<int64_t> offset, OperatorPtr child, const EvalContext* outer,
    const std::unordered_set<std::string>* keep_names) {
  const Schema& in_schema = child->schema();

  // Expand stars and derive the output schema.
  std::vector<ExprPtr> exprs;
  std::vector<ColumnInfo> out_cols;
  for (size_t i = 0; i < items.size(); ++i) {
    Expr& e = *items[i].expr;
    if (e.kind == ExprKind::kStar) {
      for (size_t c = 0; c < in_schema.num_columns(); ++c) {
        const ColumnInfo& ci = in_schema.column(c);
        if (!e.qualifier.empty() &&
            !EqualsIgnoreCase(e.qualifier, ci.qualifier)) {
          continue;
        }
        exprs.push_back(Expr::MakeColumn(ci.qualifier, ci.name));
        out_cols.push_back({"", ci.name});
      }
      continue;
    }
    std::string name =
        !items[i].alias.empty() ? items[i].alias : DeriveColumnName(e, i);
    exprs.push_back(std::move(items[i].expr));
    out_cols.push_back({"", std::move(name)});
  }
  if (out_cols.empty()) {
    return Status::InvalidArgument("empty select list");
  }
  if (keep_names != nullptr && !distinct && order_by.empty()) {
    // ORDER BY ordinals count the select list, so it stays whole there.
    // When no column is named, nothing moved and the first one stays.
    size_t kept = 0;
    for (size_t i = 0; i < exprs.size(); ++i) {
      const Expr& e = *exprs[i];
      size_t idx = 0;
      if (e.kind == ExprKind::kColumnRef &&
          in_schema.ResolveScoped(e.qualifier, e.column, &idx) ==
              Schema::ResolveOutcome::kFound &&
          keep_names->count(ToLower(out_cols[i].name)) == 0) {
        continue;
      }
      if (kept != i) {
        exprs[kept] = std::move(exprs[i]);
        out_cols[kept] = std::move(out_cols[i]);
      }
      ++kept;
    }
    exprs.resize(std::max<size_t>(kept, 1));
    out_cols.resize(exprs.size());
  }
  size_t n_visible = out_cols.size();
  Schema visible_schema(out_cols);

  // ORDER BY keys resolve against the output columns (ordinals, aliases)
  // or, failing that, become hidden key columns computed from the input row.
  std::vector<SortKey> sort_keys;
  std::vector<ColumnInfo> all_cols = std::move(out_cols);
  for (size_t k = 0; k < order_by.size(); ++k) {
    const Expr& e = *order_by[k].expr;
    bool asc = order_by[k].ascending;
    // ORDER BY <ordinal>.
    if (e.kind == ExprKind::kLiteral && e.literal.type() == ValueType::kInt) {
      int64_t ord = e.literal.AsInt();
      if (ord < 1 || ord > static_cast<int64_t>(n_visible)) {
        return Status::InvalidArgument("ORDER BY position out of range");
      }
      sort_keys.push_back({static_cast<size_t>(ord - 1), asc});
      continue;
    }
    // ORDER BY <output column / alias>.
    if (e.kind == ExprKind::kColumnRef && e.qualifier.empty()) {
      if (auto pos = visible_schema.TryResolve("", e.column)) {
        sort_keys.push_back({*pos, asc});
        continue;
      }
    }
    // General expression: hidden key column evaluated on the input row.
    // Under DISTINCT this computes the key once per input row rather than
    // once per surviving row — identical results; revisit if a hot query
    // ever pairs DISTINCT with an expensive ORDER BY expression.
    sort_keys.push_back({exprs.size(), asc});
    exprs.push_back(std::move(order_by[k].expr));
    all_cols.push_back({"", "$ord" + std::to_string(k)});
  }
  bool has_hidden = all_cols.size() > n_visible;

  OperatorPtr op = std::make_unique<ProjectOperator>(
      std::move(child), Schema(std::move(all_cols)), std::move(exprs), outer,
      scope_);
  if (distinct) {
    op = std::make_unique<DistinctOperator>(std::move(op), n_visible);
  }
  if (!sort_keys.empty()) {
    op = std::make_unique<SortOperator>(std::move(op), std::move(sort_keys));
  }
  std::optional<int64_t> lim =
      limit && *limit >= 0 ? limit : std::optional<int64_t>();
  std::optional<int64_t> off =
      offset && *offset > 0 ? offset : std::optional<int64_t>();
  if (lim || off) {
    op = std::make_unique<LimitOperator>(std::move(op), lim, off);
  }
  if (has_hidden) {
    op = std::make_unique<PrefixOperator>(std::move(op),
                                          std::move(visible_schema));
  }
  return op;
}

// ===========================================================================
// GROUP BY / aggregation
// ===========================================================================

Result<OperatorPtr> Planner::PlanAggregate(const SelectStmt& select,
                                           OperatorPtr input,
                                           const EvalContext* outer) {
  for (const auto& item : select.items) {
    if (item.expr->kind == ExprKind::kStar) {
      return Status::InvalidArgument("SELECT * cannot be used with GROUP BY");
    }
  }

  // Gather aggregate calls across items, HAVING and ORDER BY.
  std::vector<const Expr*> aggs;
  for (const auto& item : select.items) CollectAggregates(*item.expr, &aggs);
  if (select.having) CollectAggregates(*select.having, &aggs);
  for (const auto& oi : select.order_by) CollectAggregates(*oi.expr, &aggs);

  std::vector<AggregateKind> agg_kinds;
  for (const Expr* a : aggs) {
    bool star = !a->args.empty() && a->args[0]->kind == ExprKind::kStar;
    if (a->args.size() != 1) {
      return Status::InvalidArgument("aggregate " + a->function_name +
                                     " expects exactly one argument");
    }
    PSQL_ASSIGN_OR_RETURN(AggregateKind kind,
                          AggregateKindFromName(a->function_name, star));
    agg_kinds.push_back(kind);
  }

  // Synthetic per-group relation: group key columns, then aggregates.
  std::vector<std::string> group_names, agg_names;
  std::vector<ColumnInfo> cols;
  std::vector<const Expr*> group_ptrs;
  for (size_t i = 0; i < select.group_by.size(); ++i) {
    std::string name;
    if (select.group_by[i]->kind == ExprKind::kColumnRef) {
      name = select.group_by[i]->column;
    } else {
      name = "$g" + std::to_string(i);
    }
    group_names.push_back(name);
    cols.push_back({"", name});
    group_ptrs.push_back(select.group_by[i].get());
  }
  for (size_t j = 0; j < aggs.size(); ++j) {
    agg_names.push_back("$a" + std::to_string(j));
    cols.push_back({"", agg_names.back()});
  }

  OperatorPtr op = std::make_unique<AggregateOperator>(
      std::move(input), Schema(std::move(cols)), std::move(group_ptrs), aggs,
      agg_kinds, outer, scope_);

  if (select.having != nullptr) {
    ExprPtr having = RewriteForGroups(*select.having, select.group_by,
                                      group_names, aggs, agg_names);
    op = std::make_unique<FilterOperator>(std::move(op), std::move(having),
                                          outer, scope_);
  }

  // Rewrite items / ORDER BY against the synthetic schema.
  std::vector<SelectItem> items;
  for (size_t i = 0; i < select.items.size(); ++i) {
    const auto& item = select.items[i];
    SelectItem out;
    out.expr = RewriteForGroups(*item.expr, select.group_by, group_names,
                                aggs, agg_names);
    out.alias =
        !item.alias.empty() ? item.alias : DeriveColumnName(*item.expr, i);
    items.push_back(std::move(out));
  }
  std::vector<OrderItem> order_by;
  for (const auto& oi : select.order_by) {
    order_by.push_back({RewriteForGroups(*oi.expr, select.group_by,
                                         group_names, aggs, agg_names),
                        oi.ascending});
  }

  return PlanTail(std::move(items), select.distinct, std::move(order_by),
                  select.limit, select.offset, std::move(op), outer);
}

}  // namespace prefsql
