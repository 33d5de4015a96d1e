#include "engine/executor.h"

#include <algorithm>
#include <functional>

#include "core/query_context.h"
#include "engine/planner.h"
#include "util/failpoint.h"
#include "util/memory_budget.h"
#include "util/string_util.h"

namespace prefsql {

// ===========================================================================
// Statement dispatch
// ===========================================================================

void Executor::BeginDml(DmlEffect::Kind kind, const std::string& name,
                        const Table& table) {
  last_dml_ = DmlEffect{kind, table.id(), name};
}

Result<ResultTable> Executor::ExecuteStatement(const Statement& stmt) {
  last_dml_ = DmlEffect{};
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(*stmt.select);
    case StatementKind::kCreateTable: {
      PSQL_RETURN_IF_ERROR(
          catalog_->CreateTable(stmt.name, stmt.columns, stmt.if_not_exists));
      return ResultTable();
    }
    case StatementKind::kCreateView: {
      PSQL_RETURN_IF_ERROR(catalog_->CreateView(stmt.name, stmt.select));
      return ResultTable();
    }
    case StatementKind::kCreateIndex: {
      PSQL_RETURN_IF_ERROR(
          catalog_->CreateIndex(stmt.name, stmt.on_table, stmt.index_columns));
      return ResultTable();
    }
    case StatementKind::kCreatePreference: {
      // Expand nested PREFERENCE references at definition time so stored
      // bodies are self-contained (snapshot semantics; cycles impossible).
      // The expansion lives in the core layer; here we only store the body
      // verbatim — Database-level users get the same semantics because the
      // body cannot reference itself (the name does not exist yet).
      PSQL_RETURN_IF_ERROR(
          catalog_->CreatePreference(stmt.name, stmt.preference->Clone()));
      return ResultTable();
    }
    case StatementKind::kExplain:
      return Status::InvalidArgument(
          "EXPLAIN is handled by the Preference SQL layer "
          "(prefsql::Connection)");
    case StatementKind::kSet:
      return Status::InvalidArgument(
          "SET is handled by the Preference SQL layer "
          "(prefsql::Connection)");
    case StatementKind::kInsert:
      return ExecuteInsert(stmt);
    case StatementKind::kUpdate:
      return ExecuteUpdate(stmt);
    case StatementKind::kDelete:
      return ExecuteDelete(stmt);
    case StatementKind::kDrop: {
      PSQL_RETURN_IF_ERROR(
          catalog_->Drop(stmt.drop_kind, stmt.name, stmt.if_exists));
      return ResultTable();
    }
  }
  return Status::Internal("unreachable statement kind");
}

// ===========================================================================
// SELECT facade over the operator pipeline
// ===========================================================================

namespace {

// The root of a top-level plan: owns the statement's scope, declared before
// the tree so every operator (and the probe plans and view rows they hold)
// is gone before the scope is.
class ScopedPlanOperator final : public PhysicalOperator {
 public:
  ScopedPlanOperator(std::unique_ptr<StatementScope> scope, OperatorPtr child)
      : scope_(std::move(scope)), child_(std::move(child)) {}

  const Schema& schema() const override { return child_->schema(); }
  Status Open() override { return child_->Open(); }
  Result<bool> NextBatch(RowBatch* out) override {
    return child_->NextBatch(out);
  }
  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<StatementScope> scope_;
  OperatorPtr child_;
};

}  // namespace

Result<ResultTable> Executor::ExecuteSelect(const SelectStmt& select,
                                            LocalViews local_views) {
  PSQL_ASSIGN_OR_RETURN(OperatorPtr plan,
                        PlanSelectOperator(select, std::move(local_views)));
  return DrainToTable(*plan);
}

Result<OperatorPtr> Executor::PlanSelectOperator(const SelectStmt& select,
                                                 LocalViews local_views) {
  auto scope = std::make_unique<StatementScope>(this, std::move(local_views),
                                                &select);
  Planner planner(scope.get());
  PSQL_ASSIGN_OR_RETURN(OperatorPtr plan, planner.PlanSelect(select, nullptr));
  return OperatorPtr(
      std::make_unique<ScopedPlanOperator>(std::move(scope), std::move(plan)));
}

Result<ResultTable> Executor::MaterializeCandidates(const SelectStmt& select) {
  StatementScope scope(this);
  Planner planner(&scope);
  PSQL_ASSIGN_OR_RETURN(OperatorPtr plan,
                        planner.PlanCandidates(select, nullptr));
  return DrainToTable(*plan);
}

// ===========================================================================
// Statement scope: views and subqueries
// ===========================================================================

StatementScope::StatementScope(Executor* executor, LocalViews local_views,
                               const SelectStmt* root)
    : executor_(executor), root_(root) {
  for (auto& [name, def] : local_views) {
    local_views_[ToLower(name)] = std::move(def);
  }
}

StatementScope::~StatementScope() {
  if (probe_runs_ > 0 || probe_plans_ > 0) {
    executor_->CountProbes(probe_runs_, probe_plans_);
  }
}

bool StatementScope::HasLocalView(const std::string& name) const {
  return local_views_.count(ToLower(name)) > 0;
}

Result<std::shared_ptr<const SelectStmt>> StatementScope::ViewDefinition(
    const std::string& name) const {
  if (auto local = local_views_.find(ToLower(name));
      local != local_views_.end()) {
    return local->second;
  }
  PSQL_ASSIGN_OR_RETURN(std::shared_ptr<const SelectStmt> def,
                        executor_->catalog()->GetView(name));
  return def;
}

namespace {

// Walks a statement for StatementScope::ViewColumnUse: every column name it
// mentions, and the views a select-list `*` reaches. The views it reads are
// walked too (once each), so what one view reads of another counts.
class ViewUseCollector {
 public:
  using Lookup =
      std::function<std::shared_ptr<const SelectStmt>(const std::string&)>;

  ViewUseCollector(std::unordered_set<std::string>* names,
                   std::unordered_set<std::string>* whole, Lookup view)
      : names_(names), whole_(whole), view_(std::move(view)) {}

  void Select(const SelectStmt& s) {
    bool star = false;
    for (const auto& item : s.items) star |= item.expr->kind == ExprKind::kStar;
    for (const auto& tr : s.from) Ref(*tr, star);
    for (const auto& item : s.items) Walk(item.expr.get());
    Walk(s.where.get());
    for (const auto& g : s.group_by) Walk(g.get());
    Walk(s.having.get());
    for (const auto& oi : s.order_by) Walk(oi.expr.get());
  }

 private:
  void Ref(const TableRef& tr, bool star) {
    switch (tr.kind) {
      case TableRef::Kind::kTable: {
        std::string key = ToLower(tr.table_name);
        if (star) whole_->insert(key);
        if (!walked_.insert(key).second) return;
        if (auto def = view_(key)) Select(*def);
        return;
      }
      case TableRef::Kind::kSubquery:
        Select(*tr.subquery);
        return;
      case TableRef::Kind::kJoin:
        Ref(*tr.join_left, star);
        Ref(*tr.join_right, star);
        Walk(tr.join_on.get());
        return;
    }
  }

  void Walk(const Expr* e) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kColumnRef) names_->insert(ToLower(e->column));
    if (e->subquery != nullptr) Select(*e->subquery);
    Walk(e->left.get());
    Walk(e->right.get());
    Walk(e->lo.get());
    Walk(e->hi.get());
    Walk(e->case_else.get());
    for (const auto& a : e->args) Walk(a.get());
    for (const auto& item : e->in_list) Walk(item.get());
    for (const auto& cw : e->case_whens) {
      Walk(cw.when.get());
      Walk(cw.then.get());
    }
  }

  std::unordered_set<std::string>* names_;
  std::unordered_set<std::string>* whole_;
  Lookup view_;
  std::unordered_set<std::string> walked_;
};

}  // namespace

Result<std::shared_ptr<ResultTable>> StatementScope::MaterializeView(
    const std::string& name) {
  std::string key = ToLower(name);
  auto it = views_.find(key);
  if (it != views_.end()) return it->second;
  PSQL_ASSIGN_OR_RETURN(std::shared_ptr<const SelectStmt> def,
                        ViewDefinition(name));
  const std::unordered_set<std::string>* keep = nullptr;
  if (root_ != nullptr) {
    if (!view_use_) {
      view_use_.emplace();
      ViewUseCollector collector(
          &view_use_->names, &view_use_->whole,
          [&](const std::string& view) -> std::shared_ptr<const SelectStmt> {
            auto found = ViewDefinition(view);
            return found.ok() ? *found : nullptr;
          });
      collector.Select(*root_);
    }
    if (view_use_->whole.count(key) == 0) keep = &view_use_->names;
  }
  Planner planner(this);
  PSQL_ASSIGN_OR_RETURN(OperatorPtr plan,
                        planner.PlanSelect(*def, nullptr, keep));
  PSQL_ASSIGN_OR_RETURN(ResultTable rt, DrainToTable(*plan));
  auto materialized = std::make_shared<ResultTable>(std::move(rt));
  views_[key] = materialized;
  return materialized;
}

Result<ResultTable> StatementScope::RunSubquery(const SelectStmt& select,
                                                const EvalContext* outer) {
  Planner planner(this);
  PSQL_ASSIGN_OR_RETURN(OperatorPtr plan, planner.PlanSelect(select, outer));
  return DrainToTable(*plan);
}

namespace {

// A plain SELECT (no grouping/limit machinery) can stop at the first row the
// streamed FROM/WHERE pipeline produces. This is what makes the rewritten
// NOT EXISTS dominance query tractable (§3.2).
bool IsPlainProbe(const SelectStmt& select) {
  if (!select.group_by.empty() || select.having != nullptr || select.limit ||
      select.offset || select.preferring || select.from.empty()) {
    return false;
  }
  for (const auto& item : select.items) {
    if (item.expr->kind != ExprKind::kStar && ContainsAggregate(*item.expr)) {
      return false;
    }
  }
  return true;
}

// Pulls one row through a planned probe. A 1-row target: the filter above
// the scan decides its leading direct conjuncts over child batches that
// grow while they keep nothing, and evaluates the rest only until its first
// match, so the probe stops there instead of testing a whole batch. Scan
// counters stay untouched (probes would drown the per-statement counts).
Result<bool> PullFirstRow(PhysicalOperator& plan, RowBatch* batch) {
  Status open = plan.Open();
  if (!open.ok()) {
    plan.Close();
    return open;
  }
  batch->capacity = 1;
  auto more = plan.NextBatch(batch);
  plan.Close();
  return more;
}

// An EXISTS probe planned once per statement. Its plan reads the outer row
// through `scope_`, which each run points at the current outer row before
// re-opening the plan.
class RetainedExistsProbe final : public ExistsProbe {
 public:
  RetainedExistsProbe(StatementScope* statement, const EvalContext& outer)
      : statement_(statement), scope_(outer) {}

  Status Plan(const SelectStmt& select) {
    Planner planner(statement_);
    PSQL_ASSIGN_OR_RETURN(plan_, planner.PlanCandidates(
                                     select, &scope_, /*count_stats=*/false));
    return Status::OK();
  }

  Result<bool> Run(const EvalContext& outer) override {
    statement_->CountProbeRun();
    scope_.row = outer.row;
    return PullFirstRow(*plan_, &batch_);
  }

 private:
  StatementScope* statement_;
  EvalContext scope_;
  OperatorPtr plan_;
  RowBatch batch_;
};

}  // namespace

Result<bool> StatementScope::SubqueryExists(const SelectStmt& select,
                                            const EvalContext* outer) {
  ++probe_runs_;
  ++probe_plans_;
  if (!IsPlainProbe(select)) {
    PSQL_ASSIGN_OR_RETURN(ResultTable rt, RunSubquery(select, outer));
    return rt.num_rows() > 0;
  }
  Planner planner(this);
  PSQL_ASSIGN_OR_RETURN(
      OperatorPtr plan,
      planner.PlanCandidates(select, outer, /*count_stats=*/false));
  RowBatch batch;
  return PullFirstRow(*plan, &batch);
}

Result<std::unique_ptr<ExistsProbe>> StatementScope::PlanExistsProbe(
    const SelectStmt& select, const EvalContext& outer) {
  if (!IsPlainProbe(select)) return std::unique_ptr<ExistsProbe>();
  for (const auto& tr : select.from) {
    if (RefContainsSubquery(*tr)) return std::unique_ptr<ExistsProbe>();
  }
  auto probe = std::make_unique<RetainedExistsProbe>(this, outer);
  PSQL_RETURN_IF_ERROR(probe->Plan(select));
  ++probe_plans_;
  return std::unique_ptr<ExistsProbe>(std::move(probe));
}

// ===========================================================================
// DML
// ===========================================================================
//
// A DML statement computes every change before it stamps any: the rows to
// insert, coerced; the target slots of UPDATE and DELETE, read through the
// planner's base-table scan; the replacement rows of UPDATE, evaluated and
// coerced. An error, an interrupt or the budget therefore fails the
// statement with the table unchanged — no stamp, no seal, no version bump.

namespace {

// One DML statement = one commit epoch: allocates it, stamps every change
// with it (`stamp`), then seals the table version and publishes the epoch,
// so readers see all of the statement or none. A statement that changes
// no row never calls this and seals nothing.
void CommitDml(Table* table,
               const std::function<void(uint64_t epoch)>& stamp) {
  const uint64_t epoch = table->epochs().BeginWrite();
  stamp(epoch);
  // Fault-injection site (delay-only): stretches the window between the
  // last stamped change and the epoch becoming visible, the exact interval
  // concurrent readers must tolerate.
  PSQL_FAILPOINT("epoch_publish");
  table->SealVersion(epoch);
  table->epochs().Publish(epoch);
}

ResultTable RowsAffected(size_t n) {
  return ResultTable(Schema::FromNames({"rows_affected"}),
                     {Row{Value::Int(static_cast<int64_t>(n))}});
}

}  // namespace

Result<ResultTable> Executor::InsertTable(const std::string& table,
                                          const std::vector<std::string>& columns,
                                          const ResultTable& data) {
  PSQL_ASSIGN_OR_RETURN(Table * target, catalog_->GetTable(table));
  return InsertRows(target, table, columns, data.rows());
}

Result<ResultTable> Executor::InsertRows(Table* table, const std::string& name,
                                         const std::vector<std::string>& columns,
                                         std::vector<Row> values) {
  BeginDml(DmlEffect::Kind::kInsert, name, *table);
  std::vector<size_t> positions;
  if (columns.empty()) {
    for (size_t i = 0; i < table->columns().size(); ++i) positions.push_back(i);
  } else {
    for (const auto& c : columns) {
      PSQL_ASSIGN_OR_RETURN(size_t idx, table->ColumnIndex(c));
      positions.push_back(idx);
    }
  }
  // Cooperative interrupt + RowHeap-growth accounting; the budget bounds
  // one statement's ingest spike and releases when the statement finishes.
  BufferCharge charge;
  size_t tick = 0;
  std::vector<Row> rows;
  rows.reserve(values.size());
  for (Row& src : values) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
    if (src.size() != positions.size()) {
      return Status::InvalidArgument(
          "INSERT expects " + std::to_string(positions.size()) +
          " values, got " + std::to_string(src.size()));
    }
    Row row(table->columns().size());  // missing columns default to NULL
    for (size_t i = 0; i < positions.size(); ++i) {
      row[positions[i]] = std::move(src[i]);
    }
    PSQL_ASSIGN_OR_RETURN(row, table->CoerceRow(std::move(row)));
    PSQL_RETURN_IF_ERROR(charge.Add(sizeof(Row) + row.size() * sizeof(Value)));
    rows.push_back(std::move(row));
  }
  if (!rows.empty()) {
    CommitDml(table, [&](uint64_t epoch) {
      for (Row& row : rows) table->AppendVersion(std::move(row), epoch);
    });
  }
  return RowsAffected(rows.size());
}

Result<ResultTable> Executor::ExecuteInsert(const Statement& stmt) {
  PSQL_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(stmt.name));
  // Reads inside the statement (INSERT ... SELECT, subqueries) see the
  // pre-statement snapshot, and the source is drained before anything is
  // appended, so a self-referencing source never re-reads its own inserts
  // (Halloween).
  ScopedSnapshot scope(AmbientSnapshotOr(table->epochs().current()));
  std::vector<Row> values;
  if (stmt.select) {
    PSQL_ASSIGN_OR_RETURN(ResultTable rt, ExecuteSelect(*stmt.select));
    values = std::move(rt.rows());
  } else {
    for (const auto& row_exprs : stmt.insert_rows) {
      Row row;
      row.reserve(row_exprs.size());
      for (const auto& e : row_exprs) {
        PSQL_ASSIGN_OR_RETURN(Value v, EvaluateConstant(*e));
        row.push_back(std::move(v));
      }
      values.push_back(std::move(row));
    }
  }
  return InsertRows(table, stmt.name, stmt.insert_columns, std::move(values));
}

Result<std::vector<size_t>> Executor::TargetSlots(StatementScope* statement,
                                                  const Table& table,
                                                  const Schema& schema,
                                                  const Expr* where) {
  Planner planner(statement);
  OperatorPtr scan = planner.PlanTableScan(table, schema, where, nullptr,
                                           /*count_stats=*/true);
  std::vector<size_t> slots;
  PSQL_RETURN_IF_ERROR(Drain(*scan, [&](RowBatch& batch) {
    for (uint32_t idx : batch.sel) slots.push_back(batch.slots[idx]);
  }));
  return slots;
}

Result<ResultTable> Executor::ExecuteUpdate(const Statement& stmt) {
  // The subquery runner of the statement's WHERE and SET expressions.
  StatementScope statement(this);
  PSQL_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(stmt.name));
  BeginDml(DmlEffect::Kind::kUpdate, stmt.name, *table);
  ScopedSnapshot scope(AmbientSnapshotOr(table->epochs().current()));
  const Schema schema = table->schema().WithQualifier(stmt.name);
  std::vector<size_t> target_cols;
  std::vector<BoundExpr> set_values;
  for (const auto& [col, e] : stmt.assignments) {
    PSQL_ASSIGN_OR_RETURN(size_t idx, table->ColumnIndex(col));
    target_cols.push_back(idx);
    set_values.emplace_back(*e, schema, nullptr);
  }
  PSQL_ASSIGN_OR_RETURN(
      std::vector<size_t> slots,
      TargetSlots(&statement, *table, schema, stmt.where.get()));
  BufferCharge charge;
  size_t tick = 0;
  std::vector<Row> updated;
  updated.reserve(slots.size());
  std::vector<Value> new_values(target_cols.size());
  for (size_t slot : slots) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
    // Evaluate all assignments against the OLD row, then coerce them into
    // the replacement version.
    const Row& row = table->heap().row(slot);
    EvalContext ctx{&schema, &row, nullptr, &statement};
    for (size_t i = 0; i < set_values.size(); ++i) {
      PSQL_ASSIGN_OR_RETURN(new_values[i], Evaluate(set_values[i], ctx));
    }
    Row next = row;
    for (size_t i = 0; i < target_cols.size(); ++i) {
      PSQL_ASSIGN_OR_RETURN(
          next[target_cols[i]],
          table->CoerceToColumn(target_cols[i], std::move(new_values[i])));
    }
    // Each touched row appends a replacement version (RowHeap growth).
    PSQL_RETURN_IF_ERROR(charge.Add(sizeof(Row) + next.size() * sizeof(Value)));
    updated.push_back(std::move(next));
  }
  if (!slots.empty()) {
    // End-stamp each old slot and append its replacement.
    CommitDml(table, [&](uint64_t epoch) {
      for (size_t i = 0; i < slots.size(); ++i) {
        table->MarkDeleted(slots[i], epoch);
        table->AppendVersion(std::move(updated[i]), epoch);
      }
    });
  }
  return RowsAffected(slots.size());
}

Result<ResultTable> Executor::ExecuteDelete(const Statement& stmt) {
  // The subquery runner of the statement's WHERE.
  StatementScope statement(this);
  PSQL_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(stmt.name));
  BeginDml(DmlEffect::Kind::kDelete, stmt.name, *table);
  ScopedSnapshot scope(AmbientSnapshotOr(table->epochs().current()));
  PSQL_ASSIGN_OR_RETURN(
      std::vector<size_t> slots,
      TargetSlots(&statement, *table,
                  table->schema().WithQualifier(stmt.name), stmt.where.get()));
  if (!slots.empty()) {
    CommitDml(table, [&](uint64_t epoch) {
      for (size_t slot : slots) table->MarkDeleted(slot, epoch);
    });
  }
  return RowsAffected(slots.size());
}

}  // namespace prefsql
