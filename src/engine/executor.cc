#include "engine/executor.h"

#include <algorithm>

#include "core/query_context.h"
#include "engine/planner.h"
#include "util/failpoint.h"
#include "util/memory_budget.h"
#include "util/string_util.h"

namespace prefsql {

// ===========================================================================
// Statement dispatch
// ===========================================================================

Executor::DmlEffect& Executor::BeginDml(DmlEffect::Kind kind,
                                        const std::string& name,
                                        const Table& table) {
  last_dml_ = DmlEffect{};
  last_dml_.kind = kind;
  last_dml_.table = name;
  last_dml_.table_id = table.id();
  last_dml_.version_before = table.version();
  last_dml_.heap_before = table.heap_size();
  return last_dml_;
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
  auto scope =
      std::make_unique<StatementScope>(this, std::move(local_views));
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

namespace {

// One DML statement = one commit epoch. The writer allocates the epoch up
// front, stamps every change with it, and this guard seals + publishes on
// scope exit if anything was stamped — also on mid-statement error, because
// this storage layer has no rollback and already-stamped versions must
// become durable rather than ghosts under an unpublished epoch.
class DmlCommit {
 public:
  DmlCommit(Table* table, Executor::DmlEffect* dml)
      : table_(table), dml_(dml), epoch_(table->epochs().BeginWrite()) {}
  ~DmlCommit() {
    if (mutated_) {
      // Fault-injection site (delay-only — a destructor cannot propagate a
      // status): stretches the window between the last stamped change and
      // the epoch becoming visible, the exact interval concurrent readers
      // and cache maintenance must tolerate.
      PSQL_FAILPOINT("epoch_publish");
      table_->SealVersion(epoch_);
      table_->epochs().Publish(epoch_);
      dml_->commit_epoch = epoch_;
    }
  }
  uint64_t epoch() const { return epoch_; }
  void MarkMutated() { mutated_ = true; }

 private:
  Table* table_;
  Executor::DmlEffect* dml_;
  uint64_t epoch_;
  bool mutated_ = false;
};

}  // namespace

Result<ResultTable> Executor::InsertTable(const std::string& table,
                                          const std::vector<std::string>& columns,
                                          const ResultTable& data) {
  PSQL_ASSIGN_OR_RETURN(Table * target, catalog_->GetTable(table));
  DmlEffect& dml = BeginDml(DmlEffect::Kind::kInsert, table, *target);
  std::vector<size_t> positions;
  if (columns.empty()) {
    for (size_t i = 0; i < target->columns().size(); ++i) {
      positions.push_back(i);
    }
  } else {
    for (const auto& c : columns) {
      PSQL_ASSIGN_OR_RETURN(size_t idx, target->ColumnIndex(c));
      positions.push_back(idx);
    }
  }
  if (data.num_columns() != positions.size()) {
    return Status::InvalidArgument(
        "INSERT expects " + std::to_string(positions.size()) +
        " values, got " + std::to_string(data.num_columns()));
  }
  DmlCommit commit(target, &dml);
  int64_t affected = 0;
  for (const Row& src : data.rows()) {
    Row row(target->columns().size());
    for (size_t i = 0; i < positions.size(); ++i) {
      row[positions[i]] = src[i];
    }
    PSQL_ASSIGN_OR_RETURN(row, target->CoerceRow(std::move(row)));
    target->AppendVersion(std::move(row), commit.epoch());
    commit.MarkMutated();
    ++affected;
  }
  return ResultTable(Schema::FromNames({"rows_affected"}),
                     {Row{Value::Int(affected)}});
}

// ===========================================================================
// Statement scope: views and subqueries
// ===========================================================================

StatementScope::StatementScope(Executor* executor, LocalViews local_views)
    : executor_(executor) {
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

Result<std::shared_ptr<ResultTable>> StatementScope::MaterializeView(
    const std::string& name) {
  std::string key = ToLower(name);
  auto it = views_.find(key);
  if (it != views_.end()) return it->second;
  std::shared_ptr<const SelectStmt> def;
  if (auto local = local_views_.find(key); local != local_views_.end()) {
    def = local->second;
  } else {
    PSQL_ASSIGN_OR_RETURN(def, executor_->catalog()->GetView(name));
  }
  PSQL_ASSIGN_OR_RETURN(ResultTable rt, RunSubquery(*def, nullptr));
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

// Pulls one row through a planned probe. A 1-row target: the scan hands
// over one row per pull and the filter above it evaluates only that row, so
// the probe stops at its first match instead of scanning and testing a
// whole batch. Scan counters stay untouched (probes would drown the
// per-statement counts).
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

Result<ResultTable> Executor::ExecuteInsert(const Statement& stmt) {
  PSQL_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(stmt.name));
  DmlEffect& dml = BeginDml(DmlEffect::Kind::kInsert, stmt.name, *table);
  // Reads inside the statement (INSERT ... SELECT, subqueries) see the
  // pre-statement snapshot; appended versions carry the commit epoch, so a
  // self-referencing source can never re-read its own inserts (Halloween).
  ScopedSnapshot scope(AmbientSnapshotOr(table->epochs().current()));
  // Column position mapping.
  std::vector<size_t> positions;
  if (stmt.insert_columns.empty()) {
    for (size_t i = 0; i < table->columns().size(); ++i) positions.push_back(i);
  } else {
    for (const auto& c : stmt.insert_columns) {
      PSQL_ASSIGN_OR_RETURN(size_t idx, table->ColumnIndex(c));
      positions.push_back(idx);
    }
  }

  DmlCommit commit(table, &dml);
  // Cooperative interrupt + RowHeap-growth accounting. A mid-statement
  // interrupt commits the rows already stamped (this storage layer has no
  // rollback — the DmlCommit guard publishes partial effects by design);
  // the budget bounds one statement's ingest spike and releases when the
  // statement finishes.
  BufferCharge charge;
  size_t tick = 0;
  auto insert_values = [&](std::vector<Value> values) -> Status {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
    if (values.size() != positions.size()) {
      return Status::InvalidArgument(
          "INSERT expects " + std::to_string(positions.size()) +
          " values, got " + std::to_string(values.size()));
    }
    Row row(table->columns().size());  // missing columns default to NULL
    for (size_t i = 0; i < positions.size(); ++i) {
      row[positions[i]] = std::move(values[i]);
    }
    PSQL_ASSIGN_OR_RETURN(row, table->CoerceRow(std::move(row)));
    PSQL_RETURN_IF_ERROR(charge.Add(sizeof(Row) + row.size() * sizeof(Value)));
    table->AppendVersion(std::move(row), commit.epoch());
    commit.MarkMutated();
    return Status::OK();
  };

  int64_t affected = 0;
  if (stmt.select) {
    PSQL_ASSIGN_OR_RETURN(ResultTable rt, ExecuteSelect(*stmt.select));
    for (auto& row : rt.rows()) {
      PSQL_RETURN_IF_ERROR(insert_values(std::move(row)));
      ++affected;
    }
  } else {
    for (const auto& row_exprs : stmt.insert_rows) {
      std::vector<Value> values;
      values.reserve(row_exprs.size());
      for (const auto& e : row_exprs) {
        PSQL_ASSIGN_OR_RETURN(Value v, EvaluateConstant(*e));
        values.push_back(std::move(v));
      }
      PSQL_RETURN_IF_ERROR(insert_values(std::move(values)));
      ++affected;
    }
  }
  ResultTable out(Schema::FromNames({"rows_affected"}),
                  {Row{Value::Int(affected)}});
  return out;
}

Result<ResultTable> Executor::ExecuteUpdate(const Statement& stmt) {
  // The subquery runner of the statement's WHERE and SET expressions.
  StatementScope statement(this);
  PSQL_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(stmt.name));
  DmlEffect& dml = BeginDml(DmlEffect::Kind::kUpdate, stmt.name, *table);
  uint64_t read_epoch = AmbientSnapshotOr(table->epochs().current());
  ScopedSnapshot scope(read_epoch);
  std::vector<size_t> target_cols;
  for (const auto& [col, e] : stmt.assignments) {
    PSQL_ASSIGN_OR_RETURN(size_t idx, table->ColumnIndex(col));
    target_cols.push_back(idx);
  }
  const Schema& schema = table->schema();
  const RowHeap& heap = table->heap();
  DmlCommit commit(table, &dml);
  BufferCharge charge;
  size_t tick = 0;
  int64_t affected = 0;
  // Only slots that existed at statement start: our own appended versions
  // land above heap_before and must not be revisited.
  for (size_t slot = 0; slot < dml.heap_before; ++slot) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
    if (!heap.VisibleAt(slot, read_epoch)) continue;
    const Row& row = heap.row(slot);
    if (stmt.where != nullptr) {
      EvalContext ctx{&schema, &row, nullptr, &statement};
      PSQL_ASSIGN_OR_RETURN(bool pass, EvaluatePredicate(*stmt.where, ctx));
      if (!pass) continue;
    }
    // Evaluate all assignments against the OLD row, then build the new
    // version: end-stamp the old slot, append the replacement.
    std::vector<Value> new_values;
    for (const auto& [col, e] : stmt.assignments) {
      EvalContext ctx{&schema, &row, nullptr, &statement};
      PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(*e, ctx));
      new_values.push_back(std::move(v));
    }
    Row updated = row;
    for (size_t i = 0; i < target_cols.size(); ++i) {
      PSQL_ASSIGN_OR_RETURN(
          updated[target_cols[i]],
          table->CoerceToColumn(target_cols[i], std::move(new_values[i])));
    }
    // Each touched row appends a replacement version (RowHeap growth).
    PSQL_RETURN_IF_ERROR(
        charge.Add(sizeof(Row) + updated.size() * sizeof(Value)));
    table->MarkDeleted(slot, commit.epoch());
    table->AppendVersion(std::move(updated), commit.epoch());
    commit.MarkMutated();
    dml.dead.push_back(static_cast<uint32_t>(slot));
    ++affected;
  }
  return ResultTable(Schema::FromNames({"rows_affected"}),
                     {Row{Value::Int(affected)}});
}

Result<ResultTable> Executor::ExecuteDelete(const Statement& stmt) {
  // The subquery runner of the statement's WHERE.
  StatementScope statement(this);
  PSQL_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(stmt.name));
  DmlEffect& dml = BeginDml(DmlEffect::Kind::kDelete, stmt.name, *table);
  uint64_t read_epoch = AmbientSnapshotOr(table->epochs().current());
  ScopedSnapshot scope(read_epoch);
  const Schema& schema = table->schema();
  const RowHeap& heap = table->heap();
  DmlCommit commit(table, &dml);
  size_t tick = 0;
  int64_t deleted = 0;
  for (size_t slot = 0; slot < dml.heap_before; ++slot) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
    if (!heap.VisibleAt(slot, read_epoch)) continue;
    if (stmt.where != nullptr) {
      EvalContext ctx{&schema, &heap.row(slot), nullptr, &statement};
      PSQL_ASSIGN_OR_RETURN(bool pass, EvaluatePredicate(*stmt.where, ctx));
      if (!pass) continue;
    }
    table->MarkDeleted(slot, commit.epoch());
    commit.MarkMutated();
    dml.dead.push_back(static_cast<uint32_t>(slot));
    ++deleted;
  }
  return ResultTable(Schema::FromNames({"rows_affected"}),
                     {Row{Value::Int(deleted)}});
}

}  // namespace prefsql
