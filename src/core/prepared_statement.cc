#include "core/prepared_statement.h"

#include <utility>

#include "core/engine.h"

namespace prefsql {

PreparedStatement::PreparedStatement(Engine* engine,
                                     std::shared_ptr<Engine> keepalive,
                                     Session* session,
                                     std::shared_ptr<const Statement> stmt,
                                     std::shared_ptr<const CachedPlan> plan,
                                     std::string key_text,
                                     ParameterSignature signature)
    : engine_(engine),
      keepalive_(std::move(keepalive)),
      session_(session),
      stmt_(std::move(stmt)),
      plan_(std::move(plan)),
      key_text_(std::move(key_text)),
      signature_(std::move(signature)),
      values_(signature_.count()),
      bound_(signature_.count(), false) {}

Status PreparedStatement::Bind(size_t index, Value value) {
  if (index >= signature_.count()) {
    return Status::BindError(
        "parameter index " + std::to_string(index) + " out of range (" +
        std::to_string(signature_.count()) + " parameter(s))");
  }
  PSQL_RETURN_IF_ERROR(CheckParamConstraint(
      value, signature_.constraints[index], index, /*parse_errors=*/false));
  values_[index] = std::move(value);
  bound_[index] = true;
  return Status::OK();
}

Status PreparedStatement::Bind(const std::string& name, Value value) {
  if (name.empty()) {
    // Positional slots carry the empty name internally; an empty lookup
    // must not silently bind them.
    return Status::BindError(
        "parameter name must not be empty (bind positional '?' slots by "
        "index)");
  }
  bool found = false;
  for (size_t i = 0; i < signature_.count(); ++i) {
    if (signature_.names[i] == name) {
      PSQL_RETURN_IF_ERROR(Bind(i, value));
      found = true;
    }
  }
  if (!found) {
    return Status::BindError("statement has no parameter named '$" + name +
                             "'");
  }
  return Status::OK();
}

void PreparedStatement::ClearBindings() {
  for (size_t i = 0; i < bound_.size(); ++i) {
    values_[i] = Value();
    bound_[i] = false;
  }
}

Status PreparedStatement::CheckFullyBound() const {
  std::string missing;
  for (size_t i = 0; i < bound_.size(); ++i) {
    if (bound_[i]) continue;
    if (!missing.empty()) missing += ", ";
    missing += signature_.names[i].empty() ? "?" + std::to_string(i + 1)
                                           : "$" + signature_.names[i];
  }
  if (missing.empty()) return Status::OK();
  return Status::BindError("unbound parameter(s): " + missing);
}

Result<ResultTable> PreparedStatement::Execute() {
  Cursor cursor;
  PSQL_ASSIGN_OR_RETURN(cursor, Open());
  return DrainCursor(cursor);
}

Result<Cursor> PreparedStatement::Open() {
  if (engine_ == nullptr || (stmt_ == nullptr && plan_ == nullptr)) {
    return Status::ExecutionError("prepared statement is empty");
  }
  PSQL_RETURN_IF_ERROR(CheckFullyBound());
  if (plan_ != nullptr) {
    // SELECT/EXPLAIN: re-validate the key against the current catalog
    // version. A miss (DDL in between, or an LRU eviction) rebuilds the
    // preparation from the retained AST — the transparent re-prepare — and
    // re-publishes it.
    bool hit = false;
    PSQL_ASSIGN_OR_RETURN(
        auto plan,
        engine_->LookupOrPrepare(
            *session_, key_text_,
            [this] {
              return engine_->BuildPreparation(plan_->kind, plan_->select);
            },
            &hit));
    return engine_->OpenPreparedCursor(*session_, std::move(plan), hit,
                                       BoundValues(), auto_parameterized_,
                                       keepalive_);
  }
  // Not plan-cached (DML / DDL / SET): instantiate the AST with the bound
  // values and run it through the statement path (exclusive lock).
  Statement bound = stmt_->Clone();
  if (const std::vector<Value>* values = BoundValues()) {
    PSQL_RETURN_IF_ERROR(
        BindStatementParameters(bound, *values, /*parse_errors=*/false));
  }
  PSQL_ASSIGN_OR_RETURN(ResultTable result,
                        engine_->ExecuteStatement(*session_, bound));
  return engine_->MaterializedCursor(std::move(result), session_, keepalive_);
}

}  // namespace prefsql
