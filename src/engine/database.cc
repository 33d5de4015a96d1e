#include "engine/database.h"

#include "sql/parser.h"

namespace prefsql {

Database::Database() : executor_(std::make_unique<Executor>(&catalog_)) {}
Database::~Database() = default;

Result<ResultTable> Database::Execute(const std::string& sql) {
  PSQL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return ExecuteStatement(stmt);
}

Result<ResultTable> Database::ExecuteScript(const std::string& sql) {
  PSQL_ASSIGN_OR_RETURN(auto stmts, ParseScript(sql));
  if (stmts.empty()) {
    return Status::InvalidArgument("empty script");
  }
  ResultTable last;
  for (const auto& stmt : stmts) {
    PSQL_ASSIGN_OR_RETURN(last, ExecuteStatement(stmt));
  }
  return last;
}

Result<ResultTable> Database::ExecuteStatement(const Statement& stmt) {
  return executor_->ExecuteStatement(stmt);
}

Result<ResultTable> Database::ExecuteSelect(const SelectStmt& select) {
  return executor_->ExecuteSelect(select);
}

}  // namespace prefsql
