// PreparedStatement: parse once, bind per request, execute or stream at
// will — the prepared half of the client surface (the paper's Preference
// ODBC/JDBC driver, §3.1).
//
//   auto stmt = conn.Prepare(
//       "SELECT * FROM car PREFERRING price AROUND $target");
//   stmt->Bind("target", prefsql::Value::Int(40000));
//   auto rows = stmt->Execute();          // plan-cache hit from then on
//   stmt->Bind("target", prefsql::Value::Int(55000));
//   auto cursor = stmt->Open();           // same plan, streamed
//
// Placeholders are positional (`?`, bound by 0-based index) or named
// (`$name`, one ordinal per distinct name, bound by name or index). A
// statement without placeholders is auto-parameterized at Prepare: its
// literals become pre-bound parameters, so `Prepare("... AROUND 40")`,
// `Prepare("... AROUND 55")` and the same spelling with an explicit `?`
// all share one plan-cache entry (named `$t` templates are their own
// canonical text and key separately).
//
// A SELECT/EXPLAIN holds its preparation (parsed AST included) and the
// plan-cache key text. Every Execute/Open re-validates the key against the
// current catalog version: DDL triggers a transparent re-prepare from the
// retained AST — never a re-parse. A SET does not: preparation reads no
// session knob, and the knobs take effect at execution. Binding errors
// (index/name out of range, values violating a slot's grammar constraint,
// executing with unbound parameters) report StatusCode::kBindError.
//
// A PreparedStatement borrows its Session (and, unless a keepalive was
// supplied by Connection::Prepare, its Engine): it must not outlive the
// Connection that prepared it.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cursor.h"
#include "core/plan_cache.h"
#include "core/session.h"
#include "sql/ast.h"
#include "sql/parameters.h"
#include "types/result_table.h"
#include "types/value.h"
#include "util/status.h"

namespace prefsql {

class Engine;

/// A parsed, re-executable statement with typed parameter binding.
class PreparedStatement {
 public:
  PreparedStatement(PreparedStatement&&) = default;
  PreparedStatement& operator=(PreparedStatement&&) = default;
  PreparedStatement(const PreparedStatement&) = delete;
  PreparedStatement& operator=(const PreparedStatement&) = delete;

  /// Number of parameter slots (explicit placeholders, or auto-lifted
  /// literals — the latter arrive pre-bound to their original values).
  size_t parameter_count() const { return signature_.count(); }

  /// Slot names, index-ordered ("" = positional `?`).
  const std::vector<std::string>& parameter_names() const {
    return signature_.names;
  }

  /// Binds slot `index` (0-based). Checks the slot's grammar constraint
  /// (e.g. an AROUND target must be numeric or a date); kBindError on a
  /// bad index or value.
  Status Bind(size_t index, Value value);

  /// Binds every slot named `$name`; kBindError when the statement has no
  /// such parameter.
  Status Bind(const std::string& name, Value value);

  /// Clears all bindings (auto-parameterized statements lose their
  /// pre-bound literal values too).
  void ClearBindings();

  /// Executes with the current bindings, materializing the result.
  /// kBindError when any slot is unbound.
  Result<ResultTable> Execute();

  /// Executes with the current bindings, streaming the result through a
  /// Cursor (see core/cursor.h for the lock discipline).
  Result<Cursor> Open();

  /// The plan-cache key text (parameterized normalized form) for
  /// SELECT/EXPLAIN statements; empty for statements that are not
  /// plan-cached (DML/DDL).
  const std::string& text() const { return key_text_; }

 private:
  friend class Engine;

  PreparedStatement(Engine* engine, std::shared_ptr<Engine> keepalive,
                    Session* session, std::shared_ptr<const Statement> stmt,
                    std::shared_ptr<const CachedPlan> plan,
                    std::string key_text, ParameterSignature signature);

  /// kBindError naming every unbound slot, or OK.
  Status CheckFullyBound() const;

  /// The bound values, or nullptr when the statement has no parameters.
  const std::vector<Value>* BoundValues() const {
    return signature_.count() == 0 ? nullptr : &values_;
  }

  Engine* engine_ = nullptr;
  std::shared_ptr<Engine> keepalive_;
  Session* session_ = nullptr;
  /// The parsed statement of a DML/DDL/SET; null for SELECT/EXPLAIN.
  std::shared_ptr<const Statement> stmt_;
  /// The preparation of a SELECT/EXPLAIN; null for every other kind.
  std::shared_ptr<const CachedPlan> plan_;
  std::string key_text_;  ///< empty = not plan-cached
  ParameterSignature signature_;
  std::vector<Value> values_;
  std::vector<bool> bound_;
  bool auto_parameterized_ = false;
};

}  // namespace prefsql
