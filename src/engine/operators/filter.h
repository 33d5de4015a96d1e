// Streaming selection: forwards child rows whose predicate evaluates to
// TRUE (SQL three-valued logic; NULL/UNKNOWN drops the row). The predicate
// is split into conjuncts, classified and bound once, when the operator is
// built (BatchPredicate).
//
// The filter pulls child batches into a batch of its own. The leading run
// of direct conjuncts decides each child batch whole; the other conjuncts
// then run row by row, in order, only until the consumer's row target is
// filled, and the rest of the child batch waits for the next pull. A
// child batch that keeps nothing doubles the next child pull, from the
// consumer's target up to kRowBatchCapacity. An EXISTS probe (target 1)
// thus tests few rows near its first match and whole batches far from it.

#pragma once

#include <vector>

#include "core/query_context.h"
#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "sql/ast.h"

namespace prefsql {

class FilterOperator : public PhysicalOperator {
 public:
  /// Filters on `predicate` (not owned; must outlive the plan).
  FilterOperator(OperatorPtr child, const Expr* predicate,
                 const EvalContext* outer, SubqueryRunner* runner);

  /// Filters on the AND of `conjuncts` (each borrowed; must outlive the
  /// plan): the part of a WHERE the child scan does not apply itself.
  FilterOperator(OperatorPtr child, const std::vector<const Expr*>& conjuncts,
                 const EvalContext* outer, SubqueryRunner* runner);

  /// Filters on an expression the planner synthesized (HAVING rewrites).
  FilterOperator(OperatorPtr child, ExprPtr predicate,
                 const EvalContext* outer, SubqueryRunner* runner);

  const Schema& schema() const override { return child_->schema(); }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  ExprPtr owned_predicate_;
  BatchPredicate predicate_;
  SubqueryRunner* runner_;
  RowBatch pending_;  // the child batch being consumed
  size_t next_ = 0;   // its first selection entry not yet handed over
};

}  // namespace prefsql
