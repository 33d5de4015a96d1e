#include "engine/operators/filter.h"

namespace prefsql {

FilterOperator::FilterOperator(OperatorPtr child, const Expr* predicate,
                               const EvalContext* outer,
                               SubqueryRunner* runner)
    : child_(std::move(child)),
      predicate_(*predicate, child_->schema(), outer),
      runner_(runner) {}

FilterOperator::FilterOperator(OperatorPtr child,
                               const std::vector<const Expr*>& conjuncts,
                               const EvalContext* outer,
                               SubqueryRunner* runner)
    : child_(std::move(child)),
      predicate_(conjuncts, child_->schema(), outer),
      runner_(runner) {}

FilterOperator::FilterOperator(OperatorPtr child, ExprPtr predicate,
                               const EvalContext* outer,
                               SubqueryRunner* runner)
    : child_(std::move(child)),
      owned_predicate_(std::move(predicate)),
      predicate_(*owned_predicate_, child_->schema(), outer),
      runner_(runner) {}

Result<bool> FilterOperator::NextBatch(RowBatch* out) {
  while (true) {
    // A selective predicate (e.g. the rewrite path's NOT EXISTS anti-join)
    // can reject unboundedly many rows inside one pull: it keeps pulling
    // rather than hand back an empty batch, so one latch check per child
    // batch bounds the reject loop.
    if (QueryContext* ctx = CurrentQueryContext()) {
      PSQL_RETURN_IF_ERROR(ctx->CheckInterrupt());
    }
    PSQL_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    PSQL_RETURN_IF_ERROR(predicate_.Apply(out, runner_));
    if (!out->sel.empty()) return true;
  }
}

}  // namespace prefsql
