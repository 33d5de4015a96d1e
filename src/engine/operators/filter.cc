#include "engine/operators/filter.h"

#include <algorithm>
#include <utility>

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

Status FilterOperator::Open() {
  pending_.Clear();
  next_ = 0;
  return child_->Open();
}

void FilterOperator::Close() {
  pending_.Clear();
  next_ = 0;
  child_->Close();
}

Result<bool> FilterOperator::NextBatch(RowBatch* out) {
  out->Clear();
  const size_t target = out->capacity;
  size_t pull = target;
  bool pulled = false;
  while (true) {
    if (next_ == pending_.sel.size()) {
      // Reaching here again means the last child batch handed nothing over.
      if (pulled) {
        pull = std::min(2 * pull, std::max(target, kRowBatchCapacity));
      }
      pulled = true;
      // A selective predicate (e.g. the rewrite path's NOT EXISTS
      // anti-join) can reject unboundedly many rows inside one pull: it
      // keeps pulling rather than hand back an empty batch, so one latch
      // check per child batch bounds the reject loop.
      if (QueryContext* ctx = CurrentQueryContext()) {
        PSQL_RETURN_IF_ERROR(ctx->CheckInterrupt());
      }
      pending_.capacity = pull;
      PSQL_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&pending_));
      next_ = 0;
      if (!more) {
        pending_.Clear();
        return false;
      }
      predicate_.ApplyDirect(&pending_);
      if (pending_.sel.empty()) continue;
      if (pending_.sel.size() <= target) {
        // The whole child batch fits the target: decide the rest in place
        // and hand the batch over as it is.
        size_t kept = 0;
        for (uint32_t idx : pending_.sel) {
          PSQL_ASSIGN_OR_RETURN(
              bool pass, predicate_.TestRest(pending_.rows[idx].row(), runner_));
          if (pass) pending_.sel[kept++] = idx;
        }
        pending_.sel.resize(kept);
        if (kept == 0) continue;
        std::swap(out->rows, pending_.rows);
        std::swap(out->sel, pending_.sel);
        std::swap(out->slots, pending_.slots);
        pending_.Clear();
        return true;
      }
    }
    // The first-match tail: move rows over one at a time until the target
    // is filled, leaving the rest of the child batch for the next pull.
    const bool with_slots = !pending_.slots.empty();
    while (next_ < pending_.sel.size() && out->selected() < target) {
      const uint32_t idx = pending_.sel[next_++];
      RowRef& row = pending_.rows[idx];
      PSQL_ASSIGN_OR_RETURN(bool pass, predicate_.TestRest(row.row(), runner_));
      if (!pass) continue;
      out->PushRow(std::move(row));
      if (with_slots) out->slots.push_back(pending_.slots[idx]);
    }
    if (!out->empty()) return true;
  }
}

}  // namespace prefsql
