#include "engine/operators/project.h"

namespace prefsql {

ProjectOperator::ProjectOperator(OperatorPtr child, Schema out_schema,
                                 std::vector<ExprPtr> exprs,
                                 const EvalContext* outer,
                                 SubqueryRunner* runner)
    : child_(std::move(child)),
      schema_(std::move(out_schema)),
      exprs_(std::move(exprs)),
      outer_(outer),
      runner_(runner) {
  identity_ = exprs_.size() == child_->schema().num_columns();
  bound_.reserve(exprs_.size());
  slots_.reserve(exprs_.size());
  for (size_t i = 0; i < exprs_.size(); ++i) {
    bound_.emplace_back(*exprs_[i], child_->schema(), outer);
    slots_.push_back(bound_.back().input_slot());
    identity_ &= slots_.back() == static_cast<int64_t>(i);
  }
}

Result<bool> ProjectOperator::NextBatch(RowBatch* out) {
  PSQL_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more || identity_) return more;
  for (uint32_t idx : out->sel) {
    // Build the output row fully before overwriting the slot: the eval
    // context reads the input row living there.
    const Row& in = out->rows[idx].row();
    EvalContext ctx{&child_->schema(), &in, outer_, runner_};
    Row row;
    row.reserve(bound_.size());
    for (size_t i = 0; i < bound_.size(); ++i) {
      if (slots_[i] >= 0) {
        row.push_back(in[static_cast<size_t>(slots_[i])]);
        continue;
      }
      PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(bound_[i], ctx));
      row.push_back(std::move(v));
    }
    out->rows[idx] = RowRef::Owned(std::move(row));
  }
  out->slots.clear();
  return true;
}

DistinctOperator::DistinctOperator(OperatorPtr child, size_t key_width)
    : child_(std::move(child)), key_width_(key_width) {}

Status DistinctOperator::Open() {
  seen_rows_.clear();
  seen_.clear();
  charge_.Reset();
  return child_->Open();
}

Result<bool> DistinctOperator::NextBatch(RowBatch* out) {
  while (true) {
    // Like a filter: a run of duplicates keeps pulling, so one latch check
    // per child batch bounds the loop.
    if (QueryContext* ctx = CurrentQueryContext()) {
      PSQL_RETURN_IF_ERROR(ctx->CheckInterrupt());
    }
    PSQL_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    size_t kept = 0;
    for (uint32_t idx : out->sel) {
      const Row& r = out->rows[idx].row();
      size_t h = HashRowPrefix(r, key_width_);
      std::vector<size_t>& bucket = seen_[h];
      bool dup = false;
      for (size_t seen : bucket) {
        if (RowPrefixIdentityEqual(seen_rows_[seen], r, key_width_)) {
          dup = true;
          break;
        }
      }
      if (dup) continue;
      bucket.push_back(seen_rows_.size());
      seen_rows_.emplace_back(
          r.begin(), r.begin() + static_cast<ptrdiff_t>(key_width_));
      PSQL_RETURN_IF_ERROR(charge_.Add(sizeof(Row) + sizeof(size_t) +
                                       key_width_ * sizeof(Value)));
      out->sel[kept++] = idx;
    }
    out->sel.resize(kept);
    if (kept > 0) return true;
  }
}

void DistinctOperator::Close() {
  child_->Close();
  seen_rows_.clear();
  seen_.clear();
  charge_.Reset();
}

PrefixOperator::PrefixOperator(OperatorPtr child, Schema out_schema)
    : child_(std::move(child)), schema_(std::move(out_schema)) {}

Result<bool> PrefixOperator::NextBatch(RowBatch* out) {
  PSQL_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  for (uint32_t idx : out->sel) {
    Row row = std::move(out->rows[idx]).IntoRow();
    row.resize(schema_.num_columns());
    out->rows[idx] = RowRef::Owned(std::move(row));
  }
  out->slots.clear();
  return true;
}

}  // namespace prefsql
