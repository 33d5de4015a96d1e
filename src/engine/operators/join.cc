#include "engine/operators/join.h"

namespace prefsql {
namespace {

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Row KeyOf(const Row& row, const std::vector<size_t>& cols) {
  Row key;
  key.reserve(cols.size());
  for (size_t c : cols) key.push_back(row[c]);
  return key;
}

/// NULL-pads `left` to the combined width (LEFT JOIN without match).
Row PadRight(const Row& left, size_t width) {
  Row combined = left;
  combined.resize(width);
  return combined;
}

}  // namespace

Result<const Row*> ProbeSide::NextRow(PhysicalOperator& child,
                                      size_t capacity) {
  if (pos_ >= batch_.sel.size()) {
    batch_.capacity = capacity;
    PSQL_ASSIGN_OR_RETURN(bool more, child.NextBatch(&batch_));
    if (!more) return static_cast<const Row*>(nullptr);
    pos_ = 0;
  }
  return &batch_.rows[batch_.sel[pos_++]].row();
}

// ===========================================================================
// HashJoinOperator
// ===========================================================================

HashJoinOperator::HashJoinOperator(OperatorPtr left, OperatorPtr right,
                                   std::vector<size_t> left_keys,
                                   std::vector<size_t> right_keys,
                                   std::vector<const Expr*> residual,
                                   bool left_join, const EvalContext* outer,
                                   SubqueryRunner* runner)
    : left_(std::move(left)),
      right_(std::move(right)),
      schema_(left_->schema().Concat(right_->schema())),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_join_(left_join),
      outer_(outer),
      runner_(runner) {
  for (const Expr* e : residual) residual_.emplace_back(*e, schema_, outer);
}

Status HashJoinOperator::Open() {
  PSQL_RETURN_IF_ERROR(left_->Open());
  PSQL_RETURN_IF_ERROR(right_->Open());
  build_rows_.clear();
  build_index_.clear();
  charge_.Reset();
  RowBatch batch;
  while (true) {
    PSQL_ASSIGN_OR_RETURN(bool more, PullBatch(*right_, &batch));
    if (!more) break;
    for (uint32_t idx : batch.sel) {
      RowRef& row = batch.rows[idx];
      // Row payload + its index entry.
      PSQL_RETURN_IF_ERROR(charge_.Add(sizeof(RowRef) +
                                       row.row().size() * sizeof(Value) +
                                       2 * sizeof(size_t)));
      build_index_[HashRow(KeyOf(row.row(), right_keys_))].push_back(
          build_rows_.size());
      build_rows_.push_back(std::move(row));
    }
  }
  PSQL_RETURN_IF_ERROR(charge_.Flush());
  probe_.Reset();
  left_valid_ = false;
  return Status::OK();
}

Result<bool> HashJoinOperator::AdvanceLeft(size_t capacity) {
  PSQL_ASSIGN_OR_RETURN(left_row_, probe_.NextRow(*left_, capacity));
  if (left_row_ == nullptr) return false;
  left_valid_ = true;
  left_matched_ = false;
  match_pos_ = 0;
  left_key_ = KeyOf(*left_row_, left_keys_);
  left_key_null_ = false;
  for (const auto& v : left_key_) left_key_null_ |= v.is_null();
  auto it = build_index_.find(HashRow(left_key_));
  matches_ = it != build_index_.end() ? &it->second : nullptr;
  return true;
}

Result<bool> HashJoinOperator::NextBatch(RowBatch* out) {
  out->Clear();
  while (!out->full()) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick_));
    if (!left_valid_) {
      PSQL_ASSIGN_OR_RETURN(bool more, AdvanceLeft(out->capacity));
      if (!more) break;
    }
    // NULL keys never join.
    if (matches_ != nullptr && !left_key_null_) {
      while (match_pos_ < matches_->size() && !out->full()) {
        size_t j = (*matches_)[match_pos_++];
        const Row& right_row = build_rows_[j].row();
        if (!RowsIdentityEqual(left_key_, KeyOf(right_row, right_keys_))) {
          continue;
        }
        Row combined = ConcatRows(*left_row_, right_row);
        bool pass = true;
        EvalContext ctx{&schema_, &combined, outer_, runner_};
        for (const BoundExpr& e : residual_) {
          PSQL_ASSIGN_OR_RETURN(pass, EvaluatePredicate(e, ctx));
          if (!pass) break;
        }
        if (pass) {
          left_matched_ = true;
          out->PushRow(RowRef::Owned(std::move(combined)));
        }
      }
      if (match_pos_ < matches_->size()) break;  // batch full: resume here
    }
    // Left row exhausted.
    left_valid_ = false;
    if (left_join_ && !left_matched_) {
      out->PushRow(RowRef::Owned(PadRight(*left_row_, schema_.num_columns())));
    }
  }
  return !out->rows.empty();
}

void HashJoinOperator::Close() {
  left_->Close();
  right_->Close();
  build_rows_.clear();
  build_index_.clear();
  probe_.Reset();
  charge_.Reset();
}

// ===========================================================================
// NestedLoopJoinOperator
// ===========================================================================

NestedLoopJoinOperator::NestedLoopJoinOperator(OperatorPtr left,
                                               OperatorPtr right,
                                               const Expr* join_on,
                                               bool left_join,
                                               const EvalContext* outer,
                                               SubqueryRunner* runner)
    : left_(std::move(left)),
      right_(std::move(right)),
      schema_(left_->schema().Concat(right_->schema())),
      join_on_(join_on),
      left_join_(left_join),
      outer_(outer),
      runner_(runner) {
  if (join_on_ != nullptr) bound_on_ = BoundExpr(*join_on_, schema_, outer);
}

Status NestedLoopJoinOperator::Open() {
  PSQL_RETURN_IF_ERROR(left_->Open());
  PSQL_RETURN_IF_ERROR(right_->Open());
  right_rows_.clear();
  charge_.Reset();
  RowBatch batch;
  while (true) {
    PSQL_ASSIGN_OR_RETURN(bool more, PullBatch(*right_, &batch));
    if (!more) break;
    for (uint32_t idx : batch.sel) {
      RowRef& row = batch.rows[idx];
      PSQL_RETURN_IF_ERROR(
          charge_.Add(sizeof(RowRef) + row.row().size() * sizeof(Value)));
      right_rows_.push_back(std::move(row));
    }
  }
  PSQL_RETURN_IF_ERROR(charge_.Flush());
  probe_.Reset();
  left_valid_ = false;
  return Status::OK();
}

Result<bool> NestedLoopJoinOperator::NextBatch(RowBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (!left_valid_) {
      PSQL_ASSIGN_OR_RETURN(left_row_, probe_.NextRow(*left_, out->capacity));
      if (left_row_ == nullptr) break;
      left_valid_ = true;
      left_matched_ = false;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size() && !out->full()) {
      PSQL_RETURN_IF_ERROR(PollInterrupt(&tick_));
      const Row& right_row = right_rows_[right_pos_++].row();
      Row combined = ConcatRows(*left_row_, right_row);
      bool pass = true;
      if (join_on_ != nullptr) {
        EvalContext ctx{&schema_, &combined, outer_, runner_};
        PSQL_ASSIGN_OR_RETURN(pass, EvaluatePredicate(bound_on_, ctx));
      }
      if (pass) {
        left_matched_ = true;
        out->PushRow(RowRef::Owned(std::move(combined)));
      }
    }
    if (right_pos_ < right_rows_.size()) break;  // batch full: resume here
    left_valid_ = false;
    if (left_join_ && !left_matched_) {
      out->PushRow(RowRef::Owned(PadRight(*left_row_, schema_.num_columns())));
    }
  }
  return !out->rows.empty();
}

void NestedLoopJoinOperator::Close() {
  left_->Close();
  right_->Close();
  right_rows_.clear();
  probe_.Reset();
  charge_.Reset();
}

}  // namespace prefsql
