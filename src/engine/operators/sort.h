// Sort (pipeline breaker) and streaming OFFSET/LIMIT.

#pragma once

#include <optional>
#include <vector>

#include "core/query_context.h"
#include "engine/operators/operator.h"

namespace prefsql {

/// One ORDER BY key: a column position of the input schema (the planner
/// projects hidden key columns for general expressions).
struct SortKey {
  size_t column;
  bool ascending;
};

/// Materializes the child and emits rows in stable-sorted key order
/// (Value::Compare total ordering, as ORDER BY requires).
class SortOperator : public PhysicalOperator {
 public:
  SortOperator(OperatorPtr child, std::vector<SortKey> keys);

  const Schema& schema() const override { return child_->schema(); }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  BufferCharge charge_;  // the materialized input, held until Close
};

/// Skips `offset` rows, then forwards at most `limit` rows and stops
/// pulling from the child (true early exit for streaming children).
class LimitOperator : public PhysicalOperator {
 public:
  LimitOperator(OperatorPtr child, std::optional<int64_t> limit,
                std::optional<int64_t> offset);

  const Schema& schema() const override { return child_->schema(); }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  std::optional<int64_t> limit_;
  std::optional<int64_t> offset_;
  int64_t skipped_ = 0;
  int64_t emitted_ = 0;
};

}  // namespace prefsql
