// Join operators. The planner extracts equi-join keys from the ON clause
// and picks HashJoinOperator when any exist; otherwise (CROSS JOIN, ON
// without extractable keys, comma-list FROM) NestedLoopJoinOperator runs.
// Both stream the left input and materialize the right at Open; LEFT JOIN
// NULL-pads unmatched left rows. The right side's buffer is charged against
// the statement's memory budgets.

#pragma once

#include <unordered_map>
#include <vector>

#include "core/query_context.h"
#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "sql/ast.h"

namespace prefsql {

/// Row-by-row reader over a join's left (probe) input. Each refill asks the
/// child for as many rows as the join's output batch may still take, so a
/// 1-row EXISTS probe pulls one left row at a time.
class ProbeSide {
 public:
  void Reset() {
    batch_.Clear();
    pos_ = 0;
  }
  /// The next selected left row, or null at end of stream. Valid until the
  /// next call.
  Result<const Row*> NextRow(PhysicalOperator& child, size_t capacity);

 private:
  RowBatch batch_;
  size_t pos_ = 0;
};

/// Hash join on equi-key columns with an optional residual conjunction.
class HashJoinOperator : public PhysicalOperator {
 public:
  HashJoinOperator(OperatorPtr left, OperatorPtr right,
                   std::vector<size_t> left_keys,
                   std::vector<size_t> right_keys,
                   std::vector<const Expr*> residual, bool left_join,
                   const EvalContext* outer, SubqueryRunner* runner);

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  Result<bool> AdvanceLeft(size_t capacity);

  OperatorPtr left_;
  OperatorPtr right_;
  Schema schema_;
  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  std::vector<BoundExpr> residual_;  // bound to the combined schema
  bool left_join_;
  const EvalContext* outer_;
  SubqueryRunner* runner_;

  // Build side (right input), materialized at Open.
  std::vector<RowRef> build_rows_;
  std::unordered_map<size_t, std::vector<size_t>> build_index_;
  BufferCharge charge_;  // the build side, held until Close

  // Probe state for the current left row.
  ProbeSide probe_;
  const Row* left_row_ = nullptr;
  Row left_key_;
  bool left_key_null_ = false;
  const std::vector<size_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
  bool left_matched_ = false;
  bool left_valid_ = false;
  size_t tick_ = 0;  // interrupt-poll stride counter for the probe loop
};

/// Nested-loop join; `join_on` may be null (cross product).
class NestedLoopJoinOperator : public PhysicalOperator {
 public:
  NestedLoopJoinOperator(OperatorPtr left, OperatorPtr right,
                         const Expr* join_on, bool left_join,
                         const EvalContext* outer, SubqueryRunner* runner);

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  Schema schema_;
  const Expr* join_on_;
  BoundExpr bound_on_;  // join_on_ bound to the combined schema
  bool left_join_;
  const EvalContext* outer_;
  SubqueryRunner* runner_;

  std::vector<RowRef> right_rows_;
  BufferCharge charge_;  // right_rows_, held until Close
  ProbeSide probe_;
  const Row* left_row_ = nullptr;
  size_t right_pos_ = 0;
  bool left_matched_ = false;
  bool left_valid_ = false;
  size_t tick_ = 0;  // interrupt-poll stride counter for the scan loop
};

}  // namespace prefsql
