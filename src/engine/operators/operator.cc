#include "engine/operators/operator.h"

#include "core/query_context.h"

namespace prefsql {

Result<bool> PullBatch(PhysicalOperator& op, RowBatch* batch) {
  // One deadline/cancel check per batch keeps multi-hundred-thousand-row
  // feeds interruptible at ~1k-row granularity.
  QueryContext* ctx = CurrentQueryContext();
  if (ctx != nullptr) PSQL_RETURN_IF_ERROR(ctx->CheckInterrupt());
  PSQL_ASSIGN_OR_RETURN(bool more, op.NextBatch(batch));
  if (more && ctx != nullptr) ctx->batch_stats().Record(batch->selected());
  return more;
}

Status Drain(PhysicalOperator& op,
             const std::function<void(RowBatch& batch)>& consume) {
  Status status = op.Open();
  RowBatch batch;
  while (status.ok()) {
    auto more = PullBatch(op, &batch);
    if (!more.ok()) status = more.status();
    if (!status.ok() || !*more) break;
    consume(batch);
  }
  op.Close();
  return status;
}

Result<ResultTable> DrainToTable(PhysicalOperator& op) {
  std::vector<Row> rows;
  PSQL_RETURN_IF_ERROR(Drain(op, [&](RowBatch& batch) {
    for (uint32_t idx : batch.sel) {
      rows.push_back(std::move(batch.rows[idx]).IntoRow());
    }
  }));
  return ResultTable(op.schema(), std::move(rows));
}

}  // namespace prefsql
