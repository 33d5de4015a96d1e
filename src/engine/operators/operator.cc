#include "engine/operators/operator.h"

#include "core/query_context.h"

namespace prefsql {

Result<bool> PullBatch(PhysicalOperator& op, RowBatch* batch) {
  // One deadline/cancel check per batch keeps multi-hundred-thousand-row
  // feeds interruptible at ~1k-row granularity.
  QueryContext* ctx = CurrentQueryContext();
  if (ctx != nullptr) PSQL_RETURN_IF_ERROR(ctx->CheckInterrupt());
  PSQL_ASSIGN_OR_RETURN(bool more, op.NextBatch(batch));
  if (more && ctx != nullptr) ctx->batch_stats().Record(batch->sel.size());
  return more;
}

Result<ResultTable> DrainToTable(PhysicalOperator& op) {
  Status open = op.Open();
  if (!open.ok()) {
    op.Close();
    return open;
  }
  std::vector<Row> rows;
  RowBatch batch;
  while (true) {
    auto more = PullBatch(op, &batch);
    if (!more.ok()) {
      op.Close();
      return more.status();
    }
    if (!*more) break;
    for (uint32_t idx : batch.sel) {
      rows.push_back(std::move(batch.rows[idx]).IntoRow());
    }
  }
  op.Close();
  return ResultTable(op.schema(), std::move(rows));
}

}  // namespace prefsql
