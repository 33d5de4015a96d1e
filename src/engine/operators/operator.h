// Physical operator interface: pull-based open/next/close execution (the
// Volcano iterator model, one batch per pull). The planner
// (engine/planner.h) compiles a SelectStmt into a tree of these; the
// executor facade drains the root into a ResultTable, while early-exit
// consumers (EXISTS probes, LIMIT) stop pulling as soon as they are
// satisfied.
//
// There is one pull protocol: NextBatch(RowBatch*) (types/row_batch.h).
// Every operator produces batches natively. The consumer sets the batch's
// row target (`RowBatch::capacity`): full drains keep the 1024-row default,
// and an EXISTS probe asks for a single row, so it stops at its first match
// without evaluating its per-row conjuncts on a whole batch.

#pragma once

#include <functional>
#include <memory>

#include "types/result_table.h"
#include "types/row_batch.h"
#include "types/row_view.h"
#include "types/schema.h"
#include "util/status.h"

namespace prefsql {

/// One node of a physical execution plan.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Output schema; known from construction (plan time).
  virtual const Schema& schema() const = 0;

  /// Prepares execution; pipeline breakers (sort, hash build, aggregation,
  /// BMO) consume their input here.
  virtual Status Open() = 0;

  /// Produces the next batch of at most `out->capacity` rows into `*out`
  /// (cleared first, capacity kept); returns false at end of stream, true
  /// iff at least one selected row — a filter-heavy operator keeps pulling
  /// internally rather than return an empty batch, so callers need no
  /// empty-but-not-done handling.
  virtual Result<bool> NextBatch(RowBatch* out) = 0;

  /// Releases per-execution state. Must be safe to call after Open failed.
  virtual void Close() = 0;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

/// One pull of a pipeline sink (drains, pipeline-breaker feeds): checks the
/// statement's deadline/cancel latch, then pulls `op`'s next batch and
/// counts it in the statement's batch stats.
Result<bool> PullBatch(PhysicalOperator& op, RowBatch* batch);

/// Opens, fully drains and closes `op`, handing each batch to `consume`.
Status Drain(PhysicalOperator& op,
             const std::function<void(RowBatch& batch)>& consume);

/// Drains `op`, materializing a ResultTable.
Result<ResultTable> DrainToTable(PhysicalOperator& op);

}  // namespace prefsql
