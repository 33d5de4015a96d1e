#include "core/cursor.h"

#include <utility>
#include <vector>

#include "core/engine.h"

namespace prefsql {

namespace {
const Schema& EmptySchema() {
  static const Schema kEmpty;
  return kEmpty;
}
}  // namespace

Cursor::~Cursor() { Close(); }

const Schema& Cursor::columns() const {
  return impl_ != nullptr ? impl_->schema : EmptySchema();
}

bool Cursor::is_open() const { return impl_ != nullptr && impl_->open; }

size_t Cursor::rows_streamed() const {
  return impl_ != nullptr ? impl_->streamed : 0;
}

Result<std::optional<RowRef>> Cursor::Next() {
  if (!is_open()) {
    return Status::ExecutionError("cursor is closed");
  }
  Impl& impl = *impl_;
  if (impl.table.has_value()) {
    if (impl.next_row >= impl.table->num_rows()) {
      Close();
      return std::optional<RowRef>();
    }
    RowRef row = RowRef::Borrowed(&impl.table->rows()[impl.next_row]);
    ++impl.next_row;
    ++impl.streamed;
    return std::optional<RowRef>(std::move(row));
  }
  // A cancel or an expired deadline surfaces at the next pull even when the
  // operator tree would not poll soon (e.g. a client paused mid-stream).
  if (impl.ctx != nullptr) {
    Status interrupt = impl.ctx->CheckInterrupt();
    if (!interrupt.ok()) {
      Close();
      return interrupt;
    }
  }
  // Refill from the operator tree ~1k rows at a time and replay the batch
  // row by row — the client API stays row-at-a-time. Pull under the
  // cursor's pinned snapshot so any subplan materialized mid-stream reads
  // the same point-in-time view the cursor opened with; the query context
  // rides along so the operators keep polling it.
  if (impl.batch_pos >= impl.batch.sel.size()) {
    ScopedSnapshot ambient(impl.snapshot);
    ScopedQueryContext qscope(impl.ctx.get());
    auto more = PullBatch(*impl.root, &impl.batch);
    if (!more.ok()) {
      Close();
      return more.status();
    }
    if (!*more) {
      // End of stream: release the statement lock promptly instead of
      // making the client call Close() before the engine accepts writers
      // again.
      Close();
      return std::optional<RowRef>();
    }
    impl.batch_pos = 0;
  }
  RowRef out = std::move(impl.batch.rows[impl.batch.sel[impl.batch_pos]]);
  ++impl.batch_pos;
  ++impl.streamed;
  return std::optional<RowRef>(std::move(out));
}

void Cursor::Close() {
  if (impl_ == nullptr || !impl_->open) return;
  Impl& impl = *impl_;
  impl.open = false;
  if (impl.root != nullptr) {
    // Closing the tree flushes the BMO operators' counters into the plan's
    // stats sinks — correct even when the client stopped pulling early.
    impl.root->Close();
    if (impl.session != nullptr && impl.engine != nullptr &&
        impl.session->stats_epoch() == impl.stats_epoch) {
      impl.engine->FlushStats(*impl.session, impl.stats, impl.pref_plan,
                              impl.streamed, impl.ctx.get());
    }
    // Destroy the operator tree before releasing the lock: scans borrow
    // from catalog storage that writers may mutate once the lock is free.
    // The root must go before the rest of the plan — the BMO operators
    // flush into the plan's stats sinks from their destructors too.
    impl.root = nullptr;
    impl.pref_plan.root.reset();
    impl.pref_plan = PreferencePlan{};
    impl.plain_root.reset();
  }
  // Drop any batched rows before releasing the pin: borrowed refs point
  // into pinned storage.
  impl.batch.Clear();
  impl.batch_pos = 0;
  // Release the snapshot pin after the operator tree is gone (nothing can
  // read at the snapshot anymore) and before the DDL lock, so GC triggered
  // by the lock release never races an active pin.
  impl.pin.Release();
  impl.lock = std::shared_lock<std::shared_mutex>();
  impl.table.reset();
  // Retire the statement's context from the session last: a cancel arriving
  // after this point targets a newer statement, never this closed cursor.
  if (impl.session != nullptr && impl.ctx != nullptr) {
    impl.session->ClearCurrentContext(impl.ctx.get());
  }
  impl.ctx.reset();
}

Result<ResultTable> DrainCursor(Cursor& cursor) {
  if (cursor.impl_ != nullptr && cursor.impl_->table.has_value() &&
      cursor.impl_->next_row == 0) {
    // Materialized result not yet consumed: hand the table over wholesale.
    ResultTable table = std::move(*cursor.impl_->table);
    cursor.Close();
    return table;
  }
  Schema schema = cursor.columns();
  std::vector<Row> rows;
  for (;;) {
    PSQL_ASSIGN_OR_RETURN(std::optional<RowRef> row, cursor.Next());
    if (!row.has_value()) break;
    rows.push_back(std::move(*row).IntoRow());
  }
  return ResultTable(std::move(schema), std::move(rows));
}

}  // namespace prefsql
