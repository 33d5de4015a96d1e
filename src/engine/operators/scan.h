// Access-path operators: the sequential scan of a materialized relation,
// the heap scan of a base table, and the synthetic one-row source used by
// FROM-less SELECTs.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/operators/operator.h"
#include "storage/column_codes.h"
#include "storage/row_heap.h"

namespace prefsql {

/// MVCC visibility counters surfaced through EXPLAIN/session stats. Scans
/// batch locally and flush on Close (relaxed adds — purely informational).
struct MvccScanCounters {
  std::atomic<uint64_t> versions_scanned{0};
  std::atomic<uint64_t> versions_skipped{0};
};

/// Scans a row vector in order. The vector is either borrowed (base-table
/// heap, cached view — optionally pinned via `keepalive`) or owned (FROM
/// subquery materialization).
class SeqScanOperator : public PhysicalOperator {
 public:
  /// Borrowing scan; `keepalive` may pin a shared view materialization.
  SeqScanOperator(Schema schema, const std::vector<Row>* rows,
                  std::shared_ptr<ResultTable> keepalive = nullptr);

  /// Owning scan over a materialized result.
  SeqScanOperator(Schema schema, ResultTable owned);

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  Schema schema_;
  ResultTable owned_;
  const std::vector<Row>* rows_;
  std::shared_ptr<ResultTable> keepalive_;
  size_t pos_ = 0;
};

/// Scans the row versions of a base-table heap, emitting those visible at
/// `snapshot` — every read of a base table goes through it. It runs in one
/// of two modes:
///
///  * Range mode scans slots [0, `limit`), the heap size the snapshot's
///    table version sealed, so the scan is deterministic even while writers
///    append concurrently. Each of `coded` is a column's dictionary codes
///    with a truth table the planner decided from the leading run of the
///    WHERE's direct conjuncts (Table::CodesFor). The scan tests the
///    per-slot codes first and visibility second, and emits a row only when
///    every truth table passes; `versions_scanned` counts the slots that
///    reached the visibility test.
///  * List mode emits the ascending heap slots `slots` (index hits) that
///    are visible at `snapshot`. Index hits cover dead versions and slots
///    beyond the snapshot's heap size too; the visibility test drops them.
class HeapScanOperator : public PhysicalOperator {
 public:
  struct CodedFilter {
    const ColumnCodes* codes;
    std::vector<uint8_t> truth;  // one byte per dictionary code
  };

  /// Range mode.
  HeapScanOperator(Schema schema, const RowHeap* heap, size_t limit,
                   uint64_t snapshot, MvccScanCounters* counters,
                   std::vector<CodedFilter> coded = {});

  /// List mode.
  HeapScanOperator(Schema schema, const RowHeap* heap,
                   std::vector<size_t> slots, uint64_t snapshot,
                   MvccScanCounters* counters);

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  /// The first slot in [pos, end) whose codes pass every coded filter, or
  /// `end`.
  size_t NextCodeMatch(size_t pos, size_t end);
  Result<bool> NextListBatch(RowBatch* out);

  Schema schema_;
  const RowHeap* heap_;
  size_t limit_;  // the slot bound (range mode) or the list's length
  uint64_t snapshot_;
  MvccScanCounters* counters_;
  std::vector<CodedFilter> coded_;
  std::vector<const uint16_t*> runs_;  // per coded filter, NextCodeMatch
  bool list_mode_ = false;
  std::vector<size_t> slots_;  // list mode
  size_t pos_ = 0;  // the next slot (range mode) or list entry
  size_t tick_ = 0;
  uint64_t scanned_ = 0;
  uint64_t skipped_ = 0;
};

/// Produces exactly one empty row (SELECT without FROM).
class OneRowOperator : public PhysicalOperator {
 public:
  OneRowOperator() = default;

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override {}

 private:
  Schema schema_;
  Row row_;
  bool done_ = false;
};

}  // namespace prefsql
