// Base table storage: a typed, multi-version row heap (MVCC).
//
// Every DML statement commits one epoch: INSERT appends versions stamped
// [commit, inf), DELETE end-stamps victims at commit, UPDATE end-stamps the
// old version and appends the replacement. A reader at snapshot S sees
// exactly the versions with begin <= S < end, so concurrent readers never
// block writers and a pinned cursor keeps a stable view for its lifetime.
//
// SealVersion bumps the logical table version and records (commit epoch ->
// heap size) after each statement; HeapSizeAt gives a snapshot reader the
// slot range its epoch saw, so its scans stay deterministic while writers
// append.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "storage/column_codes.h"
#include "storage/epoch.h"
#include "storage/numeric_column.h"
#include "storage/row_heap.h"
#include "types/schema.h"
#include "types/value.h"
#include "util/status.h"

namespace prefsql {

/// An in-memory base table: column definitions plus a versioned row heap.
///
/// Values are checked/coerced against the declared column type on insert
/// (INTEGER accepts doubles with integral value, DATE accepts date-formatted
/// TEXT, DOUBLE accepts INTEGER, ...). NULL is allowed in any column.
///
/// Write primitives (AppendVersion/MarkDeleted/SealVersion) assume one
/// writer at a time — the engine serializes DML under its writer mutex.
/// The convenience Insert/BulkLoadUnchecked wrappers commit one epoch per
/// call for single-threaded callers (tests, CSV import, generators).
class Table {
 public:
  /// `epochs` is the database-wide epoch manager (owned by the Catalog);
  /// when null (standalone tables in tests) the table owns a private one.
  Table(std::string name, std::vector<ColumnDef> columns,
        EpochManager* epochs = nullptr);

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }
  const Schema& schema() const { return schema_; }

  const RowHeap& heap() const { return heap_; }
  /// All slots ever appended, live and dead.
  size_t heap_size() const { return heap_.size(); }
  EpochManager& epochs() const { return *epochs_; }

  /// Visible row count at the current epoch (O(heap); tests/stats — scans
  /// stream visibility instead of counting first).
  size_t num_rows() const { return NumVisibleAt(epochs_->current()); }
  size_t NumVisibleAt(uint64_t snapshot) const;

  /// Finds the position of `column` (case-insensitive).
  Result<size_t> ColumnIndex(const std::string& column) const;

  /// Coerces `value` to the declared type of column `col` (also used by
  /// UPDATE/INSERT...SELECT paths).
  Result<Value> CoerceToColumn(size_t col, Value value) const;

  /// Arity check plus per-cell coercion of a full row, in place. A cell
  /// already of its column's type (or NULL) is left untouched.
  Status CoerceRow(Row* row) const;

  // -- Convenience write path (auto-commits one epoch per call) ------------

  /// Validates/coerces and appends a row visible from a fresh commit epoch.
  Status Insert(Row row);

  /// Appends rows without per-value validation (trusted bulk load used by
  /// the workload generators); one commit epoch for the whole batch.
  void BulkLoadUnchecked(std::vector<Row> rows);

  // -- MVCC write primitives (engine writer path) ---------------------------
  //
  // The executor allocates `commit = epochs().BeginWrite()`, stamps all of
  // the statement's changes with it, calls SealVersion(commit), and finally
  // epochs().Publish(commit) — readers see all of the statement or none.

  /// Appends one coerced row version with begin = `begin`; returns its slot.
  size_t AppendVersion(Row row, uint64_t begin) {
    return heap_.Append(std::move(row), begin);
  }

  /// End-stamps `slot` (DELETE, or the old version of an UPDATE).
  void MarkDeleted(size_t slot, uint64_t end) { heap_.MarkDead(slot, end); }

  /// Bumps the logical table version and records that `commit_epoch` sealed
  /// the current heap size. Call once per mutating statement.
  void SealVersion(uint64_t commit_epoch);

  // -- Snapshot views -------------------------------------------------------

  /// The heap size at `snapshot` (the size sealed by the last commit epoch
  /// <= snapshot) — the slot range a reader at that snapshot scans.
  size_t HeapSizeAt(uint64_t snapshot) const;

  /// The dictionary codes of column `col` covering at least slots
  /// [0, limit), extended under the table's code mutex when a reader needs
  /// more (`limit` <= heap_size(); a snapshot reader passes its
  /// HeapSizeAt). `truth` receives one byte per dictionary code, `test` of
  /// that code's value, decided under the same mutex; every code below
  /// `limit` indexes it. Null when the column is refused (more than
  /// ColumnCodes::kMaxDistinct distinct values). The codes live as long as
  /// the table.
  const ColumnCodes* CodesFor(size_t col, size_t limit,
                              const std::function<bool(const Value&)>& test,
                              std::vector<uint8_t>* truth) const;

  /// The numeric vector of column `col` covering at least slots [0, limit)
  /// (storage/numeric_column.h), extended under the table's code mutex
  /// when a reader needs more (`limit` <= heap_size(); a snapshot reader
  /// passes its HeapSizeAt). The vector lives as long as the table.
  const NumericColumn& NumbersFor(size_t col, size_t limit) const;

  /// Frees payloads of versions invisible to every snapshot >= `horizon`
  /// and trims version history below it. Visits only the slots
  /// end-stamped since earlier sweeps (RowHeap's dead-slot list), so a
  /// sweep after INSERTs alone frees nothing in O(1). The engine calls this
  /// only while it holds the catalog lock exclusively (no active readers)
  /// with horizon <= the oldest pinned snapshot. Returns payloads freed.
  size_t CollectGarbage(uint64_t horizon);

  /// Monotone counter bumped on every mutation (latest sealed version).
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Process-unique identity of this table object. Unlike the name, the id
  /// distinguishes a dropped-and-recreated table from its predecessor.
  uint64_t id() const { return id_; }

 private:
  static uint64_t NextId();

  struct Seal {
    uint64_t epoch;
    size_t heap_size;
  };

  std::string name_;
  std::vector<ColumnDef> columns_;
  Schema schema_;
  RowHeap heap_;
  std::unique_ptr<EpochManager> owned_epochs_;
  EpochManager* epochs_;
  std::atomic<uint64_t> version_{0};
  uint64_t id_ = NextId();

  // Commit history, ascending by epoch; seeded with {0, 0} so every
  // snapshot resolves. Guarded by seal_mu_ (appends are writer-serialized,
  // but readers binary-search concurrently).
  mutable std::mutex seal_mu_;
  std::vector<Seal> seals_;

  // One of each per column, created on first use. Leaf lock: held only
  // while a reader creates or extends codes or numbers and decides a truth
  // table.
  mutable std::mutex codes_mu_;
  mutable std::vector<std::unique_ptr<ColumnCodes>> codes_;
  mutable std::vector<std::unique_ptr<NumericColumn>> numbers_;
};

}  // namespace prefsql
