// NumericColumn: a lazily built, slot-indexed numeric vector of one column
// of a base table, so a preference key build reads numbers by slot without
// loading rows.
//
// Slot `pos` holds exactly Value::ToNumeric() of the slot's cell as a
// double plus a validity byte: INT, DOUBLE (NaN and infinities included),
// DATE and date-formatted TEXT are valid; NULL, BOOL, other TEXT and
// GC-cleared payloads are not. There is no distinct-value cap.
//
// The vector uses RowHeap's chunked-bucket layout, so a slot's
// RowHeap::Locate coordinates address every column of a table alike, and
// nothing is moved once written. Table::NumbersFor extends it over
// [covered, limit) under the table's code mutex and publishes the new
// coverage with release; a reader loads it with acquire and only reads
// slots below it. Stamping a version never touches the vector: slots never
// move and payloads never change, so MVCC needs nothing new. A writer's
// reads extend it as any reader's do, at their snapshot: the target scan
// of an UPDATE or DELETE before it stamps.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "storage/row_heap.h"

namespace prefsql {

class NumericColumn {
 public:
  NumericColumn() = default;
  ~NumericColumn();
  NumericColumn(const NumericColumn&) = delete;
  NumericColumn& operator=(const NumericColumn&) = delete;

  /// Slots [0, covered()) are filled. Acquire: pairs with Extend's release.
  size_t covered() const { return covered_.load(std::memory_order_acquire); }

  /// The numbers and validity bytes of bucket `bucket` (RowHeap::Locate
  /// coordinates); only offsets of slots below covered() may be read.
  const double* values(size_t bucket) const {
    return values_[bucket].load(std::memory_order_acquire);
  }
  const uint8_t* valid(size_t bucket) const {
    return valid_[bucket].load(std::memory_order_acquire);
  }

 private:
  // Extension: only the owning Table calls it, holding its code mutex.
  friend class Table;

  /// Fills column `col` of slots [covered(), limit) of `heap`.
  void Extend(const RowHeap& heap, size_t col, size_t limit);

  std::array<std::atomic<double*>, RowHeap::kNumBuckets> values_{};
  std::array<std::atomic<uint8_t*>, RowHeap::kNumBuckets> valid_{};
  std::atomic<size_t> covered_{0};
};

}  // namespace prefsql
