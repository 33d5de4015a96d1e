// RowRef: a tuple either borrowed from stable storage (base-table heap,
// cached view materialization) or owned by the operator that produced it.
//
// The physical operators of the pull pipeline exchange RowRefs instead of
// Rows so that scans, filters and limits never copy tuple payloads; only
// computing operators (projection, join concatenation, aggregation) allocate
// new rows. A borrowed ref must not outlive the storage it points into —
// plans are drained while the whole operator tree (and the catalog objects
// it borrows from) is alive, which makes borrowing safe by construction.

#pragma once

#include <utility>

#include "types/value.h"

namespace prefsql {

/// A reference-or-value row handle passed between physical operators.
class RowRef {
 public:
  RowRef() = default;

  /// Views a row owned by someone else; `row` must outlive the ref.
  static RowRef Borrowed(const Row* row) {
    RowRef r;
    r.borrowed_ = row;
    return r;
  }

  /// Takes ownership of `row`.
  static RowRef Owned(Row row) {
    RowRef r;
    r.owned_ = std::move(row);
    return r;
  }

  const Row& row() const { return borrowed_ != nullptr ? *borrowed_ : owned_; }
  const Row& operator*() const { return row(); }
  const Row* operator->() const { return borrowed_ != nullptr ? borrowed_ : &owned_; }

  bool is_borrowed() const { return borrowed_ != nullptr; }

  /// Materializes the row: moves it out when owned, copies when borrowed.
  Row IntoRow() && {
    if (borrowed_ != nullptr) return *borrowed_;
    return std::move(owned_);
  }

 private:
  Row owned_;
  const Row* borrowed_ = nullptr;
};

/// How many rows ahead a per-row loop over borrowed rows prefetches. Each
/// row's cells live in their own heap allocation, so a loop that reads one
/// or two cells per row otherwise waits out one memory miss per row.
inline constexpr size_t kRowPrefetchDistance = 16;

/// Hints the CPU to start loading cell `col` of `row`; no-op past the end.
inline void PrefetchCell(const Row& row, size_t col) {
  if (col < row.size()) __builtin_prefetch(row.data() + col);
}

}  // namespace prefsql
