// RowBatch: the unit of exchange of the operator pipeline. Every pull hands
// over up to `capacity` rows at once:
//
//   * `rows`  — the batch's row references, in pull order. A RowRef either
//     borrows storage-resident rows (scans) or owns computed ones
//     (projections, joins, BMO augmentation).
//   * `sel`   — the selection vector: ascending indices into `rows` naming
//     the live rows. Filters never move row data; they compact `sel` in
//     place, so a predicate pass over 1024 rows costs one column-index
//     resolution and zero row copies.
//   * `slots` — the heap slot of each entry of `rows` when a base-table
//     heap scan produced the batch (same length as `rows`); empty
//     otherwise. Filters keep it aligned; an operator that replaces rows
//     clears it. The BMO key build reads column vectors by these slots.
//   * `slots_only` — the puller's request for a slots-only batch. A heap
//     scan then hands over `slots` alone, all of them selected, and leaves
//     `rows` and `sel` empty; every other producer ignores the request and
//     fills rows. Only a puller that takes both shapes (BmoOperator over a
//     base-table scan, directly or under a filter) sets it.
//   * `capacity` — the row target the consumer sets. Batch producers (scans,
//     sort, aggregate, join, BMO output) fill at most this many rows;
//     pass-through operators (project, distinct, prefix, limit) hand the
//     same batch down, so the target reaches the producer below them. A
//     filter hands over at most this many rows and keeps the rest of its
//     child batch for the next pull. Full drains keep the default; an
//     early-exit consumer asks for fewer (an EXISTS probe asks for 1 and
//     stops at its first match).
//
// Per-row bookkeeping amortizes across the batch: one interrupt poll, one
// memory-budget charge, and (for heap scans) one MVCC visibility sweep per
// batch instead of per row — that, plus the virtual-call amortization, is
// what feeds the SIMD dominance kernels at memory speed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "types/row_view.h"

namespace prefsql {

/// Default row target per NextBatch call. 1024 RowRefs (~40 KiB of refs
/// plus the selection vector) stay L1/L2-resident while amortizing the
/// per-call overhead ~1000x over one pull per row.
inline constexpr size_t kRowBatchCapacity = 1024;

struct RowBatch {
  std::vector<RowRef> rows;
  std::vector<uint32_t> sel;
  std::vector<size_t> slots;
  /// Row target of each pull; survives Clear().
  size_t capacity = kRowBatchCapacity;
  /// Slots-only request (see above); survives Clear().
  bool slots_only = false;

  /// Appends a row as selected (identity selection while filling).
  void PushRow(RowRef ref) {
    sel.push_back(static_cast<uint32_t>(rows.size()));
    rows.push_back(std::move(ref));
  }

  /// Whether a producer may append another row.
  bool full() const { return rows.size() >= capacity; }

  void Clear() {
    rows.clear();
    sel.clear();
    slots.clear();
  }

  /// Selected entries: the slots of a slots-only batch, else `sel`.
  size_t selected() const { return rows.empty() ? slots.size() : sel.size(); }
  bool empty() const { return selected() == 0; }
};

}  // namespace prefsql
