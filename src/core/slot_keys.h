// SlotKeys: the one key build for preference keys that start from a heap
// slot of a base table — the BMO's candidates of a heap scan.
//
// A leaf whose attribute is a plain column and whose base preference scores
// by the value's numeric view (AROUND, BETWEEN, LOWEST, HIGHEST, or the DUAL
// of one: BasePreference::numeric_score) reads the table's numeric column
// vector (storage/numeric_column.h) by slot: no row load, no Value, no
// virtual call per cell. Every other leaf — over an expression, categorical,
// EXPLICIT, or with a subquery — evaluates its bound attribute on the slot's
// row exactly as CompiledPreference::AppendKey does. Both give bit-identical
// keys because both go through NumericScore.

#pragma once

#include <cstddef>
#include <vector>

#include "engine/evaluator.h"
#include "preference/composite.h"
#include "preference/key_store.h"
#include "storage/table.h"
#include "util/status.h"

namespace prefsql {

class SlotKeys {
 public:
  /// Keys `pref` over slots below `limit` of `table`, whose rows have
  /// `schema` (the table's columns in order, any qualifier); `leaves` are
  /// pref's leaves bound to `schema` and, like `pref` and `schema`, must
  /// outlive the result. Extends the numeric vectors the vector leaves read
  /// to cover [0, limit), in steps that poll the statement's interrupt
  /// latch: the first key build over a large table builds them.
  static Result<SlotKeys> Make(const CompiledPreference& pref,
                               const std::vector<BoundExpr>& leaves,
                               const Schema& schema, const Table& table,
                               size_t limit, SubqueryRunner* runner);

  /// Leaves keyed from column vectors (the rest evaluate rows).
  size_t vector_leaves() const { return vector_leaves_; }

  /// Appends the key of `slot` (< limit), whose payload must be live (not
  /// GC-cleared), to `store`. Fails only when a row-evaluated leaf fails;
  /// the half-built key is then rolled back.
  Status Append(size_t slot, KeyStore* store) const;

 private:
  SlotKeys(const CompiledPreference& pref,
           const std::vector<BoundExpr>& leaves, const Schema& schema,
           const RowHeap& heap, SubqueryRunner* runner)
      : pref_(pref),
        leaves_(leaves),
        schema_(schema),
        heap_(heap),
        runner_(runner),
        plan_(pref.num_leaves()) {}

  struct Leaf {
    const NumericColumn* numbers = nullptr;  // null: evaluate the row
    NumericScore score;
  };

  const CompiledPreference& pref_;
  const std::vector<BoundExpr>& leaves_;
  const Schema& schema_;
  const RowHeap& heap_;
  SubqueryRunner* runner_;
  std::vector<Leaf> plan_;
  size_t vector_leaves_ = 0;
};

}  // namespace prefsql
