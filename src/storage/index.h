// Secondary index: an ordered multimap from key rows to row positions.
//
// The paper notes that "having the right indices available current SQL
// optimizers can efficiently process" the rewritten NOT EXISTS query; the
// planner uses these indexes to serve a one-table WHERE's equality and
// range conjuncts (joins do not use them).

#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "types/value.h"
#include "util/status.h"

namespace prefsql {

class Table;

/// Ordered secondary index over one or more columns of a base table.
///
/// MVCC notes: the index covers every heap slot (live and dead versions
/// alike, skipping payloads the GC cleared before they were indexed) and
/// is extended lazily over the slots appended since its last lookup —
/// deletes only end-stamp slots, so they never stale the index.
/// Lookups therefore return *candidate* positions; the heap scan filters
/// them by snapshot visibility. Results are returned by value because
/// writers commit concurrently with readers, so another statement may
/// extend the index while a previously returned result is still in use.
///
/// Lookups over-approximate the rows a full scan selects, where the SQL
/// comparison and Value::Compare disagree:
///  * A key holding a NaN or a TEXT that parses as a date stays out of the
///    ordered map, and its slot comes back with every lookup. Value::Compare
///    treats NaN as equal to every number, which no strict weak order
///    allows, and SQL compares date text with a DATE by day number, which
///    the key order (numbers before TEXT) cannot follow.
///  * A TEXT literal that parses as a date is no bound (UsableBound), for
///    the same reason.
class Index {
 public:
  Index(std::string name, const Table* table, std::vector<size_t> key_columns);

  const std::string& name() const { return name_; }
  const std::vector<size_t>& key_columns() const { return key_columns_; }

  /// Slot positions whose key equals `key` (same arity as key_columns).
  /// Refreshes the index if the heap grew. Candidates only — callers must
  /// filter by snapshot visibility.
  std::vector<size_t> Lookup(const Row& key);

  /// Slot positions with key in [lo, hi] on a single-column index; a null
  /// bound is open. The planner's access path for range predicates
  /// (col < v, BETWEEN, ...).
  std::vector<size_t> RangeLookupBounds(const Value* lo, const Value* hi);

  /// Whether the planner may look up or bound a key column by `literal`.
  static bool UsableBound(const Value& literal);

  /// Number of distinct keys in the ordered map (after refresh).
  size_t NumDistinctKeys();

 private:
  struct RowLess {
    bool operator()(const Row& a, const Row& b) const {
      for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
        int c = Value::Compare(a[i], b[i]);
        if (c != 0) return c < 0;
      }
      return a.size() < b.size();
    }
  };

  void RefreshIfStale();
  /// `out` plus the slots kept out of the ordered map.
  std::vector<size_t> WithUnordered(std::vector<size_t> out) const;

  mutable std::mutex mutex_;
  std::string name_;
  const Table* table_;
  std::vector<size_t> key_columns_;
  size_t built_size_ = 0;  // heap slots indexed so far
  std::map<Row, std::vector<size_t>, RowLess> entries_;
  std::vector<size_t> unordered_;  // slots kept out of `entries_`
};

}  // namespace prefsql
