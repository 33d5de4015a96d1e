// ColumnCodes: lazily built, slot-indexed dictionary codes for one column of
// a base table, so a scan can test `col OP literal` without loading rows.
//
// Each heap slot gets a uint16 code naming an entry of the column's
// dictionary of *exact* values: the key is the ValueType plus the int64,
// the double's bit pattern, the text bytes, the bool or the day number.
// Exactness matters because the scan decides a conjunct once per dictionary
// entry (a truth table) and reuses that answer for every slot holding the
// code: two values the SQL comparison treats differently must never share a
// code. Value::Compare would fold NaN with every number and int64s above
// 2^53 with their neighbours, so it is not used.
//
// Codes use RowHeap's chunked-bucket layout and are never moved once
// written. Table::CodesFor extends them over [covered, limit) under the
// table's leaf mutex and publishes the new coverage with release; a reader
// loads it with acquire and only reads codes below it. Stamping a version
// never touches codes: slots never move and payloads never change, so codes
// stay valid across INSERT/UPDATE/DELETE and MVCC needs nothing new. The
// target scan of an UPDATE or DELETE reads and extends codes as a reader at
// its snapshot, before the writer stamps anything. A column whose
// dictionary would pass kMaxDistinct entries is refused for good; its
// storage lives as long as the table, so a plan that already holds it
// keeps reading valid codes.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/row_heap.h"
#include "types/value.h"

namespace prefsql {

class ColumnCodes {
 public:
  /// Distinct values a coded column may hold; the next one refuses it.
  static constexpr size_t kMaxDistinct = 4096;

  ColumnCodes() = default;
  ~ColumnCodes();
  ColumnCodes(const ColumnCodes&) = delete;
  ColumnCodes& operator=(const ColumnCodes&) = delete;

  /// Slots [0, covered()) have codes. Acquire: pairs with Extend's release.
  size_t covered() const { return covered_.load(std::memory_order_acquire); }

  /// The codes from `pos` (< covered()) to the end of its bucket; `*len`
  /// receives how many slots that run holds. Columns of one table share
  /// the bucket boundaries, so runs of two columns at one `pos` align.
  const uint16_t* Run(size_t pos, size_t* len) const;

 private:
  // Extension: only the owning Table calls these, holding its code mutex.
  friend class Table;

  bool refused() const { return refused_; }

  /// Codes column `col` of slots [covered(), limit) of `heap`. A value
  /// that would pass the distinct cap refuses the column for good; codes
  /// written before it stay valid.
  void Extend(const RowHeap& heap, size_t col, size_t limit);

  /// The dictionary values in code order.
  const std::vector<Value>& values() const { return values_; }

  struct ScalarKey {
    ValueType type;
    uint64_t bits;
    bool operator==(const ScalarKey&) const = default;
  };
  struct ScalarKeyHash {
    size_t operator()(const ScalarKey& k) const {
      return std::hash<uint64_t>()(k.bits * 31 + static_cast<uint64_t>(k.type));
    }
  };
  struct TextHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  /// The code of `v`, adding it to the dictionary; -1 past the cap.
  int32_t CodeOf(const Value& v);

  std::array<std::atomic<uint16_t*>, RowHeap::kNumBuckets> buckets_{};
  std::atomic<size_t> covered_{0};

  // Guarded by the owning table's code mutex.
  bool refused_ = false;
  std::vector<Value> values_;
  int32_t null_code_ = -1;
  std::unordered_map<ScalarKey, uint16_t, ScalarKeyHash> scalars_;
  std::unordered_map<std::string, uint16_t, TextHash, std::equal_to<>> texts_;
};

}  // namespace prefsql
