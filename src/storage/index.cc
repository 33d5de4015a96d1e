#include "storage/index.h"

#include <cmath>

#include "storage/row_heap.h"
#include "storage/table.h"

namespace prefsql {

namespace {

bool IsDateText(const Value& v) {
  return v.type() == ValueType::kText && v.ToNumeric().has_value();
}

// A key Value::Compare cannot place consistently with the SQL comparison.
bool Unordered(const Row& key) {
  for (const Value& v : key) {
    if ((v.type() == ValueType::kDouble && std::isnan(v.AsDouble())) ||
        IsDateText(v)) {
      return true;
    }
  }
  return false;
}

}  // namespace

Index::Index(std::string name, const Table* table,
             std::vector<size_t> key_columns)
    : name_(std::move(name)),
      table_(table),
      key_columns_(std::move(key_columns)) {}

void Index::RefreshIfStale() {
  // Slots never move and their payloads never change, so only the slots
  // appended since the last refresh need entries. A slot whose payload the
  // GC frees later keeps its entry: it is dead at every snapshot that can
  // still start, and the scan's visibility test drops it.
  const RowHeap& heap = table_->heap();
  const size_t n = heap.size();
  for (size_t pos = built_size_; pos < n; ++pos) {
    if (heap.payload_cleared(pos)) continue;  // GC'd version: key is gone
    const Row& row = heap.row(pos);
    Row key;
    key.reserve(key_columns_.size());
    for (size_t c : key_columns_) key.push_back(row[c]);
    if (Unordered(key)) {
      unordered_.push_back(pos);
    } else {
      entries_[std::move(key)].push_back(pos);
    }
  }
  built_size_ = n;
}

std::vector<size_t> Index::WithUnordered(std::vector<size_t> out) const {
  out.insert(out.end(), unordered_.begin(), unordered_.end());
  return out;
}

std::vector<size_t> Index::Lookup(const Row& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  RefreshIfStale();
  auto it = entries_.find(key);
  return WithUnordered(it == entries_.end() ? std::vector<size_t>()
                                            : it->second);
}

std::vector<size_t> Index::RangeLookupBounds(const Value* lo,
                                             const Value* hi) {
  std::lock_guard<std::mutex> lock(mutex_);
  RefreshIfStale();
  std::vector<size_t> out;
  auto begin = lo != nullptr ? entries_.lower_bound(Row{*lo})
                             : entries_.begin();
  for (auto it = begin; it != entries_.end(); ++it) {
    if (hi != nullptr && Value::Compare(it->first[0], *hi) > 0) break;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return WithUnordered(std::move(out));
}

bool Index::UsableBound(const Value& literal) { return !IsDateText(literal); }

size_t Index::NumDistinctKeys() {
  std::lock_guard<std::mutex> lock(mutex_);
  RefreshIfStale();
  return entries_.size();
}

}  // namespace prefsql
